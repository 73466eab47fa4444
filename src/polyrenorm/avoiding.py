"""Pixel-grid computation of the filled Julia set and the avoiding set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .grid import Mask, PixelRaster, sweep_pixels
from .errors import GridMismatch
from .poly import Polynomial, horner_error, return_petals, unity_order
from .scene import GridSpec

if TYPE_CHECKING:
    from .cuts import CutFamily

RASTER_RES = 4096  # side of every lookup raster on a covering window
STRIP_ROWS = 64  # mask rows that the closing and the component count hold at once


def bounded_square(P: Polynomial) -> tuple[complex, float]:
    """(center, half-width) of the square around the pixels of a coarse sweep
    of |z| <= R that stay bounded for 96 steps, widened by 1/2; (0, 1) when
    no pixel stays bounded.  `Polynomial.bounded_square` keeps it, so one
    coarse sweep serves every covering window of a polynomial."""
    coarse = GridSpec(0j, 2.0 * P.escape_radius, 160)
    bounded = escape_analysis(P, coarse, 96).kp.bits
    if not bounded.any():
        return 0j, 1.0
    zs = coarse.centers()[bounded]
    re_lo, re_hi = zs.real.min(), zs.real.max()
    im_lo, im_hi = zs.imag.min(), zs.imag.max()
    return (complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2),
            max(re_hi - re_lo, im_hi - im_lo) / 2 + 0.5)


def covering_window(P: Polynomial, polylines: Sequence[Sequence[complex]]) -> GridSpec:
    """A RASTER_RES window over the non-escaping set and every polyline, so
    that one lookup raster serves every iterate of a bounded orbit.

    P's `bounded_square`, widened as far as each polyline reaches from its
    center, then by 2%.
    """
    center, half = P.bounded_square
    for arr in map(np.asarray, polylines):
        half = max(half,
                   abs(arr.real.max() - center.real), abs(arr.real.min() - center.real),
                   abs(arr.imag.max() - center.imag), abs(arr.imag.min() - center.imag))
    return GridSpec(center, 2.0 * half * 1.02, RASTER_RES)


def wedge_raster(P: Polynomial, family: CutFamily) -> PixelRaster:
    """Rasterized union of the family's wedges on their covering window."""
    return PixelRaster(covering_window(P, family.walls), [family.walls])


# -- certified interior traps -------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
# (M, K) for the lobes {Re phi > M, |phi| < K} in the order tried: the
# lowest M first, and for each M the highest K
_LOBE_LADDER = [(m, k) for m in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0)
                for k in (1e7, 1e5, 1e3)]


@dataclass(frozen=True)
class InteriorTrap:
    """A set T every float orbit of which stays bounded, and clear of the
    sweep's forbidden raster pixels, for the sweep's whole iteration budget.

    `disks` are (center, radius) pairs around attracting cycle points;
    `lobes` are (z0, a, M, K, rho_hi) with a = (a_1, ..., a_m): the points
    with phi = sum a_k (z - z0)^-k satisfying Re phi > M and |phi| < K, where
    phi is a truncated Fatou coordinate at a parabolic fixed point z0 (one
    step of P adds 1 + O(z - z0) to it).  Membership is tested in floats; the
    certificate covers the test's rounding.  Every point passing the test
    lies within rho_hi of z0, so the series is evaluated only there.
    """

    disks: tuple = ()
    lobes: tuple = ()

    def __bool__(self) -> bool:
        return bool(self.disks or self.lobes)

    def contains(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape, dtype=bool)
        for c, r in self.disks:
            w = z - c
            out |= w.real * w.real + w.imag * w.imag <= r * r
        for z0, a, M, K, rho_hi in self.lobes:
            w = z - z0
            near = np.nonzero(w.real * w.real + w.imag * w.imag
                              <= rho_hi * rho_hi * (1 + 1e-9))
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = _laurent(a, 1.0 / w[near])
            out[near] |= (phi.real > M) & (np.abs(phi) < K)
        return out


def _laurent(a, v):
    """sum_k a[k-1] v^k by Horner."""
    acc = a[-1] * v
    for c in a[-2::-1]:
        acc += c
        acc *= v
    return acc


def _taylor_bounds(P: Polynomial, z0: complex) -> tuple[list[complex], list[float]]:
    """Float Taylor coefficients of P at z0 and bounds on their errors: the
    synthetic division runs at most (d+1)^2 multiply-adds on terms bounded by
    the Taylor coefficients of sum |c_k| z^k at |z0|."""
    t = P.taylor(z0)
    tau = Polynomial(tuple(abs(c) for c in P.coeffs)).taylor(abs(z0))
    return t, [8 * (P.degree + 1) ** 2 * _U * abs(x) for x in tau]


def _clear_of(raster: PixelRaster, bit: int, keep_inside: bool, center: complex,
              radius: float, may_meet) -> bool:
    """Whether a set inside the disk D(center, radius) keeps one pixel away
    from every forbidden pixel of `raster`: those with `bit` set, or with
    `keep_inside` those without it, the window's outside included.

    `may_meet(x, s)` is False only where the disk D(x, s) surely misses the
    set; it is asked at the centers x of the forbidden pixels near the set,
    with s covering the pixel's 3x3 block, first at every 16th row and
    column, so that a failing clearance usually stops there.
    """
    g = raster.grid
    n, px = g.resolution, g.pixel
    s = 1.5 * math.sqrt(2.0) * px
    left, top = g.center.real - g.width / 2, g.center.imag + g.width / 2
    j0, j1 = (math.floor((center.real + sgn * (radius + s) - left) / px) for sgn in (-1, 1))
    i0, i1 = (math.floor((top - center.imag - sgn * (radius + s)) / px) for sgn in (1, -1))
    if keep_inside and not (0 <= j0 and j1 < n and 0 <= i0 and i1 < n):
        return False
    i0, j0 = max(i0, 0), max(j0, 0)
    i1, j1 = min(i1, n - 1), min(j1, n - 1)
    if i1 < i0 or j1 < j0:
        return True
    block = raster.layer(bit, i0, i1 + 1, j0, j1 + 1) ^ keep_inside
    for step in (16, 1):
        ii, jj = np.nonzero(block[::step, ::step])
        x = (left + (jj * step + j0 + 0.5) * px) + 1j * (top - (ii * step + i0 + 0.5) * px)
        if may_meet(x, s).any():
            return False
    return True


def _attracting_disks(P: Polynomial, cycle, clear) -> list:
    """Disks D(p_j, r_j) around the cycle points with P(D_j) inside D_{j+1}
    (indices mod n), rounding included; largest r_0 from a halving ladder."""
    R = P.escape_radius
    pts = cycle.points
    n = len(pts)
    taylor = [_taylor_bounds(P, p) for p in pts]
    for i in range(1, 60):
        radii = [R * 2.0 ** -i]
        for j, (t, err) in enumerate(taylor):
            r = radii[-1]
            if abs(pts[j]) + r > R * (1 - 1e-9):
                break
            radii.append(abs(t[0] - pts[(j + 1) % n]) + err[0]
                         + sum((abs(t[k]) + err[k]) * r ** k for k in range(1, len(t)))
                         + horner_error(P, abs(pts[j]) + r))
        else:
            if radii[n] > radii[0]:
                continue
            if all(clear(p, r, lambda x, s, p=p, r=r: np.abs(x - p) <= r + s)
                   for p, r in zip(pts, radii)):
                # the float test accepts |z - p| up to r (1 + 4u)
                return [(p, r * (1 - 1e-12)) for p, r in zip(pts, radii[:n])]
    return []


def _fatou_coordinate(t: list[complex], q: int) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Truncated Fatou coordinate at a parabolic fixed point.

    `t` holds the Taylor coefficients of f(w) = P(z0 + w) - z0 (t[0] is
    ignored) and the multiplier t[1] is a primitive q-th root of unity.
    Returns a = (a_1, ..., a_m) with phi(f(w)) = phi(w) + 1 + O(w) for
    phi(w) = sum a_k w^-k, m the number of petals, together with the
    polynomial N(w) = w^m F(w)^m (phi(f(w)) - phi(w) - 1), F = f / w, and a
    bound on the rounding in each of its coefficients.  None when the
    petal count exceeds `poly.MAX_PETALS` or the expansion is degenerate.
    """
    F = np.array(t[1:], dtype=complex)
    petals = return_petals([t], q)  # f^q(w) = w + A w^(m+1) + ...
    if petals is None:
        return None
    m = petals[0]
    if m % q:
        return None
    # power series of G = 1/F, and of G^k for k <= m, to order m
    G = np.zeros(m + 1, dtype=complex)
    Fp = np.pad(F, (0, max(0, m + 1 - len(F))))
    G[0] = 1 / Fp[0]
    for i in range(1, m + 1):
        G[i] = -np.dot(Fp[1:i + 1], G[i - 1::-1]) / Fp[0]
    Gk = [np.eye(1, m + 1, dtype=complex)[0]]
    for _ in range(m):
        Gk.append(npp.polymul(Gk[-1], G)[:m + 1])
    # phi(f(w)) = sum_k a_k w^-k G(w)^k: clear the w^-j terms, j = m-1 .. 1
    a = np.zeros(m + 1, dtype=complex)
    a[m] = 1.0
    for j in range(m - 1, 0, -1):
        rhs = -sum(a[k] * Gk[k][k - j] for k in range(j + 1, m + 1))
        coef = Gk[j][0] - 1.0
        if abs(coef) < 1e-6:  # resonant order: free coefficient, keep 0
            if abs(rhs) > 1e-6 * max(1.0, np.abs(a).max()):
                return None
            continue
        a[j] = rhs / coef
    c = sum(a[k] * Gk[k][k] for k in range(1, m + 1))
    if abs(c) < 1e-9:
        return None
    a = a[1:] / c
    # N = sum_k a_k w^(m-k) (F^(m-k) - F^m) - w^m F^m, and the same with
    # absolute values throughout as the scale of its rounding
    Fa = np.abs(F)
    Fm, Fam = npp.polypow(F, m), npp.polypow(Fa, m)
    N = -np.pad(Fm, (m, 0))
    scale = np.pad(Fam, (m, 0))
    for k in range(1, m + 1):
        term = npp.polysub(npp.polypow(F, m - k), Fm)
        N = npp.polyadd(N, a[k - 1] * np.pad(term, (m - k, 0)))
        scale = npp.polyadd(scale, abs(a[k - 1]) * np.pad(
            npp.polyadd(npp.polypow(Fa, m - k), Fam), (m - k, 0)))
    return a, N, 1e-12 * scale


def _parabolic_lobes(P: Polynomial, cycle, max_iter: int, clear) -> list:
    """Lobes {Re phi > M, |phi| < K} at a parabolic fixed point, for the first
    (M, K) of the ladder that certifies.

    With w = z - z0 and f(w) = P(z0 + w) - z0, a float step is
    w' = f(w) + delta with |delta| bounded by the Taylor and Horner rounding,
    so phi(w') - phi(w) = 1 + D(w) + E with D = N / (w^m F^m) and
    |E| <= |delta| max |phi'|.  B = {Re phi >= M - eta, |phi| <= K_B} lies in
    the annulus rho_lo <= |w| <= rho_hi; on a cover of B by small boxes,
    bounding D on each, the certificate asks Re(1 + D + E) >= 1/4 and
    |1 + D + E| <= 3.  Re phi then grows and |phi| grows by at most 3 a step,
    so an orbit entering T stays in B for max_iter steps,
    K_B = K + 1 + 3 max_iter.  eta bounds the rounding of the float
    membership test; the K cap keeps B off the cusp, where rounding would
    beat the drift.
    """
    if cycle.period != 1:
        return []
    z0 = cycle.points[0]
    for _ in range(4):  # Newton on P(z) - z, or on P'(z) - 1 at a double root
        t = P.taylor(z0)
        step = ((t[1] - 1) / (2 * t[2]) if abs(t[1] - 1) < 0.1
                else (t[0] - z0) / (t[1] - 1))
        if not np.isfinite(step):
            break
        z0 -= step
    t, err = _taylor_bounds(P, z0)
    q = unity_order(t[1])
    fc = _fatou_coordinate(t, q) if q is not None else None
    if fc is None:
        return []
    a, N, N_err = fc
    m = len(a)
    ks = np.arange(1, m + 1)
    absa = np.abs(a)
    F = np.array(t[1:])
    Fa = np.abs(F) + np.array(err[1:])
    dF = npp.polyder(Fa)
    Nt = N[m:].copy()  # D = Nt / F^m plus the rounding residue N[:m+1] / (w^m F^m)
    Nt[0] = 0
    Nt_err = N_err[m:]
    dNt = npp.polyder(np.abs(Nt) + Nt_err)

    def lip_phi(r):  # max |phi'| on |w| >= r
        return np.dot(ks * absa, np.power.outer(r, -ks - 1.0).T)

    def upper(r):  # |phi(w)| <= upper(|w|)
        return float(np.dot(absa, r ** -ks))

    def lower(r):  # |phi(w)| >= lower(|w|) while this decreases in |w|
        return float(absa[-1] * r ** -m - np.dot(absa[:-1], r ** -ks[:-1]))

    def rho_lo_of(K_B):  # largest r with lower(r) >= K_B, where lower still decreases
        lo, hi = 1e-6 * (absa[-1] / K_B) ** (1 / m), (absa[-1] / K_B) ** (1 / m)
        if lower(lo) < K_B:
            return None
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if lower(mid) >= K_B else (lo, mid)
        return lo

    R = P.escape_radius
    rho_los = {K: rho_lo_of(K + 1.0 + 3.0 * max_iter) for K in {k for _, k in _LOBE_LADDER}}
    for M, K in _LOBE_LADDER:
        K_B = K + 1.0 + 3.0 * max_iter
        rho_lo = rho_los[K]  # one bisection per K of the ladder, not per (M, K)
        if rho_lo is None:
            continue
        if m * absa[-1] <= np.dot(ks[:-1] * absa[:-1], rho_lo ** (m - ks[:-1])):
            continue
        eta = 32 * (m + 2) * _U * float(np.dot(ks * absa, rho_lo ** -ks)) + 2 * _U * K
        M_B = M - eta
        if eta > 1.0 or M_B <= 0:
            continue
        # rho_hi: smallest r with upper(r) <= M_B
        lo, hi = rho_lo, max((m * absa[k] / M_B) ** (1 / (k + 1)) for k in range(m))
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if upper(mid) <= M_B else (mid, hi)
        rho_hi = hi
        F_min = 2 * abs(F[0]) - npp.polyval(rho_hi, Fa)  # |F(w)| on |w| <= rho_hi
        if rho_hi <= rho_lo or abs(z0) + rho_hi > R * (1 - 1e-9) or F_min <= 0:
            continue
        delta = (abs(t[0] - z0) + err[0] + npp.polyval(rho_hi, [0.0] + err[1:])
                 + horner_error(P, abs(z0) + rho_hi))
        u_lo = rho_lo * F_min - delta
        if u_lo <= 0:
            continue
        E = (delta * lip_phi(u_lo)
             + np.dot(np.abs(N[:m + 1]) + N_err[:m + 1], rho_lo ** (np.arange(m + 1) - m))
             / F_min ** m)

        def may_meet(w, s, M_B=M_B, K_B=K_B, rho_lo=rho_lo, rho_hi=rho_hi):
            """False where the disk D(w, s) surely misses B."""
            r = np.abs(w)
            out = (r - s <= rho_hi) & (r + s >= rho_lo)
            far = np.flatnonzero(out & (r > 2 * s))
            w, r = w[far], r[far]
            phi = _laurent(a, 1.0 / w)
            slack = lip_phi(np.maximum(r - s, s)) * s + 1e-9 * (1.0 + np.abs(phi))
            out[far] = (phi.real + slack >= M_B) & (np.abs(phi) - slack <= K_B)
            return out

        # D on a cover of B by boxes of side h, from its value at the box
        # centre and bounds on Nt, F and their derivatives over the box
        h = rho_hi / 32
        x = (np.arange(-32, 32) + 0.5) * h
        w = (x[np.newaxis, :] + 1j * x[:, np.newaxis]).ravel()
        s = h / math.sqrt(2.0)
        w = w[may_meet(w, s)]
        r = np.abs(w) + s
        Fb = np.abs(npp.polyval(w, F)) - s * npp.polyval(r, dF)
        if w.size and Fb.min() <= 0:
            continue
        D = npp.polyval(w, Nt) / npp.polyval(w, F) ** m
        spread = (s * (npp.polyval(r, dNt) / Fb ** m
                       + m * npp.polyval(r, np.abs(Nt) + Nt_err) * npp.polyval(r, dF)
                       / Fb ** (m + 1))
                  + npp.polyval(r, Nt_err) / Fb ** m + 1e-9 + E)
        if w.size == 0 or ((1 + D).real - spread).min() < 0.25 \
                or (np.abs(1 + D) + spread).max() > 3:
            continue
        if clear(z0, rho_hi, lambda x, s: may_meet(x - z0, s)):
            return [(z0, a, M, K, rho_hi)]
    return []


def interior_trap(P: Polynomial, max_iter: int, raster: Optional[PixelRaster] = None,
                  avoid: int = 0, stay_in: int = 0) -> InteriorTrap:
    """The certified trap of a pixel sweep of P with budget max_iter.

    Disks at the attracting cycles and lobes at the parabolic fixed points
    found by `P.critical_cycles`.  Every float orbit entering the trap stays,
    for max_iter steps, bounded by the escape radius and at least one pixel
    away from the pixels of `raster` with the bit `avoid` set and from those
    without the bit `stay_in` (the window's outside included); a zero bit
    asks nothing.  Parabolic cycles of period > 1, irrationally neutral
    cycles and cycles that do not certify contribute nothing; with nothing
    certified the trap is empty.
    """
    def clear(center, radius, may_meet):
        return all(_clear_of(raster, bit, inside, center, radius, may_meet)
                   for bit, inside in ((avoid, False), (stay_in, True)) if bit)

    disks, lobes = [], []
    for cycle in P.critical_cycles:
        if cycle.kind == "attracting":
            disks += _attracting_disks(P, cycle, clear)
        else:
            lobes += _parabolic_lobes(P, cycle, max_iter, clear)
    return InteriorTrap(tuple(disks), tuple(lobes))


@dataclass
class EscapeAnalysis:
    kp: Mask
    avoiding: Optional[Mask]
    esc_steps: np.ndarray  # uint16, 0 = bounded within budget


def escape_analysis(P: Polynomial, grid: GridSpec, max_iter: int, *,
                    raster: Optional[PixelRaster] = None,
                    trap: Optional[InteriorTrap] = None, threads: int = 1,
                    supersample: int = 1) -> EscapeAnalysis:
    """One sweep classifying pixels: escape step, and wedge-orbit hits.

    Pixel centers are iterated; a pixel belongs to the avoiding set when it
    neither escapes within the budget (|P^k(z)| > R for some k in
    1 .. max_iter, which sets its escape step to k) nor has an iterate
    P^k(z), k in 0 .. max_iter - 1, on a True pixel of `raster` (the
    family's `wedge_raster`).  Without a raster there is no avoiding mask.

    The sweep retires the pixels that enter `interior_trap(P, max_iter,
    raster, avoid=1)`, or `interior_trap(P, max_iter)` without a raster (see
    `sweep_pixels`), which a caller running several sweeps of one raster
    passes as `trap` to build it once: the trap certifies that
    the rest of such an orbit stays bounded and at least a raster pixel away
    from every wedge, so their escape step (0) and wedge bits are exactly
    those of the full loop.
    """
    if supersample not in (1, 2):
        raise ValueError("supersample must be 1 or 2")
    work = grid.subdivide(supersample) if supersample == 2 else grid
    n = work.resolution
    R = P.escape_radius
    esc = np.zeros(n * n, dtype=np.uint16)
    hit = np.zeros(n * n, dtype=bool)

    def step(z, idx, it, buf):
        if raster is not None:
            hit[idx[raster.lookup(z, buf.mod)]] = True
        np.abs(P(z, out=buf.out), out=buf.mod)
        keep = np.less_equal(buf.mod, R, out=buf.keep)  # False beyond R, at inf and at NaN
        if not keep.all():
            esc[idx[~keep]] = it
        return keep

    if trap is None:
        trap = interior_trap(P, max_iter, raster, avoid=1 if raster is not None else 0)
    sweep_pixels(work, max_iter, step, threads, trap)
    esc, hit = esc.reshape(n, n), hit.reshape(n, n)

    def mask(bits):
        return Mask(grid, _downsample_majority(bits) if supersample == 2 else bits)

    kp = esc == 0
    if raster is not None:  # the avoiding bits, kp & ~hit, in hit's own buffer
        np.logical_and(kp, np.logical_not(hit, out=hit), out=hit)
    return EscapeAnalysis(mask(kp), mask(hit) if raster is not None else None,
                          esc[::supersample, ::supersample])


def _downsample_majority(bits: np.ndarray) -> np.ndarray:
    q = (bits[0::2, 0::2].astype(np.uint8) + bits[0::2, 1::2]
         + bits[1::2, 0::2] + bits[1::2, 1::2])
    return q >= 2


def dilate(bits: np.ndarray, iterations: int) -> np.ndarray:
    """3x3 binary dilation repeated `iterations` times, zero outside the
    array: `scipy.ndimage.binary_dilation` with an all-ones 3x3 structure."""
    for _ in range(iterations):
        p = np.pad(bits, 1)
        rows = p[:, :-2] | p[:, 1:-1] | p[:, 2:]
        bits = rows[:-2] | rows[1:-1] | rows[2:]
    return bits


def erode(bits: np.ndarray, border_value: bool) -> np.ndarray:
    """3x3 binary erosion with `border_value` outside the array:
    `scipy.ndimage.binary_erosion` with an all-ones 3x3 structure."""
    p = np.pad(bits, 1, constant_values=border_value)
    rows = p[:, :-2] & p[:, 1:-1] & p[:, 2:]
    return rows[:-2] & rows[1:-1] & rows[2:]


def count_components(bits: np.ndarray) -> int:
    """Number of 8-connected components of a 2-D bool array."""
    return _count_strips((bits[i:i + STRIP_ROWS] for i in range(0, len(bits), STRIP_ROWS)),
                         bits.shape[1])


def _count_strips(strips, w: int) -> int:
    """`count_components` of the array whose consecutive row strips, each w
    wide, are `strips`: a run-based two-scan count (He, Chao & Suzuki, IEEE
    Trans. Image Process. 17(5), 2008).  The runs of each row come from the
    flat strip with one False appended to every row, its nonzero differences
    alternately a run's start and exclusive end, at the flat positions
    k = row * (w + 1) + column of the whole array.  Run a touches run b of
    the next row when a.start <= b.end and b.start <= a.end; those b form
    the index range [lo, hi) of two searchsorted calls.  The runs are then
    merged by root hooking: each round hangs the larger root of every edge
    that still joins two trees under the smallest root it meets, then jumps
    pointers until every run points at its root.  A tree that merges with
    none in one round is the larger end of an edge in the next, so every
    tree merges within two rounds and the rounds are O(log runs).
    """
    runs, k = [np.zeros(0, np.intp)], 0
    for strip in strips:
        flat = np.zeros((len(strip), w + 1), dtype=np.int8)
        flat[:, :w] = strip
        runs.append(np.flatnonzero(np.diff(flat.ravel(), prepend=np.int8(0))) + k)
        k += flat.size
    runs = np.concatenate(runs)
    starts, ends = runs[::2], runs[1::2]
    lo = np.searchsorted(ends, starts + (w + 1), side="left")
    hi = np.searchsorted(starts, ends + (w + 1), side="right")
    touch = np.maximum(hi - lo, 0)
    # one edge (a, b) for each run a and each b in [lo[a], hi[a])
    a = np.repeat(np.arange(starts.size), touch)
    b = np.arange(a.size) - np.repeat(np.cumsum(touch) - touch - lo, touch)
    root = np.arange(starts.size)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            return int(np.count_nonzero(root == np.arange(starts.size)))
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped


def connected_components(mask: Mask) -> int:
    """Number of 8-connected components after one radius-1 closing pass (3x3
    square); thin cusps alias at finite resolution and would spuriously
    disconnect.  The closing is taken, and counted, STRIP_ROWS rows at a
    time, each strip's from two more rows of the mask on either side."""
    bits, h = mask.bits, len(mask.bits)

    def closed(i0):
        i1, a = min(i0 + STRIP_ROWS, h), max(i0 - 2, 0)
        return erode(dilate(bits[a:i1 + 2], 1), False)[i0 - a:i1 - a] | bits[i0:i1]

    return _count_strips(map(closed, range(0, h, STRIP_ROWS)), bits.shape[1])


@dataclass
class MaskComparison:
    agreement: float
    symdiff_outside_band: int
    pixels_outside_band: int

    @property
    def agreement_outside_band(self) -> float:
        """nan when the band covers every pixel: nothing was compared."""
        if self.pixels_outside_band == 0:
            return math.nan
        return 1.0 - self.symdiff_outside_band / self.pixels_outside_band


def compare_masks(a: Mask, b: Mask, band: int = 0) -> MaskComparison:
    """Agreement fraction plus the symmetric difference away from boundaries.

    Pixels within `band` of either mask's boundary are excluded from the
    strict count.
    """
    if a.grid != b.grid:
        raise GridMismatch("masks live on different grids")
    diff = a.bits ^ b.bits
    agreement = 1.0 - diff.mean()
    if band > 0:
        outside = ~dilate(_boundary(a.bits) | _boundary(b.bits), band)
    else:
        outside = np.ones_like(diff)
    return MaskComparison(float(agreement), int((diff & outside).sum()),
                          int(outside.sum()))


def _boundary(bits: np.ndarray) -> np.ndarray:
    return bits & ~erode(bits, True)
