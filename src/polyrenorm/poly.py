"""Monic polynomial dynamics: iteration, escape, critical points, cycles,
potential and the inverse Boettcher series.

`cycle_through` polishes a point onto its cycle and classifies it for every
caller; `return_petals` reads a cycle's petals off its return map;
`terminal_point` gives a rational ray's exact landing point and cycle.

The scalar path runs on Python complex; numpy is imported inside the array
code (companion roots, the cycle census, the return-map series, P and P' on
arrays, the inverse Boettcher series on arrays as CPython rounds it)."""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import NonConvergence, RenormError

if TYPE_CHECKING:
    import numpy as np

MONIC_TOL = 1e-12
CYCLE_RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-7
# Candidates this close to a lower-period orbit are attributed to it: near a
# parabolic point the cancellation noise floor of P^n(z) - z leaves Newton
# stranded on a shell of radius about (eps/|c|)^(1/3), well inside this.
LOWER_PERIOD_TOL = 2e-5
KIND_TOL = 1e-6
MAX_UNITY_ORDER = 64
MAX_PETALS = 12  # parabolic points with more petals get no trap and no petal directions
MAX_CENSUS_POINTS = 10**4  # find_cycles' bound on d^n: an Aberth sweep costs O(d^2n)
ORBIT_HUGE = 1e200  # _newton_ratios stops an orbit before its image passes this
# critical_cycles: iterates before looking for a cycle, and the longest lag
CRITICAL_ORBIT_STEPS = 2000
CRITICAL_ORBIT_MAX_LAG = 64
NEWTON_STEPS = 400  # newton's bound on steps; its noise-floor stop ends it first
ABERTH_SWEEPS = 200  # _aberth's bound on sweeps


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _horner(cs: Sequence[complex], z, out=None):
    """Horner's rule, `w = w * z + c` from the leading coefficient down; a
    number takes the scalar loop, an array is evaluated in place on one
    buffer: `out` (not z itself) when given, else a new array."""
    if isinstance(z, complex) or not getattr(z, "ndim", 0):
        w = cs[-1]
        for c in reversed(cs[:-1]):
            w = w * z + c
        return w
    import numpy as np
    w = np.empty(z.shape, dtype=np.result_type(z, complex)) if out is None else out
    w.fill(cs[-1])
    for c in reversed(cs[:-1]):
        w *= z
        w += c
    return w


def complex_mul(ar, ai, br, bi):
    """CPython's complex product on real arrays, so the same bits; numpy's
    own complex ops may round differently."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_div(ar, ai, br, bi):
    """CPython's complex quotient (`_Py_c_quot`, Smith's method) on real
    arrays.  Its branch for |b.imag| > |b.real| is the other one applied to
    (-i*a)/(-i*b), negation being exact."""
    import numpy as np
    by_real = np.abs(br) >= np.abs(bi)
    u, v = np.where(by_real, br, bi), np.where(by_real, bi, -br)
    x, y = np.where(by_real, ar, ai), np.where(by_real, ai, -ar)
    ratio = v / u
    denom = u + v * ratio
    return (x + y * ratio) / denom, (y - x * ratio) / denom


@dataclass(frozen=True)
class Polynomial:
    """A monic polynomial, coefficients stored constant term first.

    Degree must be at least 2 and the leading coefficient exactly 1 (callers
    normalize by affine conjugation beforehand).  `escape_radius` is a
    Cauchy-type bound: |P(z)| > |z| whenever |z| exceeds it.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if len(cs) < 3:
            raise ValueError("degree must be at least 2")
        if abs(cs[-1] - 1.0) > MONIC_TOL:
            raise ValueError("polynomial must be monic (leading coefficient 1)")
        for c in cs:
            if not _finite(c):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        # not dataclass fields: P' constant term first, and the fused pass's
        # pairs (c_k, k*c_k) from k = d-1 down to 1
        dcs = tuple(k * c for k, c in enumerate(cs))[1:]
        object.__setattr__(self, "deriv_coeffs", dcs)
        object.__setattr__(self, "horner_pairs", tuple(zip(cs[-2:0:-1], dcs[-2::-1])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def escape_radius(self) -> float:
        return max(2.0, 1.0 + sum(abs(c) for c in self.coeffs[:-1]))

    def __call__(self, z, out=None):
        """P(z); an array's values go into `out` when given (see `_horner`)."""
        return _horner(self.coeffs, z, out)

    @cached_property
    def inverse_bottcher(self) -> InverseBottcher:
        """The Laurent series of P's inverse Boettcher map, built on first use
        and extended in place, so every caller on this P shares it."""
        return InverseBottcher(self)

    @cached_property
    def bounded_square(self) -> tuple[complex, float]:
        """The square of P's coarse bounded pixels that every covering window
        starts from (`avoiding.bounded_square`), swept once per polynomial."""
        from .avoiding import bounded_square
        return bounded_square(self)

    @cached_property
    def critical_cycles(self) -> tuple[Cycle, ...]:
        """The attracting and parabolic cycles, found from the critical
        orbits once per polynomial.

        By Fatou's theorem each such cycle attracts a critical point, so no
        cycle census is needed.  After CRITICAL_ORBIT_STEPS iterates a bounded
        critical orbit that has settled near a cycle nearly repeats with some
        lag k <= CRITICAL_ORBIT_MAX_LAG (the period, times the rotation order
        of the multiplier at a parabolic cycle); Newton on P^n(z) - z from the
        last iterate, over the divisors n of k, then finds a cycle point.
        Neutral cycles with an irrational rotation are left out.
        """
        R = self.escape_radius
        found: list[Cycle] = []
        for c in critical_points(self):
            orbit = [c]
            for _ in range(CRITICAL_ORBIT_STEPS):
                orbit.append(self(orbit[-1]))
                if not abs(orbit[-1]) <= R:
                    break
            z = orbit[-1]
            if not abs(z) <= R or any(cyc.contains(z, 1e-2) for cyc in found):
                continue  # escaped, or settled near a cycle already found
            lag = next((k for k in range(1, CRITICAL_ORBIT_MAX_LAG + 1)
                        if abs(z - orbit[-1 - k]) < 1e-3 * max(1.0, abs(z))), 0)
            for n in (n for n in range(1, lag + 1) if lag % n == 0):
                cyc = cycle_through(self, z, n)
                if cyc is not None and cyc.kind in ("attracting", "parabolic"):
                    found.append(cyc)
                    break
        return tuple(found)

    def deriv(self, z):
        return _horner(self.deriv_coeffs, z)

    def value_and_deriv(self, z: complex) -> tuple[complex, complex]:
        """(P(z), P'(z)) at a scalar z in one Horner pass (Knuth, TAOCP 2,
        4.6.4): the operations of `P(z)` and `P.deriv(z)` in their order, so
        both values are bit-equal to those."""
        p, dp = self.coeffs[-1], self.deriv_coeffs[-1]
        for c, dc in self.horner_pairs:
            p = p * z + c
            dp = dp * z + dc
        return p * z + self.coeffs[0], dp

    def taylor(self, z0: complex) -> list[complex]:
        """Taylor coefficients of w -> P(z0 + w), constant term first, by
        repeated synthetic division."""
        a = list(self.coeffs)
        out = []
        while a:
            # Horner at z0: the partial sums are the deflated coefficients,
            # the last one is the value
            new, carry = [], 0j
            for c in reversed(a):
                carry = carry * z0 + c
                new.append(carry)
            out.append(new.pop())
            a = new[::-1]
        return out

    def iterate(self, z: complex, n: int) -> complex:
        for _ in range(n):
            z = self(z)
        return z

    def iterate_with_deriv(self, z: complex, n: int) -> tuple[complex, complex]:
        """(P^n(z), (P^n)'(z)) by the chain rule."""
        dz = 1.0 + 0.0j
        for _ in range(n):
            z, dp = self.value_and_deriv(z)
            dz *= dp
        return z, dz

    def preimages(self, w: complex) -> np.ndarray:
        """All d solutions of P(z) = w, as companion-matrix roots."""
        import numpy as np
        arr = np.array(self.coeffs[::-1], dtype=complex)
        arr[-1] -= w
        return np.roots(arr)

    def preimage_near(self, w: complex, seed: complex) -> tuple[complex, complex]:
        """(z, P'(z)) for the solution z of P(z) = w that Newton reaches from
        seed.  Steps inline `value_and_deriv` (a call per step costs a fifth
        of a solve); P'(z) is one more pass at the returned z."""
        top, dtop, c0 = self.coeffs[-1], self.deriv_coeffs[-1], self.coeffs[0]
        pairs = self.horner_pairs
        z = seed
        for _ in range(40):
            p, dp = top, dtop
            for c, dc in pairs:
                p = p * z + c
                dp = dp * z + dc
            if dp == 0:
                break
            step = (p * z + c0 - w) / dp
            z = z - step
            if abs(step) <= 1e-14 * max(1.0, abs(z)):
                dp = dtop
                for _, dc in pairs:
                    dp = dp * z + dc
                return z, dp
        # Newton degenerates when the preimage sits near a critical point; the
        # companion matrix solves the full fiber and the seed picks the branch.
        roots = [complex(r) for r in self.preimages(w)]
        if not all(map(_finite, roots)):
            raise NonConvergence(f"preimage solve failed for target {w:.6g}")
        z = min(roots, key=lambda r: abs(r - seed))
        return z, self.deriv(z)


class EscapeResult(NamedTuple):
    escaped: bool
    steps: int
    final: complex


def escape_time(P: Polynomial, z: complex, max_iter: int) -> EscapeResult:
    """Iterate z and report whether some iterate left the escape radius.

    The overflow guard retires orbits once |z| > 10 R; by then escape is
    already certain.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    R = P.escape_radius
    for k in range(1, max_iter + 1):
        z = P(z)
        if abs(z) > R:
            return EscapeResult(True, k, z)
    return EscapeResult(False, max_iter, z)


def newton(fdf, z: complex, bail: float = math.inf) -> complex | None:
    """A root of f by Newton's method from z, where fdf(z) = (f(z), f'(z)).

    Stops at the first step that is no shorter than the one before it and
    returns the iterate before that step: past that point the steps are
    rounding noise of f (Kahan's stop; Traub, *Iterative Methods for the
    Solution of Equations*, 1964, ch. 7).  At a multiple root the steps
    shrink only linearly, to the same noise floor.  None on a non-finite f,
    on f' = 0 off a root, or on an iterate with |z| > bail.
    """
    last = math.inf
    for _ in range(NEWTON_STEPS):
        f, df = fdf(z)
        if not _finite(f):
            return None
        if f == 0:
            return z
        if df == 0:
            return None
        step = f / df
        if not abs(step) < last:
            return z
        last, z = abs(step), z - step
        if not abs(z) <= bail:
            return None
    return z


def horner_error(P: Polynomial, x: float) -> float:
    """Bound on |fl(P(z)) - P(z)| for |z| <= x under the in-place Horner of
    `Polynomial.__call__`: d complex products, each within sqrt(2)*gamma_2 of
    exact, and d sums, each within u; 8 d u covers both with room."""
    return 8 * P.degree * 2.0**-53 * sum(abs(c) * x**k for k, c in enumerate(P.coeffs))


def newton_preperiodic(P: Polynomial, z: complex, preperiod: int, period: int,
                       bail: float = math.inf) -> complex | None:
    """`newton` from z on P^(l+p)(w) - P^l(w), l = preperiod and p = period,
    with P^l, P^(l+p) and both derivatives from one chain-rule pass.  At a
    multiple root the steps stop on a noise shell (`terminal_point` then
    finds the exact point)."""
    def fdf(w):
        b, db = P.iterate_with_deriv(w, preperiod)
        a, da = b, db
        for _ in range(period):
            a, dp = P.value_and_deriv(a)
            da *= dp
        return a - b, da - db

    return newton(fdf, z, bail)


def _aberth(cs: Sequence[complex]) -> list[complex]:
    """All roots of sum cs[k] z^k (constant term first, leading term non-zero),
    with multiplicity, by Aberth-Ehrlich iteration on Python complex (Aberth
    1973; Bini, Numer. Algorithms 13, 1996).

    Trailing zero coefficients give exact zero roots.  The rest start on a
    circle of radius |c_0/c_n|^(1/n), turned off the axes, and sweep
    Gauss-Seidel until every step is below 1e-14 of its root's size; at a
    multiple root the steps shrink only linearly, to its noise shell, within
    ABERTH_SWEEPS sweeps.
    """
    zeros = 0
    while cs[zeros] == 0:
        zeros += 1
    cs = list(cs[zeros:])
    n = len(cs) - 1
    dcs = [k * c for k, c in enumerate(cs)][1:]
    radius = abs(cs[0] / cs[-1]) ** (1.0 / n) if n else 0.0
    z = [cmath.rect(radius, 2.0 * math.pi * k / n + 0.4) for k in range(n)]
    for _ in range(ABERTH_SWEEPS):
        moving = False
        for i, zi in enumerate(z):
            p = _horner(cs, zi)
            if p == 0:
                continue
            denom = _horner(dcs, zi) - p * sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
            if denom == 0:
                continue
            step = p / denom
            z[i] = zi - step
            moving |= abs(step) > 1e-14 * max(1.0, abs(z[i]))
        if not moving:
            break
    return [0j] * zeros + z


def critical_points(P: Polynomial) -> list[complex]:
    """The d-1 roots of P', with multiplicity.

    `_aberth` roots polished by `newton`; multiple roots keep the Aberth
    value (Newton stalls there but the cluster is already accurate).  Each
    root must leave |P'(r)| within 1e-8 times sum k |c_k| |r|^(k-1), the
    scale of its evaluation, else NonConvergence.  Python complex throughout,
    so `polyrenorm ray` needs no numpy for it.
    """
    dcs = P.deriv_coeffs
    d2cs = [k * (k - 1) * c for k, c in enumerate(P.coeffs)][2:]  # of P''
    scale_cs = [abs(c) for c in dcs]
    out = []
    for r in _aberth(dcs):
        polished = newton(lambda z: (P.deriv(z), _horner(d2cs, z)), r)
        if polished is not None and abs(P.deriv(polished)) <= abs(P.deriv(r)):
            r = polished
        out.append(r)
    out.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    bad = [r for r in out if abs(P.deriv(r)) > 1e-8 * _horner(scale_cs, abs(r))]
    if bad:
        res = ", ".join(f"{r:.3g} (|P'|={abs(P.deriv(r)):.2e})" for r in bad)
        raise NonConvergence(f"critical point polish failed: {res}")
    return out


@dataclass(frozen=True)
class Cycle:
    """One full periodic orbit with its multiplier and stability type."""

    points: tuple[complex, ...]
    period: int
    multiplier: complex
    kind: str  # attracting | repelling | parabolic | neutral-irrational

    def contains(self, z: complex, tol: float) -> bool:
        return any(abs(z - p) <= tol for p in self.points)


def unity_order(lam: complex) -> Optional[int]:
    """The least order q <= MAX_UNITY_ORDER of a root of unity within
    KIND_TOL of lam, or None."""
    arg = cmath.phase(lam) / (2 * math.pi)
    for q in range(1, MAX_UNITY_ORDER + 1):
        if abs(lam - cmath.exp(2j * math.pi * round(arg * q) / q)) < KIND_TOL:
            return q
    return None


def classify_multiplier(lam: complex) -> str:
    m = abs(lam)
    if m < 1.0 - KIND_TOL:
        return "attracting"
    if m > 1.0 + KIND_TOL:
        return "repelling"
    return "neutral-irrational" if unity_order(lam) is None else "parabolic"


def _newton_ratios(P: Polynomial, z: np.ndarray, n: int) -> np.ndarray:
    """(P^n(z) - z) / ((P^n)'(z) - 1), by iterating P.

    An orbit w = P^k(z) whose image would pass ORBIT_HUGE stops there: P^n
    agrees with w^(d^(n-k)) to working precision, with ratio
    w / (d^(n-k) (P^k)'(z)).  Iterating on would overflow, and one inf or NaN
    poisons every root through Aberth's pairwise sum.
    """
    import numpy as np
    d, out, idx = P.degree, np.empty_like(z), np.arange(z.size)
    huge = ORBIT_HUGE ** (1.0 / d)
    w, dw = z.copy(), np.ones_like(z)
    for k in range(n + 1):
        big = ~(np.abs(w) <= huge)
        if big.any():
            out[idx[big]] = w[big] / (dw[big] * float(d) ** (n - k))
            idx, w, dw = idx[~big], w[~big], dw[~big]
        if k < n:
            dw *= P.deriv(w)
            w = P(w)
    out[idx] = (w - z[idx]) / (dw - 1.0)
    return out


def _periodic_roots(P: Polynomial, n: int) -> np.ndarray:
    """All d^n roots of P^n(z) - z, with multiplicity, by Aberth-Ehrlich
    iteration (Aberth 1973; Bini & Fiorentino, Numer. Algorithms 23, 2000).

    It starts from P^-n of a far point: d^n points near the Julia set, where
    the periodic points lie (from a wide circle it needs about d^n sweeps).
    Sweeps run Gauss-Seidel over blocks of 32 roots; a root stops once its
    step is below 1e-14 of its size.  At a multiple root (a parabolic cycle)
    roots converge only linearly, to a noise shell, within 500 sweeps.
    """
    import numpy as np
    z = np.array([P.escape_radius * cmath.exp(0.7757j)])  # off the real axis
    for _ in range(n):
        z = np.concatenate([P.preimages(w) for w in z])
    active = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(500):
            moving = np.zeros(z.size, dtype=bool)
            ratios = _newton_ratios(P, z[active], n)
            for b in range(0, active.size, 32):
                rows, r = active[b:b + 32], ratios[b:b + 32]
                diff = z[rows, None] - z
                diff[np.arange(rows.size), rows] = np.inf  # no self term
                step = r / (1.0 - r * np.reciprocal(diff, out=diff).sum(axis=1))
                step[~np.isfinite(step)] = 0.0
                moving[rows] = np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(z[rows]))
                z[rows] -= step
            active = np.flatnonzero(moving)
            if not active.size:
                break
    return z


def _near(z: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Whether each z lies within tol of some point, by real-part windows."""
    import numpy as np
    p = np.sort_complex(points)
    lo, hi = np.searchsorted(p.real, np.stack([z.real - tol, z.real + tol]))
    hit = np.zeros(z.size, dtype=bool)
    for k in range(int((hi - lo).max(initial=0))):
        sel = np.flatnonzero(lo + k < hi)
        hit[sel] |= np.abs(z[sel] - p[lo[sel] + k]) <= tol
    return hit


def find_cycles(P: Polynomial, max_period: int) -> list[Cycle]:
    """All distinct cycles of period <= max_period.

    Per period n each of the d^n roots of P^n(z) - z is polished by `newton`
    to its noise floor; the first root of each orbit of minimal period n
    starts a cycle, orbits deduplicated to DEDUP_TOL.  Every root must lie
    within LOWER_PERIOD_TOL of a point of a cycle whose period divides n.
    """
    import numpy as np
    if P.degree**max_period > MAX_CENSUS_POINTS:
        raise RenormError(f"cycle census: d^n = {P.degree}^{max_period} exceeds "
                          f"the bound MAX_CENSUS_POINTS = {MAX_CENSUS_POINTS}")
    cycles: list[Cycle] = []
    for n in range(1, max_period + 1):
        roots = _periodic_roots(P, n)
        polished = (_newton_cycle_point(P, n, complex(r)) for r in roots)
        z = np.array([math.nan if p is None else p for p in polished], dtype=complex)
        # minimal period among divisors of n; cycles of smaller diameter
        # than the parabolic noise shell go to the lower period
        free, w = np.isfinite(z), z
        for k in range(1, n):
            w = P(w)
            free &= (n % k != 0) | ~(np.abs(w - z) < LOWER_PERIOD_TOL)
        free = np.flatnonzero(free)
        while free.size:
            # cycle_through polishes roots[free[0]] again, to z[free[0]]
            cycles.append(cycle_through(P, complex(roots[free[0]]), n))
            free = free[~_near(z[free], np.array(cycles[-1].points), DEDUP_TOL)]
        divisors = np.array([p for c in cycles if n % c.period == 0 for p in c.points])
        missed = int((~_near(roots, divisors, LOWER_PERIOD_TOL)).sum())
        if missed:
            raise RenormError(f"cycle census: period {n}: {missed} of {roots.size} roots "
                              "of P^n(z) - z lie on no cycle found")
    cycles.sort(key=lambda c: (c.period, round(min(p.real for p in c.points), 9),
                               round(min(p.imag for p in c.points), 9)))
    return cycles


def _newton_cycle_point(P: Polynomial, n: int, z: complex) -> complex | None:
    """`newton_preperiodic` on P^n(z) - z; None if it fails, bails past 3R
    or leaves a residual of CYCLE_RESIDUAL_TOL or more.

    Near a parabolic point the residual is tiny on a whole shell; the polish
    runs on to the noise floor, which slides such candidates into the actual
    periodic point (where the minimal-period filter then discards them).
    """
    z = newton_preperiodic(P, z, 0, n, bail=3.0 * P.escape_radius)
    if z is None:
        return None
    zn, _ = P.iterate_with_deriv(z, n)
    return z if abs(zn - z) < CYCLE_RESIDUAL_TOL else None


def cycle_through(P: Polynomial, z: complex, n: int) -> Optional[Cycle]:
    """The cycle through the point `_newton_cycle_point` polishes z to on
    P^n(w) - w, listed from that point, with the multiplier of P^n there and
    its kind; None where the polish fails.  The period recorded is n, which
    the cycle's own period divides."""
    p = _newton_cycle_point(P, n, z)
    if p is None:
        return None
    _, lam = P.iterate_with_deriv(p, n)
    return Cycle(tuple(P.iterate(p, k) for k in range(n)), n, lam, classify_multiplier(lam))


def terminal_point(P: Polynomial, est: complex, preperiod: int,
                   period: int) -> Optional[tuple[complex, Cycle]]:
    """(z, cycle) with z near est, P^l(z) on the cycle and its period
    dividing p, l = preperiod and p = period: where a rational ray of that
    preperiod and period lands (Milnor, *Dynamics in One Complex Variable*,
    §18); None where no cycle is found.

    The cycle is `cycle_through` P^l(est) for the least divisor n of p whose
    cycle passes within 1e-5 of P^l(est), so its point is a simple root of
    P^n(z) - z, found to rounding, unless the multiplier is 1.  It is pulled
    back along est's orbit by `newton` on P(w) - t.  Newton stops on a noise
    shell at a multiple root, so a result w next to a critical point c with
    P(c) = t within `horner_error` (err) becomes c when |P'(w)(w - c)| <=
    d (|P(w) - t| + 2 err), as P'(w)(w - c) ~ m (P(w) - P(c)) at c's
    multiplicity m <= d.
    """
    orbit = [est]
    for _ in range(preperiod):
        orbit.append(P(orbit[-1]))
    w = orbit.pop()
    cycles = (cycle_through(P, w, n) for n in range(1, period + 1) if period % n == 0)
    cyc = next((c for c in cycles if c is not None and c.contains(w, tol=1e-5)), None)
    if cyc is None:
        return None
    z, crit = cyc.points[0], critical_points(P) if orbit else []
    for seed in reversed(orbit):
        t, z = z, newton(lambda v, t=z: (P(v) - t, P.deriv(v)), seed)
        w = seed if z is None else z
        c = min(crit, key=lambda c: abs(c - w))
        err = horner_error(P, abs(c))
        if (abs(P(c) - t) <= err
                and abs(P.deriv(w) * (w - c)) <= P.degree * (abs(P(w) - t) + 2 * err)):
            z = c
        if z is None:
            return None
    return z, cyc


def return_petals(taylors: Sequence[Sequence[complex]], q: int) -> Optional[tuple[int, complex]]:
    """(k, A) with g^q(w) - w = A w^(k+1) + ... for the return map g =
    f_(n-1) o ... o f_0 of a cycle p_0, ..., p_(n-1); None past MAX_PETALS.

    taylors[j] holds the Taylor coefficients of P at p_j (`P.taylor`), so
    f_j(w) = P(p_j + w) - p_(j+1) = w F_j(w) with F_j from taylors[j][1:];
    the constant terms, zero on the cycle, are ignored.  Each f_j is
    composed by Horner's rule on F_j, truncated past w^(MAX_PETALS+1), in
    orbit order, q times over.  Coefficients within 1e-8 of the Taylor scale
    max(1, |taylors[j][i]|) are rounding and read as 0.  At a parabolic
    cycle with multiplier a primitive q-th root of unity, there are k petals
    at p_0 (Milnor, *Dynamics in One Complex Variable*, §10).
    """
    import numpy as np
    from numpy.polynomial import polynomial as npp
    order = MAX_PETALS + 2
    s = np.array([0, 1], dtype=complex)
    for _ in range(q):
        for t in taylors:
            F = np.array(t[1:], dtype=complex)
            acc = np.array([F[-1]])
            for c in F[-2::-1]:
                acc = npp.polymul(acc, s)[:order]
                acc[0] += c
            s = npp.polymul(acc, s)[:order]
    tol = 1e-8 * max(1.0, *(abs(c) for t in taylors for c in t[1:]))
    big = np.flatnonzero(~(np.abs(s[2:]) <= tol))
    return None if big.size == 0 else (int(big[0]) + 1, complex(s[big[0] + 2]))


def green_potential(P: Polynomial, z: complex) -> float:
    """Green potential G of the basin of infinity; 0 on bounded orbits.

    For escaping z the limit log|P^n z| / d^n is refined until two successive
    estimates agree to 1e-13 (well under the documented 1e-12 contract).
    """
    R = P.escape_radius
    d = P.degree
    # P(z) inline: `_horner`'s operations in its order, so the same bits
    top, rest = P.coeffs[-1], P.coeffs[-2::-1]
    z = complex(z)
    scale = 1.0  # d^n
    est = None
    for _ in range(4096):
        if abs(z) > R:
            cur = math.log(abs(z)) / scale
            if est is not None and abs(cur - est) < 1e-13:
                return cur
            est = cur
            if abs(z) > 1e80:
                return cur
        w = top
        for c in rest:
            w = w * z + c
        z = w
        scale *= d
    return 0.0 if est is None else est


class InverseBottcher:
    """The inverse Boettcher map psi = Phi^-1 of P near infinity, as a
    Laurent series psi(w) = w * sum_k s_k w^-k with s_0 = 1.

    The coefficients follow order by order from P(psi(w)) = psi(w^d)
    (Jungreis, Duke Math. J. 52, 1985; Ewing & Schober, Numer. Math. 61,
    1992), at O(d n^2) for n of them, and are extended on demand.  The series
    converges for |w| > R = exp(g_max), where g_max is the largest Green
    potential of a critical point (0 when the Julia set is connected).  The
    area theorem bounds |s_k| <= R^k / sqrt(k - 1), so they are kept scaled,
    sigma_k = s_k R^-k, and psi(w) = w * sum_k sigma_k x^k with x = R/w:
    `terms(g)` of them bring the truncation at |w| = e^g below 2^-53 of |w|.
    """

    def __init__(self, P: Polynomial):
        d = P.degree
        self.g_max = max(green_potential(P, c) for c in critical_points(P))
        self._R = R = math.exp(self.g_max)
        # the order-k equation in x: sum_j a_j R^(j-d) x^(d-j) S^j = S(x^d / R^(d-1))
        self._a = [c * R ** (j - d) for j, c in enumerate(P.coeffs[:-1])]
        self._r = R ** (1.0 / d - 1.0)
        self._sigma = [1 + 0j]
        self._powers = [[1 + 0j] for _ in range(d - 1)]  # S^2 .. S^d

    def terms(self, g: float) -> int:
        """Coefficients that bring the truncation at potential g > g_max below
        2^-53 relative: the tail is at most e^(-K delta) / (1 - e^-delta)."""
        delta = g - self.g_max
        return math.ceil((53.0 * math.log(2.0) - math.log1p(-math.exp(-delta))) / delta)

    def _scaled(self, n: int) -> list[complex]:
        """The first n scaled coefficients sigma_k, extending the list."""
        s, powers, a = self._sigma, self._powers, self._a
        d = len(powers) + 1
        for k in range(len(s), n):
            # [x^k] S^j for j = 2 .. d, with sigma_k still 0 (and s_0 = 1)
            prev = s
            for pw in powers:
                low = prev[k] if len(prev) > k else 0j
                pw.append(low + sum(map(operator.mul, s[1:k], reversed(prev[1:k])), 0j))
                prev = pw
            # sum_{j<d} a_j [x^(k-d+j)] S^j, where S^0 = 1 and S^1 = S
            rest = sum((a[j] * (powers[j - 2][k - d + j] if j > 1 else s[k - d + 1])
                        for j in range(max(1, d - k), d)), a[0] if k == d else 0j)
            rhs = s[k // d] * self._r ** k if k % d == 0 else 0j
            sk = (rhs - powers[-1][k] - rest) / d
            s.append(sk)
            for j, pw in enumerate(powers, start=2):
                pw[k] += j * sk
        return s[:n]

    def __call__(self, w, g: float):
        """psi(w) at |w| = e^g (g > g_max): a Python complex, or an array, each
        element bit-equal to that call (CPython's arithmetic, `complex_mul`)."""
        cs = self._scaled(self.terms(g))
        if isinstance(w, complex):
            return w * _horner(cs, self._R / w)
        import numpy as np
        xr, xi = complex_div(self._R, 0.0, w.real, w.imag)
        pr, pi = cs[-1].real, cs[-1].imag
        for c in reversed(cs[:-1]):
            pr, pi = complex_mul(pr, pi, xr, xi)
            pr += c.real
            pi += c.imag
        out = np.empty(w.shape, dtype=complex)
        out.real, out.imag = complex_mul(w.real, w.imag, pr, pi)
        return out

    def with_tangent(self, w: complex, g: float) -> tuple[complex, complex]:
        """(psi(w), w psi'(w)) at a scalar w with |w| = e^g, in one Horner pass:
        w psi'(w) = w (S(x) - x S'(x))."""
        cs = self._scaled(self.terms(g))
        x = self._R / w
        p, dp = cs[-1], 0j
        for c in reversed(cs[:-1]):
            dp = dp * x + p
            p = p * x + c
        return w * p, w * (p - x * dp)

    def with_tangents(self, w, g: Sequence[float]):
        """`with_tangent` at each w of an array with |w| = e^g, bit for bit,
        as ((psi.real, psi.imag), (w psi'.real, w psi'.imag)): one Horner
        pass on CPython's complex arithmetic (`complex_mul`), each point
        joining it at its own number of terms."""
        import numpy as np
        n = np.array([self.terms(gk) for gk in g], dtype=int)
        # most terms first, so the points still in the pass are a prefix
        order = np.argsort(-n, kind="stable")
        back = np.argsort(order)
        cs = np.array(self._scaled(int(n.max(initial=0))))
        n, wr, wi = n[order], w.real[order], w.imag[order]
        xr, xi = complex_div(self._R, 0.0, wr, wi)
        pr, pi = cs.real[n - 1], cs.imag[n - 1]
        dr, di = np.zeros_like(wr), np.zeros_like(wr)
        for k in range(cs.size - 2, -1, -1):
            a = np.count_nonzero(n >= k + 2)
            dr[:a], di[:a] = complex_mul(dr[:a], di[:a], xr[:a], xi[:a])
            dr[:a] += pr[:a]
            di[:a] += pi[:a]
            pr[:a], pi[:a] = complex_mul(pr[:a], pi[:a], xr[:a], xi[:a])
            pr[:a] += cs[k].real
            pi[:a] += cs[k].imag
        tr, ti = complex_mul(xr, xi, dr, di)
        tr, ti = complex_mul(wr, wi, pr - tr, pi - ti)
        pr, pi = complex_mul(wr, wi, pr, pi)
        return (pr[back], pi[back]), (tr[back], ti[back])
