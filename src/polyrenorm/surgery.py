"""The carrot modification: a quasi-regular degree-d_c replacement for P.

Inside the outer equipotential the map equals P except on the critical
carrots, where it is replaced by a boundary-respecting blend onto the image
carrot.  Beyond the equipotential an exterior cap interpolates, in
potential-angle coordinates, between the boundary trace of the modified map
and pure degree-d_c stretching, so the assembled map is a d_c-to-1 branched
cover of the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .avoiding import covering_window, interior_trap
from .bottcher import (Spine, bottcher_point, equipotential_points, equipotential_polyline,
                       external_angle)
from .carrots import Carrot, build_carrots, carrots_disjoint
from .cuts import CutFamily, check_legal
from .errors import CarrotOverlap, ContinuityGap, DegreeMismatch, RenormError
from .grid import Mask, Orbits, PixelRaster, sweep_pixels
from .poly import Polynomial, green_potential
from .scene import GridSpec

T0 = 1  # the exterior cap spans potentials g0 .. d**T0 * g0
SIDE_SAMPLES = 1000  # side-arc nodes checked against P
CAP_SAMPLES = 250  # angles checked for continuity across the outer equipotential
CRIT, U_RHO, U_RHO_D = 1, 2, 4  # the bits of `SurgeryMap.regions`


def _interp(arr: np.ndarray, t) -> np.ndarray:
    """Linear interpolation along a polyline by normalized parameter, at
    every entry of t."""
    m = len(arr) - 1
    x = np.clip(t, 0.0, 1.0) * m
    i = np.minimum(x.astype(int), m - 1)
    f = x - i
    return arr[i] * (1.0 - f) + arr[i + 1] * f


@dataclass
class CoonsPatch:
    """Interior extension over one critical carrot.

    The source carrot (which contains filled-set decorations and therefore
    has no global potential-angle chart) is parametrized by a transfinite
    blend of its boundary arcs: left = side_r from root to equipotential,
    right = side_l, top = the equipotential arc, bottom = the root point.

    The target is the image carrot; there the parametrization is analytic in
    potential-angle coordinates (radial coordinate matched to the source side
    ladder, angle affine between the two spiral sides), so patch images stay
    inside the image carrot by construction -- a plane blend would overshoot
    badly because image carrots wrap a macroscopic angle around the filled
    set.  On the boundary this reduces to P on the sides and to the
    angle-proportional correspondence on the arc.  The range is the image
    carrot minus its own decorations, which suffices for every escape-dynamics
    use of the modified map.
    """

    P: Polynomial
    src_left: np.ndarray   # root ... equip end (side_r)
    src_right: np.ndarray  # root ... equip end (side_l)
    src_top: np.ndarray    # side_r end ... side_l end
    tgt_left: np.ndarray   # image side nodes, for agreement checks
    tgt_right: np.ndarray
    tgt_g: np.ndarray      # radial coordinate: 0 (root) ... d*g0, per edge index
    tgt_th_r: float        # lifted angle of the image side through theta_r
    tgt_th_l: float
    tgt_root: complex

    @classmethod
    def build(cls, P: Polynomial, src: Carrot, tgt: Carrot) -> "CoonsPatch":
        n = min(len(src.side_r.points), len(tgt.side_r.points),
                len(src.side_l.points), len(tgt.side_l.points))
        # sides stored equip-first; edges run root -> equip
        src_left = np.concatenate([[src.cut.root], src.side_r.points[:n][::-1]])
        src_right = np.concatenate([[src.cut.root], src.side_l.points[:n][::-1]])
        tgt_left = np.concatenate([[tgt.cut.root], tgt.side_r.points[:n][::-1]])
        tgt_right = np.concatenate([[tgt.cut.root], tgt.side_l.points[:n][::-1]])
        tgt_g = np.concatenate([[0.0], tgt.side_r.potentials[:n][::-1]])
        th_r = tgt.cut.theta_r.as_float()
        th_l = th_r + float(tgt.cut.arc_width())
        return cls(P, src_left, src_right, src.equip_arc,
                   tgt_left, tgt_right, tgt_g, th_r, th_l, tgt.cut.root)

    def phi_src(self, s, t) -> np.ndarray:
        """The source blend at the broadcast pairs (s, t)."""
        top = self.src_top
        L = _interp(self.src_left, t)
        R = _interp(self.src_right, t)
        T = _interp(top, s)
        return (1 - s) * L + s * R + t * (T - (1 - s) * top[0] - s * top[-1])

    @cached_property
    def spine(self) -> Spine:
        """The target's descent at the middle angle, which every row's
        offsets straddle."""
        return Spine(self.P, Fraction(0), (self.tgt_th_r + self.tgt_th_l) / 2)

    def phi_tgt(self, s, t) -> np.ndarray:
        """The target at the broadcast pairs (s, t): one equipotential sweep
        out from the spine per distinct row potential, deepest first, in one
        `Spine.sweeps` call; rows at potential 0 are the root."""
        s, t = np.broadcast_arrays(np.clip(s, 0.0, 1.0), t)
        g = _interp(self.tgt_g, t)
        out = np.full(s.shape, self.tgt_root, dtype=complex)
        rows = []
        for gj in np.unique(g[g > 0.0]):
            row = g == gj
            offs = (1.0 - s[row]) * (self.tgt_th_r + gj) + s[row] * (self.tgt_th_l - gj)
            order = np.argsort(offs, kind="stable")
            rows.append((row, order, float(gj), offs[order].tolist()))
        for (row, order, _, _), swept in zip(rows, self.spine.sweeps([r[2:] for r in rows])):
            pts = np.empty(order.size, dtype=complex)
            pts[order] = swept
            out[row] = pts
        return out

    def invert_src(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Numerically invert the source blend at every point of z;
        best-effort on folds.  Newton starts at the first closest node of a
        22 x 22 grid unless (0.5, 0.5) is as close, takes central-difference
        steps clamped to 0.25, and retires each point on its own.  Each part
        of a difference is divided by the real width, as Python divides a
        complex by a float."""
        z = np.asarray(z, dtype=complex)
        nodes = np.arange(22) / 21.0
        dist = np.abs(self.phi_src(nodes[:, None], nodes[None, :]).ravel() - z[:, None])
        k = np.argmin(dist, axis=1)
        near = dist[np.arange(z.size), k] < np.abs(self.phi_src(0.5, 0.5) - z)
        s = np.where(near, nodes[k // 22], 0.5)
        t = np.where(near, nodes[k % 22], 0.5)
        h = 1e-6
        live = np.arange(z.size)
        for _ in range(50):
            sl, tl = s[live], t[live]
            f = self.phi_src(sl, tl) - z[live]
            s0, s1 = np.maximum(sl - h, 0.0), np.minimum(sl + h, 1.0)
            t0, t1 = np.maximum(tl - h, 0.0), np.minimum(tl + h, 1.0)
            fs = self.phi_src(s1, tl) - self.phi_src(s0, tl)
            ft = self.phi_src(sl, t1) - self.phi_src(sl, t0)
            a, c = fs.real / (s1 - s0), fs.imag / (s1 - s0)
            b, d = ft.real / (t1 - t0), ft.imag / (t1 - t0)
            det = a * d - b * c
            go = (np.abs(f) >= 1e-9) & (det != 0)
            live, f, a, b, c, d, det = (x[go] for x in (live, f, a, b, c, d, det))
            ds = (-f.real * d + f.imag * b) / det
            dt = (-a * f.imag + c * f.real) / det
            step = np.maximum(np.abs(ds), np.abs(dt))
            big = step > 0.25
            ds[big] *= 0.25 / step[big]
            dt[big] *= 0.25 / step[big]
            s[live] = np.clip(s[live] + ds, 0.0, 1.0)
            t[live] = np.clip(t[live] + dt, 0.0, 1.0)
            live = live[np.maximum(np.abs(ds), np.abs(dt)) >= 1e-13]
            if live.size == 0:
                break
        return s, t

    def forward(self, z: np.ndarray) -> np.ndarray:
        """The patch map, target of source^{-1}, at every point of z."""
        return self.phi_tgt(*self.invert_src(z))

    def dilatation_grid(self, n: int = 32) -> tuple[float, float]:
        """(max singular-value ratio, fraction of orientation-reversing cells)
        of the parametric map target-of(source^{-1}), finite-differenced on a
        shared (s, t) grid so the target map is evaluated once per node."""
        ss = np.linspace(0.0, 1.0, n + 1)
        js = _grid_jacobians(self.phi_src(ss[:, None], ss[None, :]))
        jt = _grid_jacobians(self.phi_tgt(ss[:, None], ss[None, :]))
        ok = np.abs(np.linalg.det(js)) >= 1e-14
        A = jt[ok] @ np.linalg.inv(js[ok])
        sv = np.linalg.svd(A, compute_uv=False)
        ok = sv[:, 1] > 0
        total = int(ok.sum())
        worst = float((sv[ok, 0] / sv[ok, 1]).max(initial=0.0))
        neg = int((np.linalg.det(A[ok]) < 0).sum())
        return worst, (neg / total if total else 0.0)


def _grid_jacobians(z: np.ndarray) -> np.ndarray:
    """Stacked real 2x2 central-difference Jacobians at a grid's interior nodes."""
    fs = (z[2:, 1:-1] - z[:-2, 1:-1]) / 2.0
    ft = (z[1:-1, 2:] - z[1:-1, :-2]) / 2.0
    return np.stack([fs.real, ft.real, fs.imag, ft.imag], axis=-1).reshape(-1, 2, 2)


@dataclass
class ExteriorCap:
    """Annulus blend in potential-angle coordinates.

    Over G in [g0, d*g0] the angle map interpolates between the boundary
    trace of the modified map (a continuous lift alpha, piecewise affine in
    theta) and theta -> d_c * theta, while the new potential interpolates
    d*g0 -> d_c*d*g0; the cap is then continuous against the modified map on
    the inner edge and against pure degree-d_c stretching on the outer edge.
    """

    P: Polynomial
    g0: float
    dc: int
    start: float
    segments: list[tuple[float, float, float, float]]  # (t0, t1, A, B): lift = A + B*theta

    @classmethod
    def build(cls, P: Polynomial, carrots: Sequence[Carrot],
              critical: Sequence[int], image_carrots: dict[int, "Carrot"],
              g0: float, dc: int) -> "ExteriorCap":
        d = P.degree
        # (wrapped start, width, lifted image angles at the two ends) per arc
        arcs = [(carrots[i].arc_lo % 1.0, carrots[i].arc_hi - carrots[i].arc_lo,
                 *image_carrots[i].arc_ends) for i in critical]
        segments: list[tuple[float, float, float, float]] = []
        if not arcs:
            if dc != d:
                raise DegreeMismatch("no critical carrots but d_c differs from d")
            return cls(P, g0, dc, 0.0, [(0.0, 1.0, 0.0, float(d))])
        arcs.sort(key=lambda a: a[0])
        start = arcs[0][0]
        pos = start
        lift = arcs[0][2]
        lift0 = lift
        for lo, width, a0, a1 in arcs:
            lo_l = lo if lo >= pos - 1e-12 else lo + 1.0
            if lo_l > pos + 1e-15:
                segments.append((pos, lo_l, lift - d * pos, float(d)))
                lift += d * (lo_l - pos)
                pos = lo_l
            slope = (a1 - a0) / width
            segments.append((pos, pos + width, lift - slope * pos, slope))
            lift += a1 - a0
            pos += width
        if pos < start + 1.0 - 1e-15:
            segments.append((pos, start + 1.0, lift - d * pos, float(d)))
            lift += d * (start + 1.0 - pos)
        if abs((lift - lift0) - dc) > 1e-9:
            raise DegreeMismatch(
                f"boundary trace winds {lift - lift0:.8f}, expected d_c = {dc}")
        return cls(P, g0, dc, start, segments)

    def _blend(self, g: float, theta: float) -> tuple[float, float, int]:
        """(potential, lifted angle, boundary segment) of the cap's image of
        (g, theta) for g0 <= g < d*g0: the potential depends on g alone, and
        on each segment the lifted angle is affine in the wrapped angle."""
        d = self.P.degree
        g_outer = d ** T0 * self.g0
        s = (g - self.g0) / (g_outer - self.g0)
        ghat = d * self.g0 + s * (self.dc * g_outer - d * self.g0)
        thw = self.start + (theta - self.start) % 1.0
        for k, (t0, t1, A, B) in enumerate(self.segments):
            if t0 - 1e-12 <= thw <= t1 + 1e-12:
                return ghat, (1.0 - s) * (A + B * thw) + s * self.dc * thw, k
        raise RuntimeError("angle not covered by the boundary trace")

    def apply(self, g: float, thetas: np.ndarray) -> np.ndarray:
        """The cap at potential g >= g0 and every angle of thetas, by
        equipotential sweeps in wrapped-angle order, so each sweep's offsets
        are monotone, and evenly spaced where the angles are.  Below d**T0*g0
        that is one sweep per boundary segment; from there on the cap is pure
        degree-d_c stretching, one sweep at d_c*g."""
        thetas = np.asarray(thetas, dtype=float)
        wrapped = self.start + (thetas - self.start) % 1.0
        order = np.argsort(wrapped, kind="stable")
        if g >= self.P.degree ** T0 * self.g0:
            blends = [(self.dc * g, self.dc * float(wrapped[i]), 0) for i in order]
        else:
            blends = [self._blend(g, float(thetas[i])) for i in order]
        out = np.empty(len(thetas), dtype=complex)
        for k in sorted({seg for _, _, seg in blends}):
            idx = [i for i, (_, _, seg) in zip(order, blends) if seg == k]
            alphas = [alpha for _, alpha, seg in blends if seg == k]
            if alphas[0] > alphas[-1]:
                idx, alphas = idx[::-1], alphas[::-1]
            base = math.floor(alphas[0])
            out[idx] = equipotential_points(self.P, blends[0][0], Fraction(0),
                                            [a - base for a in alphas])
        return out


@dataclass
class SurgeryMap:
    """Assembled carrot modification with its exterior cap.

    `carrots` live at parameter rho (the modification domains); each critical
    cut also carries its image carrot at parameter rho^d, the range of the
    interior extension.
    """

    P: Polynomial
    carrots: list[Carrot]
    critical: list[int]
    g0: float
    d_c: int
    patches: dict[int, CoonsPatch]
    image_carrots: dict[int, Carrot]
    cap: ExteriorCap
    side_agreement_max: float
    continuity_max_gap: float

    # -- rasters on one covering window, built on first use -----------------
    @cached_property
    def window(self) -> GridSpec:
        """Covers the non-escaping set, the carrots and the equipotential at d*g0."""
        outer = equipotential_polyline(self.P, self.P.degree * self.g0, 256)
        return covering_window(self.P, [outer] + [c.boundary for c in self.carrots])

    @cached_property
    def regions(self) -> PixelRaster:
        """The CRIT bit on the critical carrots, U_RHO inside the
        equipotential at g0 and U_RHO_D inside the one at d*g0."""
        P, g0 = self.P, self.g0
        return PixelRaster(self.window, [[self.carrots[i].boundary for i in self.critical],
                                         [equipotential_polyline(P, g0, 1024)],
                                         [equipotential_polyline(P, P.degree * g0, 1024)]])

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, z: complex) -> complex:
        g = green_potential(self.P, z)
        if g < self.g0 * (1.0 - 1e-12):
            return complex(self.interior(np.array([z]))[0])
        theta = external_angle(self.P, z)
        return complex(self.cap.apply(g, [theta])[0])

    def interior(self, z: np.ndarray) -> np.ndarray:
        """The map inside the outer equipotential at every point of z: the
        patch on a critical carrot, P elsewhere."""
        out = self.P(z)
        free = np.ones(len(z), dtype=bool)
        for i in self.critical:
            inside = free & np.array([self.carrots[i].contains(w) for w in z], dtype=bool)
            if inside.any():
                out[inside] = self.patches[i].forward(z[inside])
                free &= ~inside
        return out

    def preimage_count(self, w: complex) -> int:
        count = 0
        for r in self.P.preimages(w):
            r = complex(r)
            if green_potential(self.P, r) >= self.g0 * (1.0 - 1e-12):
                continue
            if any(self.carrots[i].contains(r) for i in self.critical):
                continue
            count += 1
        for i in self.critical:
            if self.image_carrots[i].contains(w):
                count += 1
        return count


def build_surgery(P: Polynomial, family: CutFamily, rho: float,
                  carrots: list[Carrot]) -> SurgeryMap:
    """Assemble the carrot modification at parameter rho on the family's
    carrots at rho (`build_carrots`).

    Verifies legality, carrot disjointness, side-arc agreement with P,
    boundary-trace winding, and cross-validates d_c by preimage counting at
    generic equipotential points (away from the image carrots, where the
    count is the topological degree).
    """
    legal = check_legal(family)
    hard = [r for r in legal.failures() if r.check != "fictitious"]
    if hard:
        msgs = "; ".join(f"{r.check}[{r.subject}]" for r in hard)
        raise RenormError(f"family is not legal: {msgs}")
    g0 = -math.log(rho)
    if not carrots_disjoint(carrots):
        raise CarrotOverlap("carrots are not pairwise disjoint; increase rho")
    critical = family.critical_indices()
    d_c = family.degree_dc()

    for i in critical:
        if family.forward_map[i] is None:
            raise RenormError(f"critical cut {i} has no image cut in the family")
    image_carrots = dict(zip(critical, build_carrots(
        P, [family.cuts[family.forward_map[i]] for i in critical], rho ** P.degree)))
    patches: dict[int, CoonsPatch] = {}
    side_worst = 0.0
    for i, image in image_carrots.items():
        patch = CoonsPatch.build(P, carrots[i], image)
        patches[i] = patch
        n = len(patch.src_left)
        idx = np.unique(np.linspace(0, n - 1, min(SIDE_SAMPLES, n)).astype(int))
        for edge_s, edge_t in ((patch.src_left, patch.tgt_left),
                               (patch.src_right, patch.tgt_right)):
            gap = np.abs(P(edge_s[idx]) - edge_t[idx]).max()
            side_worst = max(side_worst, float(gap))
    if side_worst > 1e-6:
        raise ContinuityGap(f"side arcs disagree with P by {side_worst:.3g}")

    cap = ExteriorCap.build(P, carrots, critical, image_carrots, g0, d_c)

    cont_gap = _cap_continuity_gap(P, carrots, critical, patches, cap, g0)
    if cont_gap > 1e-6:
        raise ContinuityGap(f"cap mismatch {cont_gap:.3g} across the outer equipotential")

    S = SurgeryMap(P, carrots, critical, g0, d_c, patches, image_carrots, cap,
                   side_worst, cont_gap)
    _preimage_cross_check(S)
    return S


def _cap_continuity_gap(P, carrots, critical, patches, cap: ExteriorCap,
                        g0: float) -> float:
    """Compare the cap on E(rho) against the inside limit of the modified map
    at CAP_SAMPLES angles, each side by equipotential sweeps."""
    ths = (np.arange(CAP_SAMPLES) + 0.31) / CAP_SAMPLES
    inner = np.empty(CAP_SAMPLES, dtype=complex)
    free = np.ones(CAP_SAMPLES, dtype=bool)
    for i in critical:
        c = carrots[i]
        pos = (ths - c.arc_lo % 1.0) % 1.0
        width = c.arc_hi - c.arc_lo
        arc = free & (pos <= width)
        # inside limit on a carrot arc is the patch's top edge value
        inner[arc] = patches[i].phi_tgt(pos[arc] / width, 1.0)
        free &= ~arc
    if free.any():
        inner[free] = P(np.array(equipotential_points(P, g0, Fraction(0), list(ths[free]))))
    outer = cap.apply(g0 * (1 + 1e-9), ths)
    return float(np.abs(inner - outer).max())


def _preimage_cross_check(S: SurgeryMap) -> None:
    """Count preimages of generic equipotential points.

    Points inside an image carrot are not generic for this purpose (there the
    interior extension and the sheets of P cover jointly); away from the image
    carrots' angular sectors the count is the topological degree.
    """
    d = S.P.degree
    g_test = 0.9 * d * S.g0
    margin = 0.02
    image_arcs = []
    for i in S.critical:
        tgt = S.image_carrots[i]
        lo = (tgt.arc_lo - margin) % 1.0
        image_arcs.append((lo, (tgt.arc_hi - tgt.arc_lo) + 2 * margin))
    tried = 0
    k = 0
    while tried < 20 and k < 320:
        th = ((k + 0.123) * 0.61803398875) % 1.0
        k += 1
        if any(((th - lo) % 1.0) <= width for lo, width in image_arcs):
            continue
        w = bottcher_point(S.P, g_test, th)
        cnt = S.preimage_count(w)
        if cnt != S.d_c:
            raise DegreeMismatch(
                f"preimage count {cnt} at angle {th:.4f} differs from d_c = {S.d_c}")
        tried += 1
    if tried == 0:
        raise DegreeMismatch("no generic test angles available for the degree check")


@dataclass
class VisitReport:
    max_visits_crit: int
    max_visits_blend: int
    max_visits_total: int
    t_cr: int
    t_bound: int
    max_iter: int
    seed: int
    # (critical visits, blend visits, seeds with that pair), in pair order
    histogram: tuple[tuple[int, int, int], ...]

    @property
    def within_bounds(self) -> bool:
        return self.max_visits_crit <= self.t_cr


def visit_count_experiment(S: SurgeryMap, n_seeds: int, max_iter: int, *,
                           window: Optional[GridSpec] = None,
                           seed: int = 0x5EEDC0DE) -> VisitReport:
    """Count orbit visits to the critical carrots and to the blend annulus.

    Seeds are pseudo-random in the window with a fixed recorded seed.  Orbits
    iterate by P; a visit to a critical carrot applies the interior patch
    (that is where f differs from P on bounded sets), after which the orbit
    escapes through the annulus.  Points that leave the outer annulus can
    never return to either region and are retired.
    """
    win = window or S.window
    rng = np.random.default_rng(seed)
    re = rng.uniform(win.center.real - win.width / 2, win.center.real + win.width / 2, n_seeds)
    im = rng.uniform(win.center.imag - win.width / 2, win.center.imag + win.width / 2, n_seeds)
    regions = S.regions
    visits_crit = np.zeros(n_seeds, dtype=np.int32)
    visits_blend = np.zeros(n_seeds, dtype=np.int32)

    def step(z, live, it, buf):
        r = regions.at(regions.index(z))
        in_crit = (r & CRIT) != 0
        in_ud = (r & U_RHO_D) != 0
        blend = (r & (CRIT | U_RHO | U_RHO_D)) == U_RHO_D
        visits_crit[live[in_crit]] += 1
        visits_blend[live[blend]] += 1
        out = S.P(z, out=buf.out)
        out[in_crit] = S.interior(z[in_crit])  # P at raster edge effects
        keep = np.isfinite(out, out=buf.keep)
        keep &= in_ud  # retire orbits beyond the outer annulus
        return keep

    Orbits(re + 1j * im, np.arange(n_seeds)).run(range(max_iter), step)
    t_cr = len(S.critical)
    pairs, seeds = np.unique(np.stack([visits_crit, visits_blend]), axis=1, return_counts=True)
    return VisitReport(int(visits_crit.max(initial=0)), int(visits_blend.max(initial=0)),
                       int((visits_crit + visits_blend).max(initial=0)),
                       t_cr, t_cr + T0, max_iter, seed,
                       tuple(zip(*pairs.tolist(), seeds.tolist())))


def nonescaping_mask(S: SurgeryMap, grid: GridSpec, max_iter: int, *,
                     threads: int = 1) -> Mask:
    """Pixels whose orbit under the modified map stays bounded.

    Leaving the outer equipotential means monotone potential growth under the
    cap, and entering a critical carrot lands the orbit in the image carrot
    family, which escapes as well; both are terminal events, so the sweep
    only ever iterates P.  A pixel survives when its iterates 0 .. max_iter - 1
    all lie in U_RHO and outside CRIT of `S.regions` and iterates
    1 .. max_iter are finite.

    The sweep retires the pixels that enter the `interior_trap` certified
    to stay at least a raster pixel inside U_RHO and away from CRIT for
    max_iter steps (see `sweep_pixels`): they survive, exactly as the full
    loop would find them.
    """
    regions = S.regions
    alive = np.ones(grid.resolution ** 2, dtype=bool)

    def step(z, idx, it, buf):
        r = regions.at(regions.index(z))
        keep = np.isfinite(S.P(z, out=buf.out), out=buf.keep)
        keep &= np.bitwise_and(r, U_RHO | CRIT, out=r) == U_RHO
        if not keep.all():
            alive[idx[~keep]] = False
        return keep

    trap = interior_trap(S.P, max_iter, regions, avoid=CRIT, stay_in=U_RHO)
    sweep_pixels(grid, max_iter, step, threads, trap)
    return Mask(grid, alive.reshape(grid.resolution, -1))


@dataclass
class DilatationReport:
    per_patch: dict[int, tuple[float, float]]  # (max ratio, reversed fraction)

    @property
    def max_ratio(self) -> float:
        return max((r for r, _ in self.per_patch.values()), default=1.0)

    @property
    def flagged(self) -> bool:
        return self.max_ratio > 100.0


def dilatation_report(S: SurgeryMap, n: int = 64) -> DilatationReport:
    return DilatationReport({i: S.patches[i].dilatation_grid(n) for i in S.critical})
