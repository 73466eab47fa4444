"""Carrots attached to cuts, Koenigs linearization, and geometry estimators."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .angles import Angle, reduce_offset
from .bottcher import SpiralArc, equipotential_arc, trace_spirals
from .cuts import Cut
from .errors import CarrotOverlap, InsufficientSamples, NonConvergence, \
    OutsideLinearizationDomain, WrongPullback
from .grid import crossing_parity
from .poly import Cycle, Polynomial, newton

SIDE_ROOT_TOL = 1e-6
# at a critical root the side tip approaches like t^(log lambda / (k log d));
# 1e-12 leaves comfortable margin under the 1e-6 termination tolerance
SIDE_T_MIN = 1e-12
SIDE_SUBSTEPS = 16
ARC_MAX_STEP = 1.0 / 6144  # keeps chordal error of equip arcs below 1e-6


@dataclass(frozen=True)
class ProtoCarrot:
    """Model carrot in the disk: rho0 <= rho <= exp(-|theta - theta0|)."""

    rho0: float
    theta0: Angle

    def __post_init__(self) -> None:
        if not (0.0 < self.rho0 < 1.0):
            raise ValueError("rho0 must lie in (0, 1)")

    @property
    def half_span(self) -> float:
        """Angular reach of the spiral arms (turns)."""
        return -math.log(self.rho0)


def proto_contains(pc: ProtoCarrot, rho: float, theta: float) -> bool:
    """Membership in polar coordinates; theta - theta0 reduced to (-1/2, 1/2]."""
    off = reduce_offset(theta - pc.theta0.as_float())
    return pc.rho0 <= rho <= math.exp(-abs(off))


def proto_boundary(pc: ProtoCarrot, samples: int) -> list[tuple[float, float]]:
    """Boundary as (rho, theta) pairs: arm, inner arc, arm, back to the tip."""
    lam = pc.half_span
    t0 = pc.theta0.as_float()
    out: list[tuple[float, float]] = []
    m = max(8, samples // 3)
    for k in range(m + 1):  # + arm from tip to corner
        a = lam * k / m
        out.append((math.exp(-a), t0 + a))
    for k in range(1, m + 1):  # inner arc from +corner to -corner
        a = lam - 2 * lam * k / m
        out.append((pc.rho0, t0 + a))
    for k in range(1, m + 1):  # - arm back to the tip
        a = lam * (1 - k / m)
        out.append((math.exp(-a), t0 - a))
    return out


def proto_image_check(pc: ProtoCarrot, d: int, samples: int = 1000) -> float:
    """Max distance from mapped boundary points to the image proto-carrot's
    boundary under (rho, theta) -> (rho^d, d theta)."""
    if pc.rho0 < 0.9:
        raise ValueError("rho0 must be at least 0.9 for the equivariance check")
    img = ProtoCarrot(pc.rho0**d, pc.theta0.times(d))
    worst = 0.0
    for rho, theta in proto_boundary(pc, samples):
        r2 = rho**d
        t2 = theta * d
        z = r2 * np.exp(2j * np.pi * t2)
        worst = max(worst, _proto_boundary_distance(img, z, t2))
    return worst


def _proto_boundary_distance(pc: ProtoCarrot, z: complex, theta: float) -> float:
    off = reduce_offset(theta - pc.theta0.as_float())
    cands = []
    if abs(off) <= pc.half_span:
        # same-angle points on the spiral roof and on the inner arc
        cands.append(math.exp(-abs(off)) * np.exp(2j * np.pi * theta))
        cands.append(pc.rho0 * np.exp(2j * np.pi * theta))
    tip = np.exp(2j * np.pi * pc.theta0.as_float())
    cands.append(tip)
    for s in (-1.0, 1.0):
        corner_angle = pc.theta0.as_float() + s * pc.half_span
        cands.append(pc.rho0 * np.exp(2j * np.pi * corner_angle))
    return min(abs(z - c) for c in cands)


@dataclass
class Carrot:
    """Dynamical carrot of a cut: two spiral sides plus an equipotential arc.

    Sides are ordered by decreasing potential with the root appended last.
    `equip_arc` spans the lifted angles `arc_lo` to `arc_hi`, from side_r's
    end to side_l's end (`arc_ends`).
    """

    cut: Cut
    rho: float
    g0: float
    side_r: SpiralArc
    side_l: SpiralArc
    equip_arc: np.ndarray
    arc_lo: float
    arc_hi: float

    @cached_property
    def boundary(self) -> np.ndarray:
        """Simple closed polygon, read-only: root, side_r up, arc, side_l
        down, root."""
        root = np.array([self.cut.root])
        polygon = np.concatenate([root, self.side_r.points[::-1], self.equip_arc[1:-1],
                                  self.side_l.points, root])
        polygon.flags.writeable = False
        return polygon

    @property
    def arc_ends(self) -> tuple[float, float]:
        """Lifted angles of `equip_arc` at side_r's end and at side_l's end:
        a degenerate cut's side_r ends at the high angle."""
        return (self.arc_hi, self.arc_lo) if self.cut.degenerate else (self.arc_lo, self.arc_hi)

    def contains(self, z: complex) -> bool:
        return crossing_parity(self.boundary, z)

    def side_pair_points(self) -> np.ndarray:
        """The union side_r + root + side_l as one simple arc (root in the middle)."""
        return np.concatenate([
            self.side_r.points,              # equip end ... toward root
            np.array([self.cut.root]),
            self.side_l.points[::-1],        # root ... back out to equip end
        ])


def build_carrots(P: Polynomial, cuts: Sequence[Cut], rho: float) -> list[Carrot]:
    """Carrots of the cuts at parameter rho, in the order of the cuts.

    Every carrot shares one construction: the sides are the slope-one
    spirals through theta_r (positive sense) and theta_l (negative sense),
    all traced in one `trace_spirals` call; pullbacks of spirals are
    spirals, so the preperiodic case needs no separate continuation
    machinery.  The landing condition is checked a posteriori.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    g0 = -math.log(rho)
    for cut in cuts:
        width = float(cut.arc_width())
        if not cut.degenerate and width - 2 * g0 <= 1e-9:
            raise CarrotOverlap(
                f"carrot sides of cut ({cut.theta_r},{cut.theta_l}) cross before "
                f"reaching the equipotential: need g0 < {width / 2:.4g}, got {g0:.4g}")
    sides = trace_spirals(P, [side for cut in cuts for side in ((cut.theta_r, +1),
                                                                (cut.theta_l, -1))],
                          g0, SIDE_T_MIN, SIDE_SUBSTEPS)
    carrots = []
    for cut, side_r, side_l in zip(cuts, sides[::2], sides[1::2]):
        for name, side in (("right", side_r), ("left", side_l)):
            gap = abs(side.points[-1] - cut.root)
            if gap > SIDE_ROOT_TOL:
                raise WrongPullback(
                    f"{name} side spiral of cut ({cut.theta_r},{cut.theta_l}) "
                    f"ends {gap:.3g} from the root")
        theta = cut.theta_r.as_float()
        if cut.degenerate:
            lo, hi = theta - g0, theta + g0
        else:
            lo, hi = theta + g0, theta + float(cut.arc_width()) - g0
        carrot = Carrot(cut, rho, g0, side_r, side_l, np.empty(0, dtype=complex), lo, hi)
        arc = equipotential_arc(P, g0, cut.theta_r.fraction(), lo - theta, hi - theta,
                                max_step=ARC_MAX_STEP)
        if carrot.arc_ends[0] > carrot.arc_ends[1]:
            arc.reverse()
        arc[0], arc[-1] = side_r.points[0], side_l.points[0]
        carrot.equip_arc = np.array(arc)
        carrots.append(carrot)
    return carrots


def carrots_disjoint(carrots: Sequence[Carrot]) -> bool:
    """Sampled pairwise disjointness of carrot regions: no carrot holds one
    of another's 160 boundary samples or its interior probe, checked in both
    orders so that a carrot nested inside another is caught."""
    for a, b in itertools.permutations(carrots, 2):
        pts = b.boundary
        idx = np.unique(np.linspace(0, len(pts) - 1, 160).astype(int))
        probe = pts[idx]
        # skip shared root contacts
        probe = probe[np.abs(probe - a.cut.root) > 1e-9]
        if any(a.contains(z) for z in probe):
            return False
        if a.contains(_interior_probe(b)):
            return False
    return True


def _interior_probe(c: Carrot) -> complex:
    k = len(c.side_r.points) // 3
    return 0.5 * (c.side_r.points[k] + c.side_l.points[k])


def koenigs_radius(P: Polynomial, cycle: Cycle) -> float:
    """Largest tested radius on which the inverse branch fixing the point
    contracts (sampled); conservative by 10 percent."""
    z0 = cycle.points[0]
    lam = cycle.multiplier
    others = [complex(r) for r in P.preimages(z0)]
    others = [r for r in others if abs(r - z0) > 1e-9]
    r = 0.5 * min((abs(r - z0) for r in others), default=1.0)
    for _ in range(40):
        ok = True
        for k in range(12):
            w = z0 + r * np.exp(2j * np.pi * k / 12)
            try:
                y, _ = P.preimage_near(w, z0 + (w - z0) / lam)
            except NonConvergence:
                ok = False
                break
            if abs(y - z0) > abs(w - z0):
                ok = False
                break
        if ok:
            break
        r *= 0.8
    return 0.9 * r


def koenigs_coordinate(P: Polynomial, cycle: Cycle, z: complex) -> complex:
    """Koenigs linearizing coordinate at a repelling fixed point.

    u = lim lambda^n (P^{-n}(z) - z0) along the inverse branch fixing z0;
    satisfies u(P(z)) = lambda * u(z) on the linearization disk.  Pullbacks
    run in the shifted coordinate w = z - z0 so the limit keeps full relative
    precision.
    """
    if cycle.period != 1:
        raise ValueError("koenigs_coordinate expects a fixed point; "
                         "compose the polynomial for longer cycles")
    if abs(cycle.multiplier) <= 1:
        raise ValueError("fixed point must be repelling")
    z0 = cycle.points[0]
    lam = cycle.multiplier
    if z == z0:
        return 0j
    if abs(z - z0) > koenigs_radius(P, cycle):
        raise OutsideLinearizationDomain(
            f"|z - z0| = {abs(z - z0):.3g} exceeds the linearization radius")
    # Taylor coefficients of w -> P(z0 + w) - z0 with the constant term
    # dropped exactly (z0 is a fixed point to working precision), which avoids
    # the catastrophic cancellation of evaluating P(y) - z0 for y near z0;
    # the Taylor shift of a monic P is monic
    F = Polynomial(tuple([0j] + P.taylor(z0)[1:]))

    def fdf(v):  # F(v) - target, for the target of the current pullback
        f, df = F.value_and_deriv(v)
        return f - target, df

    w = z - z0
    power = 1.0 + 0.0j
    u_prev: Optional[complex] = None
    best: Optional[complex] = None
    best_diff = math.inf
    for _ in range(400):
        target = w
        w = newton(fdf, w / lam)
        if w is None:
            raise NonConvergence(f"Koenigs pullback of {target:.6g} failed")
        power *= lam
        u = power * w
        if u_prev is not None:
            diff = abs(u - u_prev)
            if diff < 1e-13 * max(1e-300, abs(u)):
                return u
            if diff < best_diff:
                best, best_diff = u, diff
            elif best is not None and diff > 4 * best_diff:
                return best  # noise floor reached; best estimate wins
        u_prev = u
    raise NonConvergence("Koenigs limit did not stabilize")


# ---------------------------------------------------------------------------
# geometry estimators


@dataclass(frozen=True)
class GeometryEstimate:
    quasi_arc_C: float
    transversality_gap: float
    weak_qs_kappa: float
    sample_count: int


def _subsample(pts: np.ndarray, samples: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=complex)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.abs(np.diff(pts)) > 0
    pts = pts[keep]
    if len(pts) <= samples:
        return pts
    idx = np.unique(np.linspace(0, len(pts) - 1, samples).astype(int))
    return pts[idx]


def quasi_arc_constant(polyline: np.ndarray, samples: int = 200) -> float:
    """Lower three-point bound: min over ordered triples x<=y<=z (arc order)
    of |x-z| / |x-y|.

    The polyline's geometric potential ladder already concentrates samples
    near the root endpoint, which is where the constant is decided.
    """
    pts = _subsample(polyline, samples)
    m = len(pts)
    if m < 3:
        raise InsufficientSamples("need at least 3 distinct points")
    D = np.abs(pts[:, None] - pts[None, :])
    # suffmin[i, j] = min over k >= j of D[i, k]
    suffmin = np.minimum.accumulate(D[:, ::-1], axis=1)[:, ::-1]
    iu, ju = np.triu_indices(m, k=1)
    denom = D[iu, ju]
    ok = denom > 0
    ratios = suffmin[iu[ok], ju[ok]] / denom[ok]
    return float(ratios.min())


def transversality_profile(R_pts: np.ndarray, L_pts: np.ndarray, a: complex, *,
                           r_min: float = 1e-8) -> list[tuple[float, float]]:
    """Per-dyadic-scale minima of |(u-a)/(v-a) - 1| over radius-matched pairs
    (radii within 10% of each other)."""
    ru = np.asarray(R_pts, dtype=complex) - a
    lv = np.asarray(L_pts, dtype=complex) - a
    ru = ru[np.abs(ru) > 0]
    lv = lv[np.abs(lv) > 0]
    if len(ru) == 0 or len(lv) == 0:
        raise InsufficientSamples("empty arcs")
    r_max = min(np.abs(ru).max(), np.abs(lv).max())
    out: list[tuple[float, float]] = []
    s = r_max / 2.0
    while s >= r_min:
        us = ru[(np.abs(ru) >= s) & (np.abs(ru) < 2 * s)]
        vs = lv[(np.abs(lv) >= s) & (np.abs(lv) < 2 * s)]
        if len(us) and len(vs):
            ratio = np.abs(us[:, None]) / np.abs(vs[None, :])
            pair_ok = np.abs(ratio - 1.0) < 0.1
            if pair_ok.any():
                q = us[:, None] / vs[None, :]
                gap = float(np.abs(q - 1.0)[pair_ok].min())
                out.append((s, gap))
        s /= 2.0
    if not out:
        raise InsufficientSamples("no radius-matched pairs at any dyadic scale")
    return out


def transversality_gap(R_pts: np.ndarray, L_pts: np.ndarray, a: complex, *,
                       r_min: float = 1e-8) -> float:
    """min over scales of the per-scale transversality minima; > 0 certifies
    nothing but 0 is approached by tangential pairs."""
    prof = transversality_profile(R_pts, L_pts, a, r_min=r_min)
    return min(g for _, g in prof)


def weak_qs_constant(samples: Sequence[tuple[complex, complex]]) -> float:
    """kappa-hat = max over triples with d(x,y) <= d(x,z) of d(fx,fy)/d(fx,fz),
    y and z other than x and d(fx,fz) > 0.

    For fixed x and y the largest ratio has the smallest admissible
    denominator (r/a >= r/b for a <= b, rounding included), so each row of
    distances from x is sorted once and the denominators are read off a
    suffix minimum at the first position tied with d(x,y): O(m^2 log m)."""
    if len(samples) < 100:
        raise InsufficientSamples("need at least 100 samples")
    x = np.array([p[0] for p in samples], dtype=complex)
    f = np.array([p[1] for p in samples], dtype=complex)
    m = len(x)
    Dx = np.abs(x[:, None] - x[None, :])
    Df = np.abs(f[:, None] - f[None, :])
    order = np.argsort(Dx, axis=1, kind="stable")
    dy = np.take_along_axis(Dx, order, axis=1)
    fy = np.take_along_axis(Df, order, axis=1)
    other = order != np.arange(m)[:, None]
    den = np.where(other & (fy > 0), fy, np.inf)
    suffix_min = np.minimum.accumulate(den[:, ::-1], axis=1)[:, ::-1]
    # the first position of each run of tied distances
    starts = np.diff(dy, axis=1, prepend=-1.0) != 0
    first = np.maximum.accumulate(np.where(starts, np.arange(m), 0), axis=1)
    ratio = fy / np.take_along_axis(suffix_min, first, axis=1)
    return max(0.0, float(ratio[other].max()))


def carrot_geometry(P: Polynomial, carrot: Carrot, samples: int = 200) -> GeometryEstimate:
    """Bundle the three estimators for one carrot's side pair."""
    pair = carrot.side_pair_points()
    C = quasi_arc_constant(pair, samples)
    gap = transversality_gap(carrot.side_r.points, carrot.side_l.points,
                             carrot.cut.root, r_min=1e-8)
    pts = _subsample(pair, max(samples, 120))
    kappa = weak_qs_constant([(complex(z), complex(P(z))) for z in pts])
    return GeometryEstimate(C, gap, kappa, samples)
