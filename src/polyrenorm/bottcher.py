"""External rays, equipotentials and spiral arcs via Boettcher continuation.

Rays and carrot-side spirals are traced on an orbit ladder: the curves
through an angle orbit share one geometric potential ladder, level k at
g_top*d^(-k/s).  P maps the curve through theta at level k onto the curve
through d*theta one degree step (s levels) higher, so each point is a single
Newton solve of P(z) = parent, seeded by the point one level up on the same
curve; a ray to potential t costs O(levels) instead of O(levels*depth).
Ladders are cached per polynomial, slope, top potential and substeps, and
land_ray deepens a ray by extending its ladder in place.

Single points, equipotentials and external angles use a pullback chain: the
top node sits at potential G*d^m large enough that z = exp(G' + 2pi*i*theta')
approximates the Boettcher inverse to high accuracy, and each lower node
Newton-solves P(z) = parent with the neighbouring trace's node as initial
guess.  Angles are carried as an exact rational part plus a float offset that
scales with the potential, so deep tails lose no angular precision.
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .angles import Angle, tuple_orbit
from .errors import BranchJump, NonConvergence
from .poly import Polynomial

ANCHOR_MIN = 18.0  # exp(-18) relative Boettcher error at the chain top
SEED_DIRECT_MIN = 2.0  # below this potential cold direct seeds are unsafe
# Above this potential the direct approximation beats any neighbour seed:
# its absolute error is bounded by the subleading coefficient while sibling
# preimages are separated by 2*pi*exp(G)/d.
DIRECT_SEED_SAFE = 4.0
# Accepted Newton displacement vs the previous same-level spacing.  Natural
# steps shrink by only d^(-1/substeps) per step while a sibling-branch jump
# exceeds the spacing by orders of magnitude, so a factor slightly above 1
# separates the two regimes cleanly.
SAFETY = 1.25
EPS = sys.float_info.epsilon
MAX_SUBDIV = 20
LAND_POTENTIAL = 1e-9
DEFAULT_SUBSTEPS = 8


def anchor_potential(P: Polynomial) -> float:
    return max(math.log(10.0 * P.escape_radius), ANCHOR_MIN)


class _StepReject(Exception):
    pass


@dataclass
class _Chain:
    """Pullback chain over one traced point; level j sits at potential t*d^j."""

    t: float
    frac: Fraction
    off: float
    slope: int
    points: list[complex]
    spacings: Optional[list[float]]


def _newton_preimage(P: Polynomial, w: complex, seed: complex,
                     tol: float = 1e-14, max_iter: int = 40) -> complex:
    z = seed
    for _ in range(max_iter):
        dz = P.deriv(z)
        if dz == 0:
            break
        step = (P(z) - w) / dz
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    # Newton degenerates when the preimage sits near a critical point; the
    # companion matrix solves the full fiber and the seed picks the branch.
    arr = np.array(P.coeffs[::-1], dtype=complex)
    arr[-1] -= w
    roots = np.roots(arr)
    if not np.all(np.isfinite(roots)):
        raise NonConvergence(f"preimage solve failed for target {w:.6g}")
    return complex(roots[int(np.argmin(np.abs(roots - seed)))])


def _chain_solve(P: Polynomial, t: float, frac: Fraction, off: float, slope: int,
                 prev: Optional[_Chain], anchor: float) -> _Chain:
    d = P.degree
    m = 0
    while t * d**m < anchor:
        m += 1
    # the rational part as integer numerators over q: num/q rounds exactly
    # as float(Fraction(num, q)) does
    q = frac.denominator
    nums = [frac.numerator % q]
    for _ in range(m):
        nums.append(nums[-1] * d % q)
    pts: list[complex] = [0j] * (m + 1)
    t_top = t * d**m
    a_top = nums[m] / q + off * d**m + slope * t_top
    pts[m] = cmath.rect(math.exp(t_top), 2.0 * math.pi * a_top)
    for j in range(m - 1, -1, -1):
        tj = t * d**j
        aj = nums[j] / q + off * d**j + slope * tj
        if tj < DIRECT_SEED_SAFE and prev is not None and j < len(prev.points):
            seed = prev.points[j]
        else:
            seed = cmath.rect(math.exp(tj), 2.0 * math.pi * aj)
        z = _newton_preimage(P, pts[j + 1], seed)
        if (prev is not None and prev.spacings is not None
                and j < len(prev.spacings)):
            # spacings at Newton-noise level carry no branch information
            floor = 1e-9 * max(1.0, abs(z))
            sp = prev.spacings[j]
            if sp > floor and abs(z - prev.points[j]) > SAFETY * sp + floor:
                raise _StepReject(j)
        pts[j] = z
    spacings = None
    if prev is not None:
        spacings = [abs(pts[j] - prev.points[j]) if j < len(prev.points) else math.inf
                    for j in range(m + 1)]
    return _Chain(t, frac, off, slope, pts, spacings)


def _trace_radial(P: Polynomial, frac: Fraction, off: float, slope: int,
                  ts: Sequence[float], init_chain: Optional[_Chain] = None,
                  anchor: Optional[float] = None):
    """Trace points at the requested (descending) potentials.

    Branch-safety rejections insert geometric-mean potentials; only the
    requested potentials appear in the output.
    """
    if anchor is None:
        anchor = anchor_potential(P)
    out: list[complex] = []
    prev = init_chain
    stack: list[tuple[float, int, bool]] = [(t, 0, True) for t in reversed(ts)]
    while stack:
        t, depth, requested = stack.pop()
        try:
            ch = _chain_solve(P, t, frac, off, slope, prev, anchor)
        except (_StepReject, NonConvergence) as exc:
            if depth >= MAX_SUBDIV or prev is None:
                raise BranchJump(
                    f"continuation failed at potential {t:.3e} (angle {frac}+{off:+g})",
                    partial=out) from exc
            t_mid = math.sqrt(prev.t * t)
            stack.append((t, depth + 1, requested))
            stack.append((t_mid, depth + 1, False))
            continue
        prev = ch
        if requested:
            out.append(ch.points[0])
    return out, prev


def _trace_angular(P: Polynomial, t: float, frac: Fraction, offs: Sequence[float],
                   init_chain: Optional[_Chain], anchor: Optional[float] = None):
    """Sweep the angle offset at fixed potential; offsets are lifted reals.

    Angular steps amplify by d per chain level, so the sweep is refined until
    the step at the last neighbour-seeded level stays a small fraction of a
    turn; coarser requested spacings are interpolated over internal nodes.
    """
    if anchor is None:
        anchor = anchor_potential(P)
    max_step = max(1e-7, 0.005 * t)
    work: list[tuple[float, bool]] = [(offs[0], True)]
    for a, b in zip(offs[:-1], offs[1:]):
        span = b - a
        if span < 0:
            raise ValueError("offsets must be non-decreasing")
        k = max(1, int(math.ceil(span / max_step)))
        for i in range(1, k + 1):
            work.append((a + span * i / k, i == k))
    out: list[complex] = []
    prev = init_chain
    stack: list[tuple[float, int, bool]] = [(o, 0, r) for o, r in reversed(work)]
    while stack:
        off, depth, requested = stack.pop()
        try:
            ch = _chain_solve(P, t, frac, off, 0, prev, anchor)
        except (_StepReject, NonConvergence) as exc:
            if depth >= MAX_SUBDIV or prev is None:
                raise BranchJump(
                    f"equipotential sweep failed at offset {off:.6g}",
                    partial=out) from exc
            mid = 0.5 * (prev.off + off)
            stack.append((off, depth + 1, requested))
            stack.append((mid, depth + 1, False))
            continue
        prev = ch
        if requested:
            out.append(ch.points[0])
    return out, prev


def _potential_ladder(g_start: float, g_end: float, d: int, substeps: int) -> list[float]:
    r = d ** (-1.0 / substeps)
    ts = [g_start]
    t = g_start
    while t * r > g_end * (1.0 + 1e-12):
        t *= r
        ts.append(t)
    if abs(ts[-1] - g_end) > 1e-12 * g_end:
        ts.append(g_end)
    return ts


def _descend_chain(P: Polynomial, g: float, frac: Fraction, off: float,
                   slope: int, anchor: float) -> _Chain:
    """Warm chain at (g, angle) for g below the cold-seed threshold.

    Descends along the curve from a safely high potential; for slope 0 this is
    the fixed-angle ray, for spirals the warm-up runs down the ray through the
    spiral's entry point (their chain levels coincide there).
    """
    if g >= SEED_DIRECT_MIN:
        return _chain_solve(P, g, frac, off, slope, None, anchor)
    g_hi = SEED_DIRECT_MIN * 1.5
    ts = _potential_ladder(g_hi, g, P.degree, DEFAULT_SUBSTEPS)
    if slope != 0:
        # ray through the spiral point (g, frac + off + slope*g)
        _, ch = _trace_radial(P, frac, off + slope * g, 0, ts, anchor=anchor)
        ch = _Chain(ch.t, frac, off, slope, ch.points, ch.spacings)
        return ch
    _, ch = _trace_radial(P, frac, off, 0, ts, anchor=anchor)
    return ch


def bottcher_point(P: Polynomial, g: float, theta: Angle | Fraction | float,
                   *, slope: int = 0) -> complex:
    """The point of the basin of infinity at potential g and angle theta."""
    if g <= 0:
        raise ValueError("potential must be positive")
    anchor = anchor_potential(P)
    if isinstance(theta, Angle):
        frac, off = theta.fraction(), 0.0
    elif isinstance(theta, Fraction):
        frac, off = theta, 0.0
    else:
        frac, off = Fraction(0), float(theta)
    ch = _descend_chain(P, g, frac, off, slope, anchor)
    return ch.points[0]


@dataclass(frozen=True)
class Landing:
    point: complex
    converged: bool
    method: str  # geometric | polished | cauchy | none


@dataclass(frozen=True)
class RayPolyline:
    """A traced external ray, ordered by strictly decreasing potential."""

    angle: Angle
    points: np.ndarray
    potentials: np.ndarray
    landing: Optional[Landing] = None

    def truncate_at(self, g0: float) -> "RayPolyline":
        keep = self.potentials <= g0 * (1 + 1e-12)
        return RayPolyline(self.angle, self.points[keep], self.potentials[keep], self.landing)


class _OrbitLadder:
    """Curves through an angle orbit, traced together on one potential ladder.

    Level k sits at potential g_top*r^k, r = d^(-1/s), the potentials built by
    repeated multiplication so that a deeper ladder keeps the same floats.  P
    maps the curve through theta (angle theta + slope*potential) at level k
    onto the curve through d*theta at level k - s, so every point is a single
    Newton solve of P(z) = parent, seeded by the point one level up on the
    same curve.  Members of the orbit are traced on demand, each only as deep
    as the requested curves need, and the ladder only ever grows.
    """

    def __init__(self, P: Polynomial, slope: int, g_top: float, s: int):
        self.P = P
        self.slope = slope
        self.s = s
        self.r = P.degree ** (-1.0 / s)
        self.potentials = [g_top]
        self.points: dict[Angle, list[complex]] = {}

    def levels_above(self, g: float) -> int:
        """Number of levels above potential g (the top level always counts)."""
        pots = self.potentials
        thr = g * (1.0 + 1e-12)
        while pots[-1] * self.r > thr:
            pots.append(pots[-1] * self.r)
        return max(1, bisect.bisect_left(pots, -thr, key=operator.neg))

    def curve(self, theta: Angle, n: int) -> list[complex]:
        """The first n levels of theta's curve, tracing what is missing."""
        d = self.P.degree
        want: dict[Angle, int] = {}
        a, m = theta, n
        # level k of a needs level k - s of d*a; members already as deep as
        # needed have all their images too
        while m > max(want.get(a, 0), len(self.points.get(a, ()))):
            want[a] = m
            a, m = a.times(d), m - self.s
        image = {a: a.times(d) for a in want}
        start = min(len(self.points.setdefault(a, [])) for a in want) if want else n
        for k in range(start, n):
            for a, m in want.items():
                col = self.points[a]
                if len(col) == k < m:
                    col.append(self._solve(a, image[a], k))
        return self.points[theta]

    def _solve(self, a: Angle, img: Angle, k: int) -> complex:
        t = self.potentials[k]
        if k == 0:
            return bottcher_point(self.P, t, a.fraction(), slope=self.slope)
        if k >= self.s:
            parent = self.points[img][k - self.s]
        else:
            # parents above the ladder top come from the descent evaluator
            parent = bottcher_point(self.P, t * self.P.degree, img.fraction(),
                                    slope=self.slope)
        return self._pull(a, t, parent, k)

    def _pull(self, a: Angle, t: float, parent: complex, k: int) -> complex:
        """Preimage of parent at potential t seeded by level k-1 of a's curve;
        a step much longer than the last one is a jump to a sibling branch."""
        col = self.points[a]
        seed = col[k - 1]
        z = _newton_preimage(self.P, parent, seed)
        if k >= 2:
            # spacings at noise level carry no branch information: Newton
            # noise, and the parent's few ulps of rounding, which the solve
            # amplifies by 1/|P'(z)| next to a critical point
            spacing = abs(col[k - 1] - col[k - 2])
            dp = abs(self.P.deriv(z))
            floor = 1e-9 * max(1.0, abs(z)) + (
                math.inf if dp == 0 else 4.0 * EPS * max(1.0, abs(parent)) / dp)
            if spacing > floor and abs(z - seed) > SAFETY * spacing + floor:
                raise BranchJump(f"continuation step rejected at potential {t:.3e} "
                                 f"(angle {a}, slope {self.slope:+d})")
        return z

    def endpoint(self, theta: Angle, g: float, n: int) -> complex:
        """Point of theta's curve at a potential g between level n-1 and n.

        Its parents g*d^j lie between levels too; they are pulled back along
        their own chain from the first one above the ladder, each link seeded
        by the nearest level above it on the same member's curve.
        """
        d = self.P.degree
        links: list[tuple[Angle, float, int]] = []
        a, t, k = theta, g, n
        while k > 0:
            links.append((a, t, k))
            a, t, k = a.times(d), t * d, k - self.s
        z = bottcher_point(self.P, t, a.fraction(), slope=self.slope)
        for a, t, k in reversed(links):
            z = self._pull(a, t, z, k)
        return z


# Orbit ladders keyed by everything that shapes a trace: the polynomial, the
# slope, the top potential and the substeps.  Curves through one angle orbit
# share a ladder, and deeper requests extend it in place.
_ray_cache: dict[tuple, _OrbitLadder] = {}


def _on_ladder(P: Polynomial, slope: int, g_top: float, substeps: int, fn):
    """fn(ladder, keep) on the cached ladder with `substeps` levels per degree
    step, retried on twice and four times as fine a ladder after a branch
    jump; keep = ladder substeps / substeps thins the result back."""
    last_exc: Exception | None = None
    for keep in (1, 2, 4):
        key = (P.coeffs, slope, g_top, keep * substeps)
        lad = _ray_cache.get(key)
        if lad is None:
            lad = _ray_cache[key] = _OrbitLadder(P, slope, g_top, keep * substeps)
        try:
            return fn(lad, keep)
        except BranchJump as exc:
            last_exc = exc
    raise last_exc  # type: ignore[misc]


def _ray_on(lad: _OrbitLadder, theta: Angle, g_end: float, keep: int) -> RayPolyline:
    n = lad.levels_above(g_end)
    pts = lad.curve(theta, n)[:n:keep] + [lad.endpoint(theta, g_end, n)]
    pots = lad.potentials[:n:keep] + [g_end]
    return RayPolyline(theta, np.array(pts, dtype=complex), np.array(pots))


def trace_ray(P: Polynomial, theta: Angle, g_start: float, g_end: float,
              substeps: int = DEFAULT_SUBSTEPS) -> RayPolyline:
    """Trace R_P(theta) from potential g_start down to g_end.

    The points sit on the potential ladder g_start*d^(-k/substeps) above
    g_end, followed by the point at g_end.
    """
    if not (g_start > g_end > 0):
        raise ValueError("need g_start > g_end > 0")
    return _on_ladder(P, 0, g_start, substeps,
                      lambda lad, keep: _ray_on(lad, theta, g_end, keep))


def _polish_preperiodic(P: Polynomial, z: complex, preperiod: int, period: int,
                        max_iter: int = 400) -> Optional[complex]:
    """Newton on P^(l+p)(z) - P^l(z) from z; None if it wanders off.

    Multiple roots (parabolic landing points) converge only linearly and
    bottom out on a cancellation-noise shell whose radius depends on where
    the point sits; the best iterate seen is therefore returned when the
    step-size criterion is never met.  The polish is a locator, not a
    residual minimizer.
    """
    z0 = z
    best = z
    best_step = math.inf
    for _ in range(max_iter):
        a, da = P.iterate_with_deriv(z, preperiod + period)
        b, db = P.iterate_with_deriv(z, preperiod)
        f = a - b
        df = da - db
        if df == 0:
            break
        step = f / df
        z = z - step
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
        if abs(z - z0) > 2.0 * (1.0 + abs(z0)):
            return None
        if abs(step) < best_step:
            best_step = abs(step)
            best = z
        if abs(step) < 1e-10 * max(1.0, abs(z)):
            return z
    return best if best_step < 1e-4 else None


def landing_point(ray: RayPolyline, P: Polynomial) -> Landing:
    """Landing analysis of a deeply traced ray.

    Primary test: geometric contraction of the tail (ratio < 0.95 over the
    last 10 levels) with the tail already inside a 1e-6 neighbourhood.
    Rational angles are then polished by Newton against the preperiodic
    equation identified by the angle orbit.  Parabolic landings approach only
    like a power of 1/log(1/potential), so they are accepted through the
    polished root when the tail moves monotonically toward it.
    """
    if ray.potentials[-1] >= 1e-8:
        raise ValueError("ray must be traced to potential below 1e-8")
    pts = ray.points
    tail = pts[-11:]
    diffs = np.abs(np.diff(tail))
    nonzero = diffs > 0
    geometric = True
    for i in range(len(diffs) - 1):
        if diffs[i] == 0:
            continue
        if diffs[i + 1] > 0.95 * diffs[i] + 1e-15:
            geometric = False
            break
    est = complex(pts[-1])

    preperiod, period, _ = tuple_orbit(ray.angle, P.degree)
    polished = _polish_preperiodic(P, est, preperiod, period)

    if polished is not None and abs(polished - est) < 1e-6:
        within = np.abs(tail - polished) < 1e-6
        if within.all():
            return Landing(polished, True, "geometric" if geometric else "polished")
    if geometric and not nonzero.any():
        return Landing(est, True, "geometric")
    if geometric and np.abs(tail - est)[:-1].max() < 1e-6:
        return Landing(est, True, "geometric")

    if polished is not None:
        # sub-geometric (parabolic) approach: require monotone approach
        dist = np.abs(pts[-40:] - polished)
        monotone = bool(np.all(np.diff(dist) <= 1e-15 + 1e-9 * dist[:-1]))
        if monotone and dist[-1] < 0.25:
            return Landing(polished, True, "polished")

    # secondary Cauchy criterion for slow tails
    if np.abs(tail - est).max() < 1e-5:
        return Landing(est, True, "cauchy")
    return Landing(est, False, "none")


def land_ray(P: Polynomial, theta: Angle, *, g_start: float = 2.0,
             substeps: int = DEFAULT_SUBSTEPS, g_land: float = LAND_POTENTIAL) -> RayPolyline:
    """Trace a ray deep enough to land it and attach the landing record.

    Slowly repelling landing points (multiplier close to the unit circle)
    contract the tail only like a small power of the potential; the trace is
    deepened adaptively, with the required depth estimated from the observed
    approach exponent, by extending the ray's orbit ladder.  Parabolic
    approaches cannot reach the landing point at representable potentials and
    keep their polished landing.
    """
    def land(lad: _OrbitLadder, keep: int) -> RayPolyline:
        ray = _ray_on(lad, theta, g_land, keep)
        landing = landing_point(ray, P)
        g_cur = g_land
        for _ in range(6):
            if not landing.converged:
                break
            d1 = abs(complex(ray.points[-1]) - landing.point)
            if d1 < 1e-6:
                break
            d0 = abs(complex(ray.points[-1 - substeps]) - landing.point)
            if not (0 < d1 < d0):
                break
            nu = math.log(d0 / d1) / math.log(P.degree)
            try:
                t_req = g_cur * (2e-7 / d1) ** (1.0 / nu)
            except OverflowError:
                break
            if not (1e-280 < t_req < g_cur):
                break
            g_cur = t_req
            ray = _ray_on(lad, theta, g_cur, keep)
            landing = landing_point(ray, P)
        return RayPolyline(ray.angle, ray.points, ray.potentials, landing)

    return _on_ladder(P, 0, g_start, substeps, land)


def equipotential_polyline(P: Polynomial, g0: float, n: int = 256) -> np.ndarray:
    """Closed polyline of the equipotential at potential g0, n+1 points ccw."""
    if g0 <= 0:
        raise ValueError("potential must be positive")
    if n < 64:
        raise ValueError("need at least 64 samples")
    anchor = anchor_potential(P)
    ch = _descend_chain(P, g0, Fraction(0), 0.0, 0, anchor)
    offs = [j / n for j in range(n + 1)]
    pts, _ = _trace_angular(P, g0, Fraction(0), offs, ch, anchor)
    pts[-1] = pts[0]
    return np.array(pts, dtype=complex)


def equipotential_arc(P: Polynomial, g0: float, frac: Fraction, off_lo: float,
                      off_hi: float, max_step: float = 1.0 / 512) -> np.ndarray:
    """Arc of an equipotential between two lifted angle offsets (ccw)."""
    anchor = anchor_potential(P)
    span = off_hi - off_lo
    if span <= 0:
        raise ValueError("need off_hi > off_lo")
    n = max(32, int(math.ceil(span / max_step)))
    ch = _descend_chain(P, g0, frac, off_lo, 0, anchor)
    offs = [off_lo + span * j / n for j in range(n + 1)]
    pts, _ = _trace_angular(P, g0, frac, offs, ch, anchor)
    return np.array(pts, dtype=complex)


@dataclass(frozen=True)
class SpiralArc:
    """One side arc of a carrot: angle(theta) = base +/- potential."""

    base: Angle
    sign: int
    points: np.ndarray
    potentials: np.ndarray


def trace_spiral(P: Polynomial, base: Angle, sign: int, g_hi: float, g_lo: float,
                 substeps: int = 16) -> SpiralArc:
    """Trace the slope-one logarithmic spiral through the angle `base`.

    The polynomial maps the spiral through theta onto the spiral through
    d*theta at d times the potential, so the angle orbit is traced together
    on one geometric ladder from g_hi down to the last level above g_lo (see
    `_OrbitLadder`).  Carrot sides for periodic and preperiodic cuts are both
    instances of this.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if g_hi > 1.0:
        raise ValueError("spiral tracing starts below potential 1")

    def spiral(lad: _OrbitLadder, keep: int) -> SpiralArc:
        n = lad.levels_above(g_lo)
        pts = lad.curve(base, n)[:n:keep]
        return SpiralArc(base, sign, np.array(pts, dtype=complex),
                         np.array(lad.potentials[:n:keep]))

    return _on_ladder(P, sign, g_hi, substeps, spiral)


def external_angle(P: Polynomial, z: complex, *, g: Optional[float] = None,
                   coarse: int = 96, refine_iter: int = 60) -> float:
    """External angle (turns) of an escaping point, by equipotential search.

    Robust near the filled Julia set where argument-tracking products are
    branch-ambiguous: scan the equipotential through z, then minimize the
    distance along it.
    """
    from .poly import green_potential

    if g is None:
        g = green_potential(P, z)
    if g <= 0:
        raise ValueError("point does not escape; no external angle")
    anchor = anchor_potential(P)
    ch = _descend_chain(P, g, Fraction(0), 0.0, 0, anchor)
    offs = [j / coarse for j in range(coarse + 1)]
    pts, _ = _trace_angular(P, g, Fraction(0), offs, ch, anchor)
    dists = [abs(p - z) for p in pts]
    k = int(np.argmin(dists[:-1]))
    lo = offs[k] - 1.0 / coarse
    hi = offs[k] + 1.0 / coarse
    chain = _descend_chain(P, g, Fraction(0), lo, 0, anchor)

    def point_at(off: float, chain_box=[chain]):
        p, ch2 = _trace_angular(P, g, Fraction(0), [off], chain_box[0], anchor)
        chain_box[0] = ch2
        return p[0]

    # golden-section on |point(theta) - z|
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc = abs(point_at(c) - z)
    fd = abs(point_at(d_) - z)
    for _ in range(refine_iter):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = abs(point_at(c) - z)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = abs(point_at(d_) - z)
        if b - a < 1e-12:
            break
    return ((a + b) / 2.0) % 1.0
