"""External rays, equipotentials and spiral arcs in Boettcher coordinates.

The inverse Boettcher map psi = Phi^-1 is a Laurent series at infinity
(`poly.InverseBottcher`, kept on the polynomial as `P.inverse_bottcher`).
It converges above g_max, the largest Green potential of a critical point
(0 when the Julia set is connected), and two floors above g_max divide the
work:

- the direct band, potential g >= g_max + SERIES_DIRECT: a point or an
  equipotential sweep is the series itself (`_direct`), with no pullback;
- below it, a point is the bottom of a pullback chain (`_chain_solve`).
  Level j sits at potential g*d^j, up to the first level m at or above
  g_max + SERIES_TOP, whose point is psi(w) and whose tangent is
  d^m*w*psi'(w).  Each lower level is a Newton solve of P(z) = parent seeded
  near the wanted branch, rejected as a jump to a sibling branch when it
  steps much farther than the step before it (`_pullback`).

Rays and carrot-side spirals are traced on an orbit ladder: the curves
through an angle orbit share one geometric potential ladder, level k at
g_top*d^(-k/s).  P maps the curve through theta at level k onto the curve
through d*theta one degree step (s levels) higher, so each point is a single
pullback of its parent, seeded by the point one level up on the same curve;
a ray to potential t costs O(levels) instead of O(levels*depth).  Ladders
belong to one call, not to the polynomial: `land_rays` and `trace_spirals`
trace all of a stage's curves on ladders keyed by slope, top potential and
substeps that live only as long as the call, and `land_rays` deepens a ray
by extending its ladder in place.  Parents above a ladder's top are points
of their own, in the direct band the series.

Below the direct floor, points and equipotentials walk one pullback chain
over (potential, offset) nodes (`_walk`): each node's chain is seeded by
the previous node's chain moved along its tangent (a first-order
predictor), and its levels above the previous chain's top by the series.
Points and sweeps walk from a descent spine (`Spine`): the chains down one
ray from the direct floor, kept on a fixed ladder, from which a point at
potential g is one node on and an equipotential sweeps the offset at fixed
potential.  A caller that needs many points near one angle, such as the
surgery's Coons patch, keeps one spine and pays for the descent once.  A
rejected step inserts the midpoint node.  Angles are carried as an
exact rational part plus a float offset that scales with the potential, so
deep tails lose no angular precision.  An external angle is read off the
Boettcher product formula far out on the orbit and pulled back along it.

A scalar engine on Python complex, so `polyrenorm ray` starts without numpy:
rays, spirals and equipotentials are tuples or lists of Python complex and
float, which callers doing array math convert with `np.asarray`.  Two paths
import numpy, both only for ARRAY_SWEEP_MIN or more offsets: a direct-band
sweep evaluates the series on an array, and `Spine.sweeps` walks the legs
of many rows below the floor together (`wavefront`).  Both keep every
point's bits, so ARRAY_SWEEP_MIN chooses speed, never a point.
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

from .angles import Angle, tuple_orbit
from .errors import BranchJump, NonConvergence, RenormError
from .poly import InverseBottcher, Polynomial, green_potential, newton_preperiodic

# The two floors, as margins above the largest critical Green potential g_max
# (`InverseBottcher.g_max`), where the inverse Boettcher series converges:
# a chain's top is its first level at or above g_max + SERIES_TOP (at most
# 76 terms), and a point at or above g_max + SERIES_DIRECT is the series
# itself (at most 391 terms).
SERIES_TOP = 0.5
SERIES_DIRECT = 0.1
# Accepted Newton displacement vs the previous same-level spacing.  Natural
# steps shrink by only d^(-1/substeps) per step while a sibling-branch jump
# exceeds the spacing by orders of magnitude, so a factor slightly above 1
# separates the two regimes cleanly.
SAFETY = 1.25
EPS = sys.float_info.epsilon
MAX_SUBDIV = 20
LAND_POTENTIAL = 1e-9
DEFAULT_SUBSTEPS = 8
MAX_SWEEP_NODES = 100_000  # bound on the nodes of one equipotential sweep
ARRAY_SWEEP_MIN = 16  # direct-band sweeps with this many offsets run on arrays


def _pullback(P: Polynomial, w: complex, seed: complex, ref: complex,
              spacing: float) -> tuple[complex, complex]:
    """(z, P'(z)) for the preimage z of w that Newton reaches from seed.

    A preimage much farther from ref than `spacing`, the step before it
    (scaled up when this step is longer), is a jump to a sibling branch and
    raises BranchJump; spacing inf tests nothing.
    """
    z, dp = P.preimage_near(w, seed)
    step = abs(z - ref)
    floor = 1e-9 * max(1.0, abs(z))
    if spacing > floor and step > SAFETY * spacing + floor:
        # spacings at noise level carry no branch information: Newton noise,
        # and the parent's few ulps of rounding, which the solve amplifies by
        # 1/|P'(z)| next to a critical point
        floor += math.inf if dp == 0 else 4.0 * EPS * max(1.0, abs(w)) / abs(dp)
        if spacing > floor and step > SAFETY * spacing + floor:
            raise BranchJump(f"pullback of {w:.6g} stepped {step:.3g} "
                             f"after a step of {spacing:.3g}")
    return z, dp


@dataclass
class _Chain:
    """Pullback chain at node (t, off); level j sits at potential t*d^j.

    Level j is holomorphic in zeta = t + 2*pi*i*off, so one tangent gives both
    partials: dz_j/dt = tangents[j] and dz_j/doff = 2*pi*i*tangents[j].
    """

    t: float
    off: float
    points: list[complex]
    tangents: list[complex]
    spacings: list[float]  # |points[j] - previous node's points[j]|, inf if none
    dzeta: float  # |zeta - previous node's zeta|, 0 if none


def _chain_solve(P: Polynomial, t: float, frac: Fraction, off: float,
                 prev: Optional[_Chain], psi: InverseBottcher) -> _Chain:
    d = P.degree
    m = 0
    while t * d**m < psi.g_max + SERIES_TOP:
        m += 1
    # the rational part as integer numerators over q: num/q rounds exactly
    # as float(Fraction(num, q)) does
    q = frac.denominator
    nums = [frac.numerator % q]
    for _ in range(m):
        nums.append(nums[-1] * d % q)

    def w(j: int) -> complex:
        return cmath.rect(math.exp(t * d**j), 2.0 * math.pi * (nums[j] / q + off * d**j))

    pts: list[complex] = [0j] * (m + 1)
    tans: list[complex] = [0j] * (m + 1)
    pts[m], tans[m] = psi.with_tangent(w(m), t * d**m)
    tans[m] *= d**m
    known, dzeta, grow = 0, 0.0, 1.0
    if prev is not None:
        known = len(prev.points)
        step = complex(t - prev.t, 2.0 * math.pi * (off - prev.off))
        dzeta = abs(step)
        if prev.dzeta > 0:
            # a step longer than the one before may move the points
            # proportionally farther: a short step followed by a long one is
            # no branch jump
            grow = max(1.0, dzeta / prev.dzeta)
    for j in range(m - 1, -1, -1):
        near = j < known
        seed = prev.points[j] + prev.tangents[j] * step if near else psi(w(j), t * d**j)
        pts[j], dp = _pullback(P, pts[j + 1], seed, prev.points[j] if near else seed,
                               grow * prev.spacings[j] if near else math.inf)
        tans[j] = tans[j + 1] / dp if dp != 0 else 0j
    spacings = [abs(pts[j] - prev.points[j]) if j < known else math.inf
                for j in range(m + 1)]
    return _Chain(t, off, pts, tans, spacings, dzeta)


def _walk(P: Polynomial, frac: Fraction, nodes: Sequence[tuple[float, float, bool]],
          prev: Optional[_Chain]) -> tuple[list[complex], _Chain]:
    """Chains at the (potential, offset, requested) nodes in order, each
    seeded by the one before (the first by prev); returns the points at the
    requested nodes and the last chain.

    A rejected step retries after the node midway to the previous one,
    geometric in potential and arithmetic in offset; only requested nodes
    appear in the output.
    """
    psi = P.inverse_bottcher
    out: list[complex] = []
    stack = [(t, off, 0, requested) for t, off, requested in reversed(nodes)]
    while stack:
        t, off, depth, requested = stack.pop()
        try:
            ch = _chain_solve(P, t, frac, off, prev, psi)
        except (BranchJump, NonConvergence) as exc:
            if depth >= MAX_SUBDIV or prev is None:
                raise BranchJump(f"continuation failed at potential {t:.3e} "
                                 f"(angle {frac}{off:+g})") from exc
            # sqrt(t*t) is t only above 1e-154, so sweeps keep t as it is
            t_mid = t if prev.t == t else math.sqrt(prev.t * t)
            stack.append((t, off, depth + 1, requested))
            stack.append((t_mid, 0.5 * (prev.off + off), depth + 1, False))
            continue
        prev = ch
        if requested:
            out.append(ch.points[0])
    return out, prev


def _levels_above(pots: list[float], r: float, g: float) -> int:
    """Number of levels of the ladder `pots` (repeated multiplication by r)
    above potential g, extending it as needed; the top level always counts."""
    thr = g * (1.0 + 1e-12)
    while pots[-1] * r > thr:
        pots.append(pots[-1] * r)
    return max(1, bisect.bisect_left(pots, -thr, key=operator.neg))


def _direct(P: Polynomial, g: float, frac: Fraction, offs: Sequence[float]) -> list[complex]:
    """The series psi at potential g and angles frac + off for the offsets
    `offs`, for g in the direct band: each w by `cmath.rect`, then psi on it,
    one array pass for ARRAY_SWEEP_MIN or more offsets to the same bits."""
    psi = P.inverse_bottcher
    base = (frac.numerator % frac.denominator) / frac.denominator
    ws = [cmath.rect(math.exp(g), 2.0 * math.pi * (base + o)) for o in offs]
    if len(ws) < ARRAY_SWEEP_MIN:
        return [psi(w, g) for w in ws]
    import numpy as np
    return psi(np.array(ws), g).tolist()


class Spine:
    """The radial descent at angle frac + off, kept for points and sweeps at
    any potential.

    From the direct floor g_max + SERIES_DIRECT up, points are the series
    (`_direct`) and no chain is walked.  Below it, the spine's chains sit on
    the ladder floor*d^(-k/8), the first one cold at the floor and each
    other walked from the one above; they are extended on demand and kept:
    a chain's bits do not depend on how deep the spine went before.  The
    point (g, off) is one node on from the deepest ladder chain above
    g*(1+1e-12) (in floats that factor exceeds 1 by 1.00009e-12, so that
    chain is never within 1e-12 of g).
    """

    def __init__(self, P: Polynomial, frac: Fraction, off: float):
        self.P = P
        self.frac = frac
        self.off = off
        self.floor = P.inverse_bottcher.g_max + SERIES_DIRECT
        self._r = P.degree ** (-1.0 / DEFAULT_SUBSTEPS)
        self._potentials = [self.floor]
        self._chains: list[_Chain] = []

    def _descend(self, g: float) -> _Chain:
        """The chain at (g, off), for g below the floor."""
        k = _levels_above(self._potentials, self._r, g)
        chains = self._chains
        while len(chains) < k:
            node = (self._potentials[len(chains)], self.off, False)
            chains.append(_walk(self.P, self.frac, [node], chains[-1] if chains else None)[1])
        return _walk(self.P, self.frac, [(g, self.off, False)], chains[k - 1])[1]

    def _legs(self, g: float, offs: Sequence[float]):
        """The node lists (g, offset, requested) of the sweep's two legs out
        from (g, off), right then left, or None at or above the floor."""
        if g <= 0:
            raise ValueError("potential must be positive")
        for a, b in zip(offs[:-1], offs[1:]):
            if b < a:
                raise ValueError("offsets must be non-decreasing")
        if g >= self.floor:
            return None
        max_step = 0.05 * g
        split = bisect.bisect_left(offs, self.off)
        legs = [[(a, b, max(1, math.ceil(abs(b - a) / max_step)))
                 for a, b in zip(side[:-1], side[1:])]
                for side in ([self.off, *offs[split:]], [self.off, *offs[:split][::-1]])]
        total = sum(k for leg in legs for _, _, k in leg)
        if total > MAX_SWEEP_NODES:
            raise RenormError(f"equipotential sweep at potential {g:.3g} over an angle span "
                              f"of {offs[-1] - offs[0]:.3g} needs {total} nodes, "
                              f"more than {MAX_SWEEP_NODES}")
        return [[(g, a + (b - a) * i / k, i == k) for a, b, k in leg for i in range(1, k + 1)]
                for leg in legs]

    def sweep(self, g: float, offs: Sequence[float]) -> list[complex]:
        """Points at potential g and angles frac + o for the non-decreasing
        offsets `offs` (lifted reals).

        At or above the floor they are the series.  Below it, the walk
        descends to (g, off) and sweeps out from there to the offsets on
        either side.  Angular steps amplify by d per chain level, so a sweep
        step is at most 0.05*g, and each gap takes at least one: the node
        count grows like the span over g, and a sweep needing more than
        MAX_SWEEP_NODES nodes raises RenormError before any walk.
        """
        legs = self._legs(g, offs)
        if legs is None:
            return _direct(self.P, g, self.frac, offs)
        start = self._descend(g)
        right, left = (_walk(self.P, self.frac, leg, start)[0] for leg in legs)
        return left[::-1] + right

    def sweeps(self, rows: Sequence[tuple[float, Sequence[float]]]) -> list[list[complex]]:
        """`sweep(g, offs)` for each (g, offs) of rows, the same bits and the
        same first error.  Below the floor, the legs of the rows with
        ARRAY_SWEEP_MIN or more offsets are walked together on arrays
        (`wavefront.walk_legs`) after their descents, and a leg the arrays
        give up on is walked again by `_walk`, in order; a lone row's two
        legs are not worth it, so `sweep` stays scalar."""
        out: list = [None] * len(rows)
        batch = []  # (row, start chain, right leg, left leg)
        try:
            for r, (g, offs) in enumerate(rows):
                legs = self._legs(g, offs) if len(offs) >= ARRAY_SWEEP_MIN else None
                if legs is not None:
                    batch.append((r, self._descend(g), *legs))
                else:
                    out[r] = self.sweep(g, offs)
        finally:
            # rows before one that fails are still walked, and fail first
            if batch:
                from .wavefront import walk_legs
                legs = [(start, leg) for _, start, *sides in batch for leg in sides]
                pts = [p if p is not None else _walk(self.P, self.frac, leg, start)[0]
                       for (start, leg), p in zip(legs, walk_legs(self.P, self.frac, legs))]
                for k, (r, *_) in enumerate(batch):
                    out[r] = pts[2 * k + 1][::-1] + pts[2 * k]
        return out


def _point(P: Polynomial, g: float, frac: Fraction, off: float) -> complex:
    spine = Spine(P, frac, off)
    if g >= spine.floor:
        return _direct(P, g, frac, [off])[0]
    return spine._descend(g).points[0]


def bottcher_point(P: Polynomial, g: float, theta: Angle | Fraction | float) -> complex:
    """The point of the basin of infinity at potential g and angle theta."""
    if g <= 0:
        raise ValueError("potential must be positive")
    if isinstance(theta, Angle):
        return _point(P, g, theta.fraction(), 0.0)
    if isinstance(theta, Fraction):
        return _point(P, g, theta, 0.0)
    return _point(P, g, Fraction(0), float(theta))


def equipotential_points(P: Polynomial, g: float, frac: Fraction,
                         offs: Sequence[float]) -> list[complex]:
    """Points at potential g and angles frac + off for the non-decreasing
    offsets `offs`: one sweep of a spine at the first offset (`Spine.sweep`)."""
    return Spine(P, frac, offs[0]).sweep(g, offs)


@dataclass(frozen=True)
class Landing:
    point: complex
    converged: bool
    method: str  # geometric | polished | cauchy | none


@dataclass(frozen=True)
class RayPolyline:
    """A traced external ray, ordered by strictly decreasing potential."""

    angle: Angle
    points: tuple[complex, ...]
    potentials: tuple[float, ...]
    landing: Optional[Landing] = None


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
            return _point(self.P, t, a.fraction(), self.slope * t)
        if k >= self.s:
            parent = self.points[img][k - self.s]
        else:
            # parents above the ladder top come from a descent
            tp = t * self.P.degree
            parent = _point(self.P, tp, img.fraction(), self.slope * tp)
        return self._pull(a, t, parent, k)

    def _pull(self, a: Angle, t: float, parent: complex, k: int) -> complex:
        """Pullback of parent at potential t seeded by level k-1 of a's curve
        and checked against the step from level k-2."""
        col = self.points[a]
        spacing = abs(col[k - 1] - col[k - 2]) if k >= 2 else math.inf
        try:
            return _pullback(self.P, parent, col[k - 1], col[k - 1], spacing)[0]
        except BranchJump as exc:
            raise BranchJump(f"{exc} at potential {t:.3e} "
                             f"(angle {a}, slope {self.slope:+d})") from None

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
        z = _point(self.P, t, a.fraction(), self.slope * t)
        for a, t, k in reversed(links):
            z = self._pull(a, t, z, k)
        return z


def _on_ladder(ladders: dict[tuple, _OrbitLadder], P: Polynomial, slope: int,
               g_top: float, substeps: int, fn):
    """fn(ladder, keep) on the ladder in `ladders` (one call's, keyed by slope,
    top potential and substeps) with `substeps` levels per degree step,
    retried on twice and four times as fine a ladder after a branch jump;
    keep = ladder substeps / substeps thins the result back."""
    last_exc: Exception | None = None
    for keep in (1, 2, 4):
        key = (slope, g_top, keep * substeps)
        lad = ladders.get(key)
        if lad is None:
            lad = ladders[key] = _OrbitLadder(P, slope, g_top, keep * substeps)
        try:
            return fn(lad, keep)
        except BranchJump as exc:
            last_exc = exc
    raise last_exc  # type: ignore[misc]


def _ray_on(lad: _OrbitLadder, theta: Angle, g_end: float, keep: int) -> RayPolyline:
    n = _levels_above(lad.potentials, lad.r, g_end)
    pts = lad.curve(theta, n)[:n:keep] + [lad.endpoint(theta, g_end, n)]
    pots = lad.potentials[:n:keep] + [g_end]
    return RayPolyline(theta, tuple(pts), tuple(pots))


def trace_ray(P: Polynomial, theta: Angle, g_start: float, g_end: float,
              substeps: int = DEFAULT_SUBSTEPS) -> RayPolyline:
    """Trace R_P(theta) from potential g_start down to g_end.

    The points sit on the potential ladder g_start*d^(-k/substeps) above
    g_end, followed by the point at g_end.
    """
    if not (g_start > g_end > 0):
        raise ValueError("need g_start > g_end > 0")
    return _on_ladder({}, P, 0, g_start, substeps,
                      lambda lad, keep: _ray_on(lad, theta, g_end, keep))


def landing_point(ray: RayPolyline, P: Polynomial) -> Landing:
    """Landing analysis of a deeply traced ray.

    Primary test: geometric contraction of the tail (ratio < 0.95 over the
    last 10 levels) with the tail already inside a 1e-6 neighbourhood.
    Rational angles are then polished by `newton_preperiodic` on the
    equation identified by the angle orbit, down to its rounding noise:
    about 1e-8 at a double root (a precritical landing), a few 1e-6 at a
    triple one (a parabolic landing); a polish that ends farther than
    2 (1 + |z|) from the tail's end z is dropped.  Parabolic landings
    approach only like a power of 1/log(1/potential), so they are accepted
    through the polished root when the tail moves monotonically toward it.
    """
    if ray.potentials[-1] >= 1e-8:
        raise ValueError("ray must be traced to potential below 1e-8")
    pts = ray.points
    tail = pts[-11:]
    diffs = [abs(b - a) for a, b in zip(tail, tail[1:])]
    geometric = all(b <= 0.95 * a + 1e-15 for a, b in zip(diffs, diffs[1:]) if a != 0)
    est = pts[-1]

    preperiod, period, _ = tuple_orbit(ray.angle, P.degree)
    polished = newton_preperiodic(P, est, preperiod, period)
    if polished is not None and abs(polished - est) > 2.0 * (1.0 + abs(est)):
        polished = None

    if polished is not None and abs(polished - est) < 1e-6:
        if all(abs(z - polished) < 1e-6 for z in tail):
            return Landing(polished, True, "geometric" if geometric else "polished")
    spread = [abs(z - est) for z in tail]
    if geometric and (not any(diffs) or max(spread[:-1]) < 1e-6):
        return Landing(est, True, "geometric")

    if polished is not None:
        # sub-geometric (parabolic) approach: require monotone approach
        dist = [abs(z - polished) for z in pts[-40:]]
        monotone = all(b - a <= 1e-15 + 1e-9 * a for a, b in zip(dist, dist[1:]))
        if monotone and dist[-1] < 0.25:
            return Landing(polished, True, "polished")

    # secondary Cauchy criterion for slow tails
    if max(spread) < 1e-5:
        return Landing(est, True, "cauchy")
    return Landing(est, False, "none")


def land_rays(P: Polynomial, thetas: Sequence[Angle], *, g_start: float = 2.0,
              g_land: float = LAND_POTENTIAL) -> list[RayPolyline]:
    """Trace each ray deep enough to land it and attach the landing record.

    The rays share this call's orbit ladders.  Slowly repelling landing
    points (multiplier close to the unit circle) contract the tail only like
    a small power of the potential; each ray is deepened adaptively, to its
    own depth, with the required depth estimated from the observed approach
    exponent, by extending its orbit ladder.  Parabolic approaches cannot
    reach the landing point at representable potentials and keep their
    polished landing.
    """
    def land(theta: Angle, lad: _OrbitLadder, keep: int) -> RayPolyline:
        ray = _ray_on(lad, theta, g_land, keep)
        landing = landing_point(ray, P)
        g_cur = g_land
        for _ in range(6):
            if not landing.converged:
                break
            d1 = abs(ray.points[-1] - landing.point)
            if d1 < 1e-6:
                break
            d0 = abs(ray.points[-1 - DEFAULT_SUBSTEPS] - landing.point)
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

    ladders: dict[tuple, _OrbitLadder] = {}
    return [_on_ladder(ladders, P, 0, g_start, DEFAULT_SUBSTEPS,
                       lambda lad, keep: land(theta, lad, keep))
            for theta in thetas]


def equipotential_polyline(P: Polynomial, g0: float, n: int = 256) -> list[complex]:
    """Closed polyline of the equipotential at potential g0, n+1 points ccw."""
    if n < 64:
        raise ValueError("need at least 64 samples")
    pts = equipotential_points(P, g0, Fraction(0), [j / n for j in range(n + 1)])
    pts[-1] = pts[0]
    return pts


def equipotential_arc(P: Polynomial, g0: float, frac: Fraction, off_lo: float,
                      off_hi: float, max_step: float = 1.0 / 512) -> list[complex]:
    """Arc of an equipotential between two lifted angle offsets (ccw)."""
    span = off_hi - off_lo
    if span <= 0:
        raise ValueError("need off_hi > off_lo")
    n = max(32, int(math.ceil(span / max_step)))
    offs = [off_lo + span * j / n for j in range(n + 1)]
    return equipotential_points(P, g0, frac, offs)


@dataclass(frozen=True)
class SpiralArc:
    """One side arc of a carrot: angle(theta) = base +/- potential."""

    points: tuple[complex, ...]
    potentials: tuple[float, ...]


def trace_spirals(P: Polynomial, sides: Sequence[tuple[Angle, int]], g_hi: float,
                  g_lo: float, substeps: int) -> list[SpiralArc]:
    """Trace the slope-one logarithmic spiral through `base` in the sense
    `sign` for each (base, sign) of `sides`.

    The polynomial maps the spiral through theta onto the spiral through
    d*theta at d times the potential, so each angle orbit is traced together
    on one geometric ladder of this call from g_hi down to the last level
    above g_lo (see `_OrbitLadder`).  Carrot sides for periodic and
    preperiodic cuts are both instances of this.
    """
    if any(sign not in (-1, 1) for _, sign in sides):
        raise ValueError("sign must be +1 or -1")
    if g_hi > 1.0:
        raise ValueError("spiral tracing starts below potential 1")

    def spiral(base: Angle, lad: _OrbitLadder, keep: int) -> SpiralArc:
        n = _levels_above(lad.potentials, lad.r, g_lo)
        pts = lad.curve(base, n)[:n:keep]
        return SpiralArc(tuple(pts), tuple(lad.potentials[:n:keep]))

    ladders: dict[tuple, _OrbitLadder] = {}
    return [_on_ladder(ladders, P, sign, g_hi, substeps,
                       lambda lad, keep: spiral(base, lad, keep))
            for base, sign in sides]


def external_angle(P: Polynomial, z: complex) -> float:
    """External angle (turns) of an escaping point.

    z is mapped forward to the first w with |w| >= 2 and sum_{j<d} |c_j|
    |w|^(j-d) <= 1/2.  On that forward-invariant neighbourhood of infinity
    P(w)/w^d lies within 1/2 of 1, so the Boettcher map is the product
    w * prod_k (P(w_k)/w_k^d)^(1/d^(k+1)) over the orbit of w, on principal
    branches (Milnor, Dynamics in One Complex Variable, Thm 9.1); its argument
    is summed until a term falls below rounding.  The angle is then pulled
    back a level at a time to the candidate (theta + m)/d whose point lies
    nearest the orbit.
    """
    g = green_potential(P, z)
    if g <= 0:
        raise ValueError("point does not escape; no external angle")
    d, cs = P.degree, P.coeffs
    orbit = [complex(z)]
    while abs(orbit[-1]) < 2.0 or sum(abs(c) * abs(orbit[-1]) ** (j - d)
                                      for j, c in enumerate(cs[:-1])) > 0.5:
        orbit.append(P(orbit[-1]))
    arg, u, scale = cmath.phase(orbit[-1]), 1.0 / orbit[-1], 1
    while u:
        q = cs[0]  # P(w)/w^d as a polynomial in u = 1/w, so nothing overflows
        for c in cs[1:]:
            q = q * u + c
        scale *= d
        term = cmath.phase(q) / scale
        if abs(term) <= EPS * abs(arg):
            break
        arg, u = arg + term, u**d / q
    theta = (arg / (2.0 * math.pi)) % 1.0
    for j in range(len(orbit) - 2, -1, -1):
        theta = min(((theta + m) / d for m in range(d)),
                    key=lambda t: abs(bottcher_point(P, g * d**j, t) - orbit[j]))
    return theta
