"""Cuts, wedges and cut families: admissibility, legality, root classification.

A root's terminal cycle comes from `poly.cycle_through` and its petals from
`poly.return_petals`; no cycle census runs here."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .angles import Angle, angle_in_arc, tuple_orbit
from .bottcher import (RayPolyline, bottcher_point, equipotential_arc, external_angle,
                       land_rays)
from .errors import DegreeMismatch, NoColanding, RayNotConverged
from .grid import crossing_parity, distance_to_polyline
from .poly import (Cycle, Polynomial, critical_points, cycle_through, green_potential,
                   return_petals, unity_order)

COLAND_TOL = 1e-5
ROOT_MATCH_TOL = 1e-6
BOUNDARY_EPS = 1e-9
PETAL_RADIUS = 1e-4


@dataclass(frozen=True)
class Cut:
    """Two co-landing external rays with their common root point.

    Degenerate when both angles coincide; then the cut is the single ray and
    it bounds no wedge.
    """

    theta_r: Angle
    theta_l: Angle
    root: complex
    degenerate: bool
    ray_r: RayPolyline
    ray_l: RayPolyline

    @property
    def pair(self) -> tuple[Angle, Angle]:
        return (self.theta_r, self.theta_l)

    def image_pair(self, d: int) -> tuple[Angle, Angle]:
        return (self.theta_r.times(d), self.theta_l.times(d))

    def arc_width(self) -> Fraction:
        """ccw arc from theta_r to theta_l (the wedge side); 0 if degenerate."""
        return Fraction(0) if self.degenerate else self.theta_r.ccw_to(self.theta_l)


def build_cut(ray_r: RayPolyline, ray_l: RayPolyline) -> Cut:
    """Verify that two landed rays co-land and assemble their cut.

    The bounded wedge is the side whose external angles lie on the ccw arc
    from ray_r's angle to ray_l's, so the caller's argument order fixes
    orientation.  Equal angles make the degenerate cut of one ray.
    """
    for ray in (ray_r, ray_l):
        if not ray.landing.converged:
            raise RayNotConverged(f"ray {ray.angle} did not land")
    gap = abs(ray_r.landing.point - ray_l.landing.point)
    if gap > COLAND_TOL:
        raise NoColanding(
            f"rays {ray_r.angle} and {ray_l.angle} land {gap:.3g} apart "
            f"({ray_r.landing.point:.6g} vs {ray_l.landing.point:.6g})")
    return Cut(ray_r.angle, ray_l.angle, ray_r.landing.point, ray_r.angle == ray_l.angle,
               ray_r, ray_l)


@dataclass
class Wedge:
    """The complementary component of a nondegenerate cut selected by the
    ccw angle arc (theta_r, theta_l); empty for degenerate cuts."""

    P: Polynomial
    cut: Cut
    g0: float
    boundary: Optional[np.ndarray]  # closed polygon, None when empty

    @classmethod
    def build(cls, P: Polynomial, cut: Cut, g0: float) -> "Wedge":
        if cut.degenerate:
            return cls(P, cut, g0, None)
        ray_r = _ray_with_potential_point(P, cut.ray_r, g0)
        ray_l = _ray_with_potential_point(P, cut.ray_l, g0)
        arc = equipotential_arc(P, g0, cut.theta_r.fraction(), 0.0,
                                float(cut.arc_width()))
        arc[0] = ray_r.points[0]
        arc[-1] = ray_l.points[0]
        poly = np.concatenate([
            ray_r.points,                # g0 down to the tail
            np.array([cut.root]),
            ray_l.points[::-1],          # tail back up to g0
            arc[::-1],                   # from theta_l back to theta_r
        ])
        return cls(P, cut, g0, poly)

    def contains(self, z: complex) -> bool:
        """Even-odd membership; points within 1e-9 of the boundary count as
        outside, and beyond the truncation potential the angle arc decides."""
        if self.boundary is None:
            return False
        g = green_potential(self.P, z)
        if g > self.g0 * (1.0 + 1e-9) + 1e-12:
            theta = external_angle(self.P, z)
            return angle_in_arc(theta, self.cut.theta_r.as_float(),
                                self.cut.theta_l.as_float(), margin=1e-9)
        if not crossing_parity(self.boundary, z):
            return False
        return distance_to_polyline(self.boundary, z) > BOUNDARY_EPS


def _ray_with_potential_point(P: Polynomial, ray: RayPolyline, g0: float) -> RayPolyline:
    """The ray truncated at g0, with an exactly solved point at potential g0."""
    keep = [i for i, t in enumerate(ray.potentials) if t < g0 * (1 - 1e-12)]
    top = bottcher_point(P, g0, ray.angle)
    return RayPolyline(ray.angle, (top, *(ray.points[i] for i in keep)),
                       (g0, *(ray.potentials[i] for i in keep)), ray.landing)


@dataclass(frozen=True)
class CutFlags:
    periodic: bool
    critical_root: bool
    fictitious: bool


@dataclass
class CutFamily:
    """A finite forward-invariant family of cuts with classification data."""

    P: Polynomial
    cuts: tuple[Cut, ...]
    g0: float
    wedges: tuple[Wedge, ...]
    forward_map: tuple[Optional[int], ...]
    flags: tuple[CutFlags, ...]
    root_class: tuple[str, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.cuts)

    @property
    def walls(self) -> list[np.ndarray]:
        """The boundary polygons of the wedges of the non-degenerate cuts."""
        return [w.boundary for w in self.wedges if w.boundary is not None]

    def wedge_hit(self, z: complex) -> bool:
        return any(w.contains(z) for w in self.wedges)

    def critical_indices(self) -> list[int]:
        return [i for i, (c, f) in enumerate(zip(self.cuts, self.flags))
                if f.critical_root and not c.degenerate]

    def orbit(self, i: int) -> list[int]:
        """Cut i and its images under `forward_map`, up to the first repeat
        or missing image."""
        out = [i]
        while (j := self.forward_map[out[-1]]) is not None and j not in out:
            out.append(j)
        return out

    def degree_dc(self) -> int:
        """d_c = d - sum over critical cuts of d*|I|, each term an exact
        integer because the arc endpoints of a critical cut have the same
        image angle; d for a family with no critical cut."""
        d = self.P.degree
        drop = 0
        for i in self.critical_indices():
            k = self.cuts[i].arc_width() * d
            if k.denominator != 1:
                raise DegreeMismatch(
                    f"cut {i}: d*|I| = {k} is not an integer; angles are not a critical pair")
            drop += int(k)
        dc = d - drop
        if dc < 2:
            raise DegreeMismatch(
                f"modified degree would be {dc} < 2; the restriction to the "
                "avoiding set would be injective and the construction degenerates")
        return dc


def build_family(P: Polynomial, pairs: Sequence[tuple[Angle, Angle]], *,
                 g0: float) -> CutFamily:
    # every distinct angle landed once, in order of first appearance
    angles = list(dict.fromkeys(theta for pair in pairs for theta in pair))
    rays = dict(zip(angles, land_rays(P, angles, g_start=max(2.0, 2 * g0))))
    cuts = [build_cut(rays[tr], rays[tl]) for tr, tl in pairs]
    d = P.degree
    index = {c.pair: i for i, c in enumerate(cuts)}
    forward = tuple(index.get(c.image_pair(d)) for c in cuts)

    crit = critical_points(P)
    periodic_flags = [tuple_orbit(c.theta_r, d)[0] == 0 and tuple_orbit(c.theta_l, d)[0] == 0
                      for c in cuts]
    wedges = tuple(Wedge.build(P, c, g0) for c in cuts)
    fam = CutFamily(P, tuple(cuts), g0, wedges, forward, ())
    # fictitious: degenerate cuts in no nondegenerate cut's forward orbit
    reached = {j for i, c in enumerate(cuts) if not c.degenerate for j in fam.orbit(i)}
    fam.flags = tuple(
        CutFlags(periodic=periodic_flags[i],
                 critical_root=min((abs(c.root - cp) for cp in crit),
                                   default=math.inf) < ROOT_MATCH_TOL,
                 fictitious=c.degenerate and i not in reached)
        for i, c in enumerate(cuts))
    fam.root_class = tuple(classify_root(P, fam, c) for c in cuts)
    return fam


def _terminal_cycle(P: Polynomial, cut: Cut) -> Optional[Cycle]:
    """The cycle the cut's root eventually lands on: with l and p the
    preperiod and period of theta_r, the cycle `cycle_through` finds from
    P^l(root) for the least divisor n of p that returns a cycle through a
    point within 1e-5 of P^l(root), or None."""
    pre_r, per_r, _ = tuple_orbit(cut.theta_r, P.degree)
    z = P.iterate(cut.root, pre_r)
    for n in (n for n in range(1, per_r + 1) if per_r % n == 0):
        cyc = cycle_through(P, z, n)
        if cyc is not None and cyc.contains(z, tol=1e-5):
            return cyc
    return None


def classify_root(P: Polynomial, family: CutFamily, cut: Cut) -> str:
    """outward-repelling / outward-parabolic / unresolved.

    A parabolic terminal cycle is probed through its attracting directions: if
    a direction vector at the root points into some wedge of the family the
    root is outward-parabolic.
    """
    cyc = _terminal_cycle(P, cut)
    if cyc is None:
        return "unresolved"
    if cyc.kind == "repelling":
        return "outward-repelling"
    if cyc.kind != "parabolic":
        return "unresolved"
    # the root itself must be on the parabolic cycle for petals to be attached
    on_cycle = cyc.contains(cut.root, tol=1e-5)
    if not on_cycle:
        return "outward-repelling"
    dirs = _attracting_directions(P, cyc, cut.root)
    if dirs is None:
        return "unresolved"
    for v in dirs:
        probe = cut.root + PETAL_RADIUS * v
        if any(w.contains(probe) for w in family.wedges):
            return "outward-parabolic"
    return "outward-repelling"


def _attracting_directions(P: Polynomial, cyc: Cycle, a: complex) -> Optional[list[complex]]:
    """Attracting directions at the point of the parabolic cycle nearest a.

    With q the order of the multiplier, the return map g = P^period of the
    cycle listed from that point has g^q(w) - w = A w^(k+1) + ...
    (`return_petals`); the k attracting directions are the unit v with
    A v^k < 0.  None when the multiplier is no root of unity or there are
    more than `poly.MAX_PETALS` petals.
    """
    q = unity_order(cyc.multiplier)
    if q is None:
        return None
    j = min(range(len(cyc.points)), key=lambda i: abs(cyc.points[i] - a))
    taylors = [P.taylor(p) for p in cyc.points[j:] + cyc.points[:j]]
    petals = return_petals(taylors, q)
    if petals is None:
        return None
    k, A = petals
    base = (math.pi - cmath.phase(A)) / k
    return [cmath.exp(1j * (base + 2 * math.pi * i / k)) for i in range(k)]


@dataclass
class CheckRow:
    check: str
    subject: str
    ok: bool
    detail: str


@dataclass
class FamilyReport:
    rows: list[CheckRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.ok]


def check_admissible(P: Polynomial, family: CutFamily) -> FamilyReport:
    """Forward invariance plus the principal-component condition.

    The latter is sampled: no cut's root or ray points may lie strictly inside
    another cut's wedge.
    """
    rows: list[CheckRow] = []
    if len(family) == 0:
        rows.append(CheckRow("admissible", "family", True,
                             "empty family; avoiding set equals the filled Julia set"))
        return FamilyReport(rows)
    for i, (cut, tgt) in enumerate(zip(family.cuts, family.forward_map)):
        pair = cut.image_pair(P.degree)
        rows.append(CheckRow(
            "forward-invariance", f"cut{i}({cut.theta_r},{cut.theta_l})", tgt is not None,
            f"image angles ({pair[0]},{pair[1]}) "
            + (f"found at index {tgt}" if tgt is not None else "missing from family")))
    for i, cut in enumerate(family.cuts):
        samples = _cut_samples(cut)
        for j, w in enumerate(family.wedges):
            if i == j or w.boundary is None:
                continue
            # shared root points (several cuts landing together) sit on the
            # other wedge's boundary; membership there is not decidable
            probe = [z for z in samples if abs(z - w.cut.root) > 1e-5]
            inside = [z for z in probe if w.contains(z)]
            rows.append(CheckRow(
                "principal-component", f"cut{i} vs wedge{j}", len(inside) == 0,
                "disjoint" if not inside else f"{len(inside)} sample(s) inside, e.g. {inside[0]:.4g}"))
    return FamilyReport(rows)


def _cut_samples(cut: Cut) -> list[complex]:
    out = [cut.root]
    for ray in ([cut.ray_r] if cut.degenerate else [cut.ray_r, cut.ray_l]):
        pts = np.asarray(ray.points)
        idx = np.unique(np.linspace(0, len(pts) - 1, 36).astype(int))
        out.extend(complex(p) for p in pts[idx])
    return out


def check_legal(P: Polynomial, family: CutFamily) -> FamilyReport:
    """Legality: no fictitious cuts, no nondegenerate periodic cuts, and every
    nondegenerate cut is (pre)critical with a repelling degenerate terminus."""
    rows: list[CheckRow] = []
    for i, (cut, fl) in enumerate(zip(family.cuts, family.flags)):
        subj = f"cut{i}({cut.theta_r},{cut.theta_l})"
        if fl.fictitious:
            rows.append(CheckRow("fictitious", subj, False,
                                 "degenerate cut with no nondegenerate preimage in the family"))
        if not cut.degenerate and fl.periodic:
            rows.append(CheckRow("periodic-nondegenerate", subj, False,
                                 "nondegenerate periodic cut (member of Z_pc)"))
    rows.append(CheckRow("Z_pc-empty", "family",
                         not any(r.check == "periodic-nondegenerate" for r in rows),
                         "no nondegenerate periodic cuts"
                         if not any(r.check == "periodic-nondegenerate" for r in rows)
                         else "Z_pc is nonempty"))
    for i, cut in enumerate(family.cuts):
        if cut.degenerate:
            continue
        subj = f"cut{i}({cut.theta_r},{cut.theta_l})"
        # the forward orbit within the family, up to its first degenerate cut
        hits_critical = False
        terminal: Optional[int] = None
        for j in family.orbit(i):
            hits_critical |= family.flags[j].critical_root
            if family.cuts[j].degenerate:
                terminal = j
                break
        rows.append(CheckRow("precritical", subj, hits_critical,
                             f"root {cut.root:.6g} "
                             + ("is (or maps onto) a critical root"
                                if hits_critical else "never meets a critical root")))
        if terminal is None:
            rows.append(CheckRow("terminus", subj, False,
                                 "forward orbit reaches no degenerate cut"))
        else:
            tcut = family.cuts[terminal]
            cyc = _terminal_cycle(P, tcut)
            ok = cyc is not None and cyc.kind == "repelling"
            lam = cyc.multiplier if cyc is not None else float("nan")
            rows.append(CheckRow(
                "terminus", subj, ok,
                f"root {cut.root:.6g} maps to degenerate cut at {tcut.root:.6g}; "
                + (f"terminal cycle multiplier {lam:.6g} ({cyc.kind})" if cyc is not None
                   else "terminal cycle unidentified")))
    for i, cls in enumerate(family.root_class):
        rows.append(CheckRow("outward-class", f"cut{i}", cls != "outward-parabolic",
                             cls))
    return FamilyReport(rows)
