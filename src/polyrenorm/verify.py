"""Conjugacy evidence: cycle census and multiplier matching per period."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuts import CutFamily
from .errors import DegreeMismatch
from .grid import distance_to_polyline
from .poly import Cycle, Polynomial, find_cycles

MULTIPLIER_TOL = 1e-6
AMBIGUOUS_TOL = 1e-6


def cycles_in_region(P: Polynomial, family: CutFamily, max_period: int
                     ) -> tuple[list[Cycle], list[Cycle]]:
    """Cycles of P whose full orbit avoids every wedge of the family.

    Cycles with an orbit point within 1e-6 of a cut are returned separately
    as ambiguous rather than assigned to either side.
    """
    inside: list[Cycle] = []
    ambiguous: list[Cycle] = []
    # only wedge boundaries create classification ambiguity; degenerate cuts
    # bound no wedge (their roots belong to the avoiding set outright)
    polylines = []
    for cut in family.cuts:
        if cut.degenerate:
            continue
        polylines.append(np.concatenate([cut.ray_r.points, [cut.root]]))
        polylines.append(np.concatenate([cut.ray_l.points, [cut.root]]))
    for cyc in find_cycles(P, max_period):
        near_cut = any(distance_to_polyline(poly, z) < AMBIGUOUS_TOL
                       for z in cyc.points for poly in polylines)
        if near_cut:
            ambiguous.append(cyc)
            continue
        if any(family.wedge_hit(z) for z in cyc.points):
            continue
        inside.append(cyc)
    return inside, ambiguous


@dataclass
class PeriodRow:
    period: int
    count_restricted: int
    count_candidate: int
    nonrep_restricted: list[complex]
    nonrep_candidate: list[complex]
    counts_match: bool
    multipliers_match: bool

    @property
    def ok(self) -> bool:
        return self.counts_match and self.multipliers_match


@dataclass
class ConjugacyReport:
    rows: list[PeriodRow]
    ambiguous: list[Cycle]
    degree: int

    @property
    def verdict(self) -> bool:
        return all(r.ok for r in self.rows)


def _match_multisets(a: list[complex], b: list[complex], tol: float) -> bool:
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        hit = None
        for i, y in enumerate(remaining):
            if abs(x - y) < tol:
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def conjugacy_report(P: Polynomial, family: CutFamily, Q: Polynomial,
                     max_period: int) -> ConjugacyReport:
    """Compare P restricted to the avoiding set against Q on its filled set.

    Per period the cycle counts must agree and the non-repelling multipliers
    must match as multisets (repelling multipliers are not invariants of a
    topological conjugacy, so repelling cycles are compared by count only).
    All cycles of Q lie in its filled Julia set, so no filtering is needed on
    the candidate side.
    """
    expected = family.degree_dc()
    if Q.degree != expected:
        raise DegreeMismatch(f"candidate degree {Q.degree} != expected d_c {expected}")
    restricted, ambiguous = cycles_in_region(P, family, max_period)
    candidate = find_cycles(Q, max_period)
    rows = []
    for n in range(1, max_period + 1):
        rn = [c for c in restricted if c.period == n]
        qn = [c for c in candidate if c.period == n]
        nr_r = [c.multiplier for c in rn if c.kind != "repelling"]
        nr_q = [c.multiplier for c in qn if c.kind != "repelling"]
        rows.append(PeriodRow(
            n, len(rn), len(qn), nr_r, nr_q,
            counts_match=len(rn) == len(qn),
            multipliers_match=_match_multisets(nr_r, nr_q, MULTIPLIER_TOL)))
    return ConjugacyReport(rows, ambiguous, expected)
