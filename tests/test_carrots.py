import math

import numpy as np
import pytest

from polyrenorm import (Carrot, Cut, SpiralArc, build_carrots, find_cycles,
                        koenigs_coordinate, koenigs_radius, quasi_arc_constant,
                        transversality_gap, transversality_profile, weak_qs_constant)
from polyrenorm.angles import Angle
from polyrenorm.bottcher import external_angle
from polyrenorm.carrots import _subsample, carrot_geometry, carrots_disjoint
from polyrenorm.errors import (CarrotOverlap, InsufficientSamples,
                               OutsideLinearizationDomain)
from polyrenorm.grid import distance_to_polyline

from conftest import CUBIC, SQUARE


def test_sides_terminate_at_root(fig1_carrots):
    for c in fig1_carrots:
        assert abs(c.side_r.points[-1] - c.cut.root) < 1e-6
        assert abs(c.side_l.points[-1] - c.cut.root) < 1e-6


def test_boundary_simple_closed(fig1_carrots):
    for c in fig1_carrots:
        poly = c.boundary
        assert poly[0] == poly[-1]
        # consecutive points distinct
        assert (np.abs(np.diff(poly)) > 0).all()
        assert not poly.flags.writeable  # one cached polygon serves every caller
    # every arc runs from side_r's end to side_l's end, degenerate cut included
    assert [c.cut.degenerate for c in fig1_carrots] == [False, True]
    for c in fig1_carrots:
        assert (c.equip_arc[0], c.equip_arc[-1]) == (c.side_r.points[0], c.side_l.points[0])
        # at the lifted angles `arc_ends` names, the high one first on a degenerate cut
        for z, a in zip((c.side_r.points[0], c.side_l.points[0]), c.arc_ends):
            assert abs((external_angle(CUBIC, z) - a + 0.5) % 1.0 - 0.5) < 1e-9


def test_carrots_disjoint(fig1_carrots):
    assert carrots_disjoint(fig1_carrots)


def _square_carrot(center: complex, h: float) -> Carrot:
    """A carrot shaped as the square of half-side h about center, rooted at
    the middle of its bottom edge."""
    top_r, top_l = center + h + 1j * h, center - h + 1j * h
    root = center - 1j * h
    side_r = SpiralArc((top_r, center + h, center + h - 1j * h), (3.0, 2.0, 1.0))
    side_l = SpiralArc((top_l, center - h, center - h - 1j * h), (3.0, 2.0, 1.0))
    cut = Cut(Angle(0, 1), Angle(1, 2), root, False, None, None)
    return Carrot(cut, 0.5, 1.0, side_r, side_l, np.array([top_r, top_l]), 0.0, 0.5)


def test_carrots_disjoint_catches_nesting_in_either_order():
    outer = _square_carrot(0j, 2.0)
    inner = _square_carrot(1.0 + 0.5j, 0.4)  # off the outer carrot's interior probe
    apart = _square_carrot(10.0 + 0j, 0.4)
    assert not carrots_disjoint([outer, inner])
    assert not carrots_disjoint([inner, outer])
    assert carrots_disjoint([outer, apart]) and carrots_disjoint([apart, outer])


def test_carrot_overlap_when_rho_too_small(fig1_family):
    # critical cut arc width is 1/3; sides cross once g0 >= 1/6
    with pytest.raises(CarrotOverlap):
        build_carrots(CUBIC, fig1_family.cuts[:1], math.exp(-0.5))


def test_periodic_carrot_touches_filled_set_only_at_root(fig1_carrots, fig1_masks,
                                                         fig1_grid):
    carrot = fig1_carrots[1]
    rows, cols = np.nonzero(fig1_masks.avoiding.bits)
    idx = np.linspace(0, len(rows) - 1, 250).astype(int)
    px = fig1_grid.pixel
    for k in idx:
        z = fig1_grid.center_of(int(rows[k]), int(cols[k]))
        if carrot.contains(z):
            assert abs(z - carrot.cut.root) < 4 * px


def test_critical_carrot_contains_removed_set(fig1_carrots, fig1_masks, fig1_grid,
                                              fig1_family):
    # the wedge part of K_P \ A_P(Z) belongs to the carrot (points elsewhere
    # in the removed set are preimages that reach the wedge only later)
    carrot = fig1_carrots[0]
    wedge = fig1_family.wedges[0]
    removed = fig1_masks.kp.bits & ~fig1_masks.avoiding.bits
    rows, cols = np.nonzero(removed)
    idx = np.linspace(0, len(rows) - 1, 120).astype(int)
    px = fig1_grid.pixel
    misses = 0
    for k in idx:
        z = fig1_grid.center_of(int(rows[k]), int(cols[k]))
        if not wedge.contains(z):
            continue
        if not carrot.contains(z):
            # tolerate pixels that straddle the carrot boundary
            if distance_to_polyline(carrot.boundary, z) > 2 * px:
                misses += 1
    assert misses == 0


def test_side_boundary_dynamics(fig1_carrots, fig1_surgery):
    # P maps side_r of the critical carrot onto side_r of its image carrot at
    # matched potentials
    src = fig1_carrots[0]
    img = fig1_surgery.image_carrots[0]
    n = min(len(src.side_r.points), len(img.side_r.points))
    gap = np.abs(CUBIC(np.asarray(src.side_r.points[:n])) - img.side_r.points[:n]).max()
    assert gap < 1e-5
    pots = np.asarray(src.side_r.potentials[:n])
    assert np.abs(3 * pots - img.side_r.potentials[:n]).max() < 1e-12


def test_koenigs_examples():
    cyc0 = [c for c in find_cycles(CUBIC, 1) if abs(c.points[0]) < 1e-9][0]
    assert koenigs_coordinate(CUBIC, cyc0, 0j) == 0j
    z = 0.04 - 0.02j
    u1 = koenigs_coordinate(CUBIC, cyc0, z)
    u2 = koenigs_coordinate(CUBIC, cyc0, CUBIC(z))
    assert abs(u2 - 4 * u1) < 1e-8

    cyc1 = [c for c in find_cycles(SQUARE, 1) if abs(c.points[0] - 1) < 1e-9][0]
    w = 1.03 + 0.02j
    assert abs(koenigs_coordinate(SQUARE, cyc1, SQUARE(w))
               - 2 * koenigs_coordinate(SQUARE, cyc1, w)) < 1e-8


def test_koenigs_outside_domain():
    cyc0 = [c for c in find_cycles(CUBIC, 1) if abs(c.points[0]) < 1e-9][0]
    r = koenigs_radius(CUBIC, cyc0)
    with pytest.raises(OutsideLinearizationDomain):
        koenigs_coordinate(CUBIC, cyc0, 3 * r + 0j)


def test_koenigs_lambda_invariance_on_carrot_side(fig1_carrots):
    cyc0 = [c for c in find_cycles(CUBIC, 1) if abs(c.points[0]) < 1e-9][0]
    r = 0.8 * koenigs_radius(CUBIC, cyc0)
    side = fig1_carrots[1].side_r
    s = 16  # side substeps: index k-s sits at triple the potential
    worst = 0.0
    checked = 0
    for k in range(s, len(side.points)):
        if abs(side.points[k]) > r or abs(side.points[k - s]) > r:
            continue
        ua = koenigs_coordinate(CUBIC, cyc0, complex(side.points[k]))
        ub = koenigs_coordinate(CUBIC, cyc0, complex(side.points[k - s]))
        worst = max(worst, abs(4 * ua - ub))
        checked += 1
        if checked >= 40:
            break
    assert checked > 10
    assert worst < 1e-6


def test_quasi_arc_straight_segment():
    seg = np.linspace(0, 1, 240) + 0j
    assert quasi_arc_constant(seg) == pytest.approx(1.0)


def test_quasi_arc_circle_arc_vs_bruteforce():
    th = np.linspace(0, np.pi / 2, 60)
    arc = np.exp(1j * th)
    # independent oracle: direct loop over all ordered triples
    best = math.inf
    for i in range(len(arc)):
        for j in range(i + 1, len(arc)):
            dij = abs(arc[i] - arc[j])
            if dij == 0:
                continue
            for k in range(j, len(arc)):
                best = min(best, abs(arc[i] - arc[k]) / dij)
    est = quasi_arc_constant(arc, samples=60)
    assert est == pytest.approx(best, rel=1e-12)
    assert est > 0.45  # sin(pi/4) * 2/pi order bound


def test_quasi_arc_needs_points():
    with pytest.raises(InsufficientSamples):
        quasi_arc_constant(np.array([0j, 1 + 0j]))


def test_transversality_right_angle():
    a = 0.3 + 0.2j
    t = np.geomspace(1e-8, 1.0, 300)
    R = a + t.astype(complex)
    L = a + 1j * t
    gap = transversality_gap(R, L, a)
    # exact ratio-1 pairs give sqrt(2); the 0.1 ratio band admits slightly less
    assert 1.3 < gap < 1.45


def test_transversality_tangential_pair_detected():
    a = 0j
    t = np.geomspace(1e-8, 1.0, 300)
    R = t.astype(complex)
    L = t * np.exp(1e-4j)  # nearly the same ray
    gap = transversality_gap(R, L, a)
    assert gap < 1e-3


def test_transversality_critical_ray_pair(fig1_family):
    # the two invariant-ray pullbacks at the critical point -2
    cut = fig1_family.cuts[0]
    gap = transversality_gap(cut.ray_r.points, cut.ray_l.points, cut.root,
                             r_min=1e-6)
    assert gap > 0.1


def test_weak_qs_identity_and_similarity():
    pts = [complex(x, 0.1 * x * x) for x in np.linspace(0, 1, 150)]
    assert weak_qs_constant([(z, z) for z in pts]) == pytest.approx(1.0)
    assert weak_qs_constant([(z, 2j * z + 3) for z in pts]) == pytest.approx(1.0)


def _weak_qs_reference(samples):
    """The O(m^3) triple loop: for each x, every pair (y, z) of other samples
    with d(x,y) <= d(x,z) and d(fx,fz) > 0."""
    x = np.array([p[0] for p in samples], dtype=complex)
    f = np.array([p[1] for p in samples], dtype=complex)
    m = len(x)
    Dx = np.abs(x[:, None] - x[None, :])
    Df = np.abs(f[:, None] - f[None, :])
    kappa = 0.0
    for i in range(m):
        dy, fy = Dx[i], Df[i]
        valid = np.ones(m, dtype=bool)
        valid[i] = False
        cond = (dy[:, None] <= dy[None, :]) & valid[:, None] & valid[None, :]
        denom = fy[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(cond & (denom > 0), fy[:, None] / denom, 0.0)
        kappa = max(kappa, float(ratio.max()))
    return kappa


def test_weak_qs_matches_triple_loop(fig1_carrots):
    # carrot_geometry's samples on figure1's carrots, and lattice samples
    # with many tied distances and repeated images
    sets = [[(complex(z), complex(CUBIC(z))) for z in _subsample(c.side_pair_points(), 200)]
            for c in fig1_carrots]
    rng = np.random.default_rng(3)
    for k in range(40):
        n = 100 + k
        x = rng.integers(0, 6, n) + 1j * rng.integers(0, 6, n)
        f = x**2 + rng.integers(0, 3, n)
        if k % 3 == 0:
            f[:5] = f[5]
        sets.append(list(zip(x.tolist(), f.tolist())))
    for samples in sets:
        assert weak_qs_constant(samples) == _weak_qs_reference(samples)
    assert [weak_qs_constant(s) for s in sets[:2]] == [3.315377659570967, 1.9354836938770785]


def test_weak_qs_needs_samples():
    with pytest.raises(InsufficientSamples):
        weak_qs_constant([(0j, 0j)] * 50)


def test_carrot_geometry_stability(fig1_carrots):
    for c in fig1_carrots:
        e1 = carrot_geometry(CUBIC, c, samples=300)
        e2 = carrot_geometry(CUBIC, c, samples=600)
        assert e1.quasi_arc_C > 0
        assert abs(e2.quasi_arc_C - e1.quasi_arc_C) <= 0.1 * e1.quasi_arc_C
        assert math.isfinite(e1.weak_qs_kappa)
        assert abs(e2.weak_qs_kappa - e1.weak_qs_kappa) <= 0.1 * e1.weak_qs_kappa


def test_transversality_profile_scales(fig1_carrots):
    c = fig1_carrots[1]
    prof = transversality_profile(c.side_r.points, c.side_l.points, c.cut.root,
                                  r_min=1e-6)
    assert min(s for s, _ in prof) < 2e-6
    assert all(g > 0.1 for _, g in prof)
