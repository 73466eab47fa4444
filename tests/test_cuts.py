import numpy as np
import pytest

from polyrenorm import (Polynomial, build_family, check_admissible,
                        check_legal, classify_root, find_cycles)
from polyrenorm.angles import Angle
from polyrenorm.cuts import _attracting_directions, _terminal_cycle
from polyrenorm.poly import cycle_through, unity_order
from polyrenorm.errors import NoColanding

from conftest import BASILICA, CUBIC, G0, SQUARE


def test_build_cut_fig1(fig1_family):
    cut = fig1_family.cuts[0]
    assert not cut.degenerate
    assert abs(cut.root + 2) < 1e-6
    assert abs(cut.ray_r.landing.point - cut.ray_l.landing.point) < 1e-6


def test_build_cut_degenerate(fig1_family):
    cut = fig1_family.cuts[1]
    assert cut.degenerate
    assert abs(cut.root) < 1e-6
    # root agrees with the repelling fixed point from the cycle census
    cyc = [c for c in find_cycles(CUBIC, 1) if abs(c.points[0]) < 1e-6][0]
    assert cyc.kind == "repelling" and abs(cyc.multiplier - 4) < 1e-9


def test_build_cut_no_colanding():
    with pytest.raises(NoColanding):
        build_family(SQUARE, [(Angle(1, 3), Angle(2, 3))], g0=G0)


def test_forward_map_and_flags(fig1_family):
    assert fig1_family.forward_map == (1, 1)
    f0, f1 = fig1_family.flags
    assert not f0.periodic and f0.critical_root and not f0.fictitious
    assert f1.periodic and not f1.critical_root and not f1.fictitious


def test_arc_width_fig1(fig1_family):
    w = fig1_family.cuts[0].arc_width()
    assert w == pytest.approx(1 / 3)
    assert (w * 3).denominator == 1  # d*|I| is an integer


def test_admissible_fig1(fig1_family):
    report = check_admissible(CUBIC, fig1_family)
    assert report.ok


def test_admissible_empty_family():
    fam = build_family(CUBIC, [], g0=G0)
    report = check_admissible(CUBIC, fam)
    assert report.ok
    assert "filled Julia set" in report.rows[0].detail


def test_not_invariant_when_image_missing():
    fam = build_family(CUBIC, [(Angle(1, 3), Angle(2, 3))], g0=G0)
    report = check_admissible(CUBIC, fam)
    assert not report.ok
    assert any(r.check == "forward-invariance" and not r.ok for r in report.rows)


def test_legal_fig1(fig1_family):
    report = check_legal(CUBIC, fig1_family)
    assert report.ok
    terminus = [r for r in report.rows if r.check == "terminus"][0]
    assert "repelling" in terminus.detail and "multiplier 4" in terminus.detail
    # the identified terminal cycle really is the fixed point 0
    cyc = _terminal_cycle(CUBIC, fig1_family.cuts[0])
    assert abs(cyc.points[0]) < 1e-9 and abs(cyc.multiplier - 4) < 1e-9


def test_illegal_periodic_nondegenerate_rabbit():
    c = complex(-0.122561166876654, 0.744861766619744)
    rabbit = Polynomial((c, 0, 1))
    fam = build_family(rabbit, [(Angle(1, 7), Angle(2, 7)),
                                (Angle(2, 7), Angle(4, 7)),
                                (Angle(4, 7), Angle(1, 7))], g0=G0)
    alpha = (1 - (1 - 4 * c) ** 0.5) / 2
    for cut in fam.cuts:
        assert abs(cut.root - alpha) < 1e-6
    assert check_admissible(rabbit, fam).ok
    report = check_legal(rabbit, fam)
    assert not report.ok
    assert any(r.check == "periodic-nondegenerate" for r in report.failures())


def test_fictitious_flagged():
    # ray 1/2 of the cubic is fixed under tripling and lands at the repelling
    # fixed point -3; with no nondegenerate preimage in the family the cut is
    # fictitious
    fam = build_family(CUBIC, [(Angle(1, 3), Angle(2, 3)),
                               (Angle(0, 1), Angle(0, 1)),
                               (Angle(1, 2), Angle(1, 2))], g0=G0)
    assert abs(fam.cuts[2].root + 3) < 1e-6
    assert fam.flags[2].fictitious
    report = check_legal(CUBIC, fam)
    assert any(r.check == "fictitious" and not r.ok for r in report.rows)


def test_wedge_contains_examples(fig1_family):
    w = fig1_family.wedges[0]
    assert w.contains(-2.5 + 0j)
    assert not w.contains(0j)
    assert fig1_family.wedges[1].boundary is None
    assert not fig1_family.wedges[1].contains(-2.5 + 0j)


def test_wedge_beyond_truncation_uses_angle_arc(fig1_family):
    w = fig1_family.wedges[0]
    from polyrenorm.bottcher import bottcher_point
    inside = bottcher_point(CUBIC, 1.0, Angle(1, 2))   # angle in (1/3, 2/3)
    outside = bottcher_point(CUBIC, 1.0, Angle(1, 10))
    assert w.contains(complex(inside))
    assert not w.contains(complex(outside))


def test_cut_forward_consistency(fig1_family):
    cut = fig1_family.cuts[0]
    img = fig1_family.cuts[1]
    worst = 0.0
    for k in range(0, len(cut.ray_r.points), 9):
        t = cut.ray_r.potentials[k]
        j = int(np.argmin(np.abs(np.asarray(img.ray_r.potentials) - 3 * t)))
        if abs(img.ray_r.potentials[j] - 3 * t) < 1e-9 * t:
            worst = max(worst, abs(CUBIC(complex(cut.ray_r.points[k]))
                                   - img.ray_r.points[j]))
    assert worst < 1e-5


def test_classify_root_fig1(fig1_family):
    assert fig1_family.root_class == ("outward-repelling", "outward-repelling")
    assert classify_root(CUBIC, fig1_family, fig1_family.cuts[0]) == "outward-repelling"


def test_classify_root_outward_parabolic():
    # basilica-type: rays 1/3, 2/3 land at the parabolic fixed point 0 of
    # z^2 - z; the attracting directions of the second iterate are +-1 and the
    # left petal lies inside the (1/3, 2/3)-wedge
    fam = build_family(BASILICA, [(Angle(1, 3), Angle(2, 3))], g0=G0)
    assert abs(fam.cuts[0].root) < 1e-6
    assert fam.root_class[0] == "outward-parabolic"
    # wedge orientation check: the left petal is in, the right petal is out
    w = fam.wedges[0]
    assert w.contains(-1e-4 + 0j)
    assert not w.contains(1e-4 + 0j)


@pytest.mark.parametrize("P, point, period, petals, expected", [
    (BASILICA, 0j, 1, 2, [1, -1]),                      # multiplier -1
    (Polynomial((0.25, 0, 1)), 0.5 + 0j, 1, 1, [-1]),   # multiplier 1
    (Polynomial((-1.25, 0, 1)), (2**0.5 - 1) / 2 + 0j, 2, 2, None),  # 2-cycle, -1
])
def test_attracting_directions_are_the_exact_petals(P, point, period, petals, expected):
    cyc = cycle_through(P, point + 1e-7, period)
    assert cyc.kind == "parabolic" and cyc.period == period
    dirs = _attracting_directions(P, cyc, point)
    assert len(dirs) == petals
    if expected is not None:
        assert sorted(v.real for v in dirs) == pytest.approx(sorted(expected), abs=1e-12)
    p = min(cyc.points, key=lambda z: abs(z - point))
    # g = P^(period q) fixes p with multiplier 1: it pulls p + r v in along
    # each attracting direction v and pushes out half a turn of a petal away
    m, r = period * unity_order(cyc.multiplier), 1e-3
    turn = np.exp(1j * np.pi / petals)
    for v in dirs:
        assert abs(v) == pytest.approx(1)
        assert abs(P.iterate(p + r * v, m) - p) < r
        assert abs(P.iterate(p + r * v * turn, m) - p) > r


def test_parabolic_root_with_no_petal_in_a_wedge():
    # ray 0 of z^2 + 1/4 lands at the parabolic fixed point 1/2, whose one
    # petal points along -1; the degenerate cut bounds no wedge, so no petal
    # lies in one and the root is outward-repelling
    P = Polynomial((0.25, 0, 1))
    fam = build_family(P, [(Angle(0, 1), Angle(0, 1))], g0=G0)
    cut = fam.cuts[0]
    assert cut.degenerate and abs(cut.root - 0.5) < 1e-6
    cyc = _terminal_cycle(P, cut)
    assert cyc.kind == "parabolic" and cyc.contains(cut.root, tol=1e-5)
    assert _attracting_directions(P, cyc, cut.root) == [pytest.approx(-1, abs=1e-12)]
    assert classify_root(P, fam, cut) == "outward-repelling"
    assert fam.root_class == ("outward-repelling",)
