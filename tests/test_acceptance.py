"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from polyrenorm import (GridSpec, build_carrots, build_family,
                        build_surgery, compare_masks, conjugacy_report,
                        connected_components, escape_analysis, find_cycles,
                        green_potential, land_rays, nonescaping_mask,
                        proto_image_check, quasi_arc_constant,
                        transversality_profile, visit_count_experiment,
                        weak_qs_constant, wedge_raster)
from polyrenorm.angles import Angle
from polyrenorm.carrots import ProtoCarrot, _subsample
from polyrenorm.cli import main

from conftest import BASILICA, CUBIC, FIG1_PAIRS, G0, RHO, SQUARE


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"\n[criterion {num:2d}] PASS  {desc} ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def family():
    return build_family(CUBIC, FIG1_PAIRS, g0=G0)


def test_criterion_1_baseline_dynamics():
    with criterion(1, "baseline: unit-disk mask and logarithmic potential of z^2"):
        t0 = time.monotonic()
        grid = GridSpec(0j, 4.0, 512)
        mask = escape_analysis(SQUARE, grid, 256).kp
        exact = np.abs(grid.centers()) <= 1.0
        assert (mask.bits ^ exact).mean() < 0.01
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.uniform(2, 10) * np.exp(2j * np.pi * rng.uniform())
            assert abs(green_potential(SQUARE, complex(z)) - math.log(abs(z))) < 1e-9
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_figure1_landing():
    with criterion(2, "rays 1/3, 2/3 co-land at -2; ray 0 lands at 0"):
        t0 = time.monotonic()
        r13, r23, r0 = land_rays(CUBIC, [Angle(1, 3), Angle(2, 3), Angle(0, 1)])
        assert r13.landing.converged and abs(r13.landing.point + 2) < 1e-6
        assert r23.landing.converged and abs(r23.landing.point + 2) < 1e-6
        assert abs(r13.landing.point - r23.landing.point) < 1e-6
        assert r0.landing.converged and abs(r0.landing.point) < 1e-6
        assert time.monotonic() - t0 < 5.0


def test_criterion_3_fixed_point_census():
    with criterion(3, "fixed points {0,-1,-3} with multipliers {4,-1,7}"):
        cycles = find_cycles(CUBIC, 1)
        got = sorted(((c.points[0], c.multiplier) for c in cycles),
                     key=lambda t: t[0].real)
        # oracle by hand: z(z+2)^2 - z = z(z+1)(z+3); P' = (z+2)(3z+2)
        expected = [(-3, 7), (-1, -1), (0, 4)]
        assert len(got) == 3
        for (z, lam), (ze, le) in zip(got, expected):
            assert abs(z - ze) < 1e-9
            assert abs(lam - le) < 1e-9
            assert abs(CUBIC(z) - z) < 1e-9


def test_criterion_4_legality(family):
    with criterion(4, "cut family is admissible and legal; -2 maps to repelling 0"):
        from polyrenorm import check_admissible, check_legal
        adm = check_admissible(CUBIC, family)
        leg = check_legal(CUBIC, family)
        assert adm.ok and leg.ok
        assert family.flags[0].critical_root
        terminus = [r for r in leg.rows if r.check == "terminus"][0]
        assert terminus.ok
        assert "-2" in terminus.detail and "repelling" in terminus.detail
        assert "multiplier 4" in terminus.detail


def test_criterion_5_avoiding_set(family):
    with criterion(5, "avoiding set at 1024^2: strict subset, connected, stable"):
        t0 = time.monotonic()
        grid = GridSpec(complex(-1.25, 0.0), 4.5, 1024)
        raster = wedge_raster(CUBIC, family)
        res = escape_analysis(CUBIC, grid, 512, raster=raster)
        assert (res.avoiding.bits <= res.kp.bits).all()
        assert res.avoiding.count() < res.kp.count()
        assert connected_components(res.avoiding) == 1
        res2 = escape_analysis(CUBIC, grid, 1024, raster=raster)
        changed = (res.avoiding.bits ^ res2.avoiding.bits).mean()
        assert changed < 0.005
        assert time.monotonic() - t0 < 120.0


def test_criterion_6_proto_equivariance():
    with criterion(6, "proto-carrot equivariance under (rho, theta) -> (rho^d, d theta)"):
        for d in (2, 3, 4):
            for rho0 in (0.9, 0.95, 0.99):
                dev = proto_image_check(ProtoCarrot(rho0, Angle(0, 1)), d, 1000)
                assert dev < 1e-12, (d, rho0, dev)


def test_criterion_7_carrot_geometry(family):
    with criterion(7, "carrot geometry estimators positive and stable"):
        carrots = build_carrots(CUBIC, family.cuts, RHO)
        periodic = carrots[1]
        pair = periodic.side_pair_points()
        c1 = quasi_arc_constant(pair, 300)
        c2 = quasi_arc_constant(pair, 600)
        assert c1 > 0
        assert abs(c2 - c1) <= 0.10 * c1

        prof = transversality_profile(periodic.side_r.points,
                                      periodic.side_l.points,
                                      periodic.cut.root, r_min=1e-6)
        assert min(s for s, _ in prof) < 2e-6
        assert all(gap > 0.1 for _, gap in prof)

        critical = carrots[0]
        sides = critical.side_pair_points()
        k1 = weak_qs_constant([(complex(z), complex(CUBIC(z)))
                               for z in _subsample(sides, 300)])
        k2 = weak_qs_constant([(complex(z), complex(CUBIC(z)))
                               for z in _subsample(sides, 600)])
        assert math.isfinite(k1) and k1 >= 1.0
        assert abs(k2 - k1) <= 0.10 * k1


def test_criterion_8_surgery(family):
    with criterion(8, "surgery: d_c = 2, visit bound, non-escaping set matches"):
        t0 = time.monotonic()
        carrots = build_carrots(CUBIC, family.cuts, RHO)
        S = build_surgery(CUBIC, family, RHO, carrots)  # includes preimage cross-check
        assert S.d_c == 2
        grid = GridSpec(complex(-1.25, 0.0), 4.5, 512)
        visits = visit_count_experiment(S, 10000, 512, window=grid)
        assert visits.max_visits_crit <= 1
        fmask = nonescaping_mask(S, grid, 512)
        av = escape_analysis(CUBIC, grid, 512, raster=wedge_raster(CUBIC, family)).avoiding
        cmp_ = compare_masks(fmask, av, band=2)
        assert cmp_.agreement_outside_band >= 0.97
        assert time.monotonic() - t0 < 300.0


def test_criterion_9_conjugacy(family):
    with criterion(9, "conjugacy evidence for z^2 - z; control z^2 fails"):
        t0 = time.monotonic()
        rep = conjugacy_report(CUBIC, family, BASILICA, 3)
        assert rep.verdict
        parab = rep.rows[0].nonrep_restricted
        assert len(parab) == 1 and abs(parab[0] + 1) < 1e-6
        control = conjugacy_report(CUBIC, family, SQUARE, 3)
        assert not control.verdict
        # cross-check candidate counts against a brute-force census
        from test_verify import brute_cycle_counts
        brute = brute_cycle_counts(BASILICA, 3)
        for row in rep.rows:
            assert row.count_candidate == brute[row.period]
        assert time.monotonic() - t0 < 60.0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "figure1 byte-identical across runs and thread counts"):
        outs = []
        for run, threads in (("a", "1"), ("b", "1"), ("c", "8"), ("d", "8")):
            out = tmp_path / run
            code = main(["figure1", "--out", str(out), "--resolution", "256",
                         "--max-iter", "256", "--seeds", "2000",
                         "--threads", threads])
            assert code == 0
            outs.append(out)
        names = ["figure1.ppm", "rays.csv", "checks.csv", "conjugacy.csv",
                 "surgery.csv", "geometry.csv", "summary.txt",
                 "avoiding_mask.raw", "nonescaping_mask.raw"]
        ref = {n: (outs[0] / n).read_bytes() for n in names}
        for out in outs[1:]:
            for n in names:
                assert (out / n).read_bytes() == ref[n], (out, n)
