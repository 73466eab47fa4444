import math

import numpy as np
import pytest

from polyrenorm import (Polynomial, equipotential_polyline, find_cycles,
                        green_potential, land_ray, landing_point, trace_ray,
                        trace_spiral)
from polyrenorm import bottcher
from polyrenorm.angles import Angle
from polyrenorm.bottcher import bottcher_point, external_angle
from polyrenorm.errors import BranchJump

from conftest import CUBIC, SQUARE


def test_ray_zero_of_square_is_positive_real():
    ray = trace_ray(SQUARE, Angle(0, 1), 2.0, 1e-9)
    assert np.abs(ray.points.imag).max() == 0.0
    assert (ray.points.real > 0).all()
    assert ray.points.real.max() <= math.exp(2.0) + 1e-9
    landing = landing_point(ray, SQUARE)
    assert landing.converged and abs(landing.point - 1) < 1e-9


def test_ray_half_of_square_is_negative_real():
    ray = land_ray(SQUARE, Angle(1, 2))
    assert np.abs(ray.points.imag).max() < 1e-12
    assert (ray.points.real < 0).all()
    assert abs(ray.landing.point + 1) < 1e-9


def test_ray_third_of_square():
    ray = land_ray(SQUARE, Angle(1, 3))
    assert abs(ray.landing.point - np.exp(2j * np.pi / 3)) < 1e-9


def test_monotone_potentials():
    ray = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-8)
    assert (np.diff(ray.potentials) < 0).all()
    assert (ray.potentials > 0).all()


def test_ray_potential_accuracy():
    ray = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-8)
    for z, t in zip(ray.points[::9], ray.potentials[::9]):
        assert abs(green_potential(CUBIC, complex(z)) - t) < 1e-6


def test_cubic_ray_landings():
    r13 = land_ray(CUBIC, Angle(1, 3))
    r23 = land_ray(CUBIC, Angle(2, 3))
    r0 = land_ray(CUBIC, Angle(0, 1))
    assert r13.landing.converged and abs(r13.landing.point + 2) < 1e-6
    assert r23.landing.converged and abs(r23.landing.point + 2) < 1e-6
    assert r0.landing.converged and abs(r0.landing.point) < 1e-6


def test_landing_tail_near_point():
    ray = land_ray(CUBIC, Angle(0, 1))
    assert np.abs(ray.points[-10:] - ray.landing.point).max() < 1e-6


def test_functional_equation_on_rays():
    # ladders of theta and d*theta align when g_start is scaled by d
    ray = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-6)
    img = trace_ray(CUBIC, Angle(0, 1), 6.0, 3e-6)
    worst = 0.0
    for k in range(0, len(ray.points), 7):
        t = ray.potentials[k]
        j = int(np.argmin(np.abs(img.potentials - 3 * t)))
        if abs(img.potentials[j] - 3 * t) < 1e-9 * t:
            worst = max(worst, abs(CUBIC(complex(ray.points[k])) - img.points[j]))
    assert worst < 1e-6


def test_landing_consistency_with_cycles():
    # rational landing points eventually reach a repelling/parabolic cycle
    cycles = find_cycles(CUBIC, 2)
    for name in ("0", "1/3", "2/3", "1/4"):
        ray = land_ray(CUBIC, Angle.parse(name))
        assert ray.landing.converged
        z = ray.landing.point
        hit = False
        for _ in range(12):
            for c in cycles:
                if c.kind in ("repelling", "parabolic") and c.contains(z, tol=1e-5):
                    hit = True
            if hit:
                break
            z = CUBIC(z)
        assert hit, f"ray {name} landing never reached a marked cycle"


def test_equipotential_square():
    for g0, radius in ((math.log(2), 2.0), (math.log(4), 4.0)):
        poly = equipotential_polyline(SQUARE, g0, 64)
        assert np.abs(np.abs(poly) - radius).max() < 1e-6
        assert abs(poly[0] - poly[-1]) < 1e-12  # closed


def test_equipotential_cubic_against_green():
    poly = equipotential_polyline(CUBIC, 0.2, 128)
    for z in poly[::8]:
        assert abs(green_potential(CUBIC, complex(z)) - 0.2) < 1e-6


def test_equipotential_needs_64():
    with pytest.raises(ValueError):
        equipotential_polyline(SQUARE, 1.0, 32)


def test_external_angle_roundtrip():
    for frac, g in ((Angle(1, 3), 0.2), (Angle(5, 7), 0.37), (Angle(0, 1), 1.1)):
        z = bottcher_point(CUBIC, g, frac)
        theta = external_angle(CUBIC, complex(z))
        diff = min(abs(theta - frac.as_float()), 1 - abs(theta - frac.as_float()))
        assert diff < 1e-9


RABBIT_C = -0.12256116687665362 + 0.7448617666197442j
RABBIT = Polynomial((RABBIT_C, 0, 1))


def test_rabbit_orbit_lands_at_alpha():
    # alpha, where the period-3 rays land, is the root of z^2 - z + c of
    # smaller modulus
    alpha = complex(min(np.roots([1, -1, RABBIT_C]), key=abs))
    for name in ("1/7", "2/7", "4/7"):
        ray = land_ray(RABBIT, Angle.parse(name))
        assert ray.landing.converged
        assert abs(ray.landing.point - alpha) < 1e-6
        assert ray.potentials[-1] < 1e-40  # slowly repelling: deepened


def test_ray_points_against_bottcher_point_and_green():
    ray = trace_ray(RABBIT, Angle(1, 7), 2.0, 1e-10)
    for k in list(range(0, len(ray.points) - 1, 61)) + [len(ray.points) - 1]:
        z, t = complex(ray.points[k]), float(ray.potentials[k])
        assert abs(z - bottcher_point(RABBIT, t, Angle(1, 7))) < 1e-12
        assert abs(green_potential(RABBIT, z) - t) < 1e-6


def test_functional_equation_on_one_ladder():
    # P(ray_theta(t)) = ray_{d theta}(d t): level k of theta's ray sits one
    # degree step (8 levels) below level k - 8 of the image ray
    r1 = trace_ray(RABBIT, Angle(1, 7), 2.0, 1e-20)
    r2 = trace_ray(RABBIT, Angle(2, 7), 2.0, 1e-20)
    for k in range(8, len(r1.points) - 1):
        assert abs(2 * r1.potentials[k] - r2.potentials[k - 8]) < 1e-12 * r1.potentials[k]
        assert abs(RABBIT(complex(r1.points[k])) - r2.points[k - 8]) < 1e-12


def test_orbit_longer_than_chain_depth():
    # period 40 under doubling, above the ~34 levels of a chain down to 1e-9;
    # rays of z^2 are exactly exp(t + 2 pi i theta)
    theta = Angle(1, 2**40 - 1)
    ray = trace_ray(SQUARE, theta, 2.0, 1e-9)
    exact = np.exp(ray.potentials + 2j * np.pi * theta.as_float())
    assert np.abs(ray.points - exact).max() < 1e-12
    ray = trace_ray(RABBIT, Angle(1, 2**40 - 1), 2.0, 1e-9)
    for k in (0, 100, 200, len(ray.points) - 1):
        z = bottcher_point(RABBIT, float(ray.potentials[k]), Angle(1, 2**40 - 1))
        assert abs(ray.points[k] - z) < 1e-12


def test_ray_cache_respects_landing_depth():
    bottcher._ray_cache.clear()
    cold_deep = land_ray(SQUARE, Angle(0, 1), g_land=1e-12)
    cold = land_ray(SQUARE, Angle(1, 2))
    bottcher._ray_cache.clear()
    shallow = land_ray(SQUARE, Angle(0, 1))
    deep = land_ray(SQUARE, Angle(0, 1), g_land=1e-12)
    again = land_ray(SQUARE, Angle(1, 2))
    assert shallow.potentials[-1] == 1e-9
    assert deep.potentials[-1] == 1e-12
    for warm, ref in ((deep, cold_deep), (again, cold)):
        assert np.array_equal(warm.potentials, ref.potentials)
        assert np.array_equal(warm.points, ref.points)


def test_ray_retry_keeps_requested_density(monkeypatch):
    ref = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-6, 8)
    curve = bottcher._OrbitLadder.curve

    def refuse_first_ladder(self, theta, n):
        if self.s == 8:
            raise BranchJump("refused")
        return curve(self, theta, n)

    monkeypatch.setattr(bottcher._OrbitLadder, "curve", refuse_first_ladder)
    retried = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-6, 8)  # on 16 substeps
    assert len(retried.points) == len(ref.points)
    assert np.allclose(retried.potentials, ref.potentials, rtol=1e-12, atol=0)
    assert np.abs(retried.points - ref.points).max() < 1e-9


def test_spiral_retry_at_requested_density():
    # this spiral jumps branches at 8 substeps and is traced at 16
    arc = trace_spiral(CUBIC, Angle(1, 3), +1, 0.1, 1e-4, 8)
    ratios = arc.potentials[1:] / arc.potentials[:-1]
    assert np.allclose(ratios, 3 ** (-1 / 8), rtol=1e-12, atol=0)
