import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyrenorm import (Polynomial, equipotential_polyline, find_cycles,
                        green_potential, land_rays, landing_point, trace_ray,
                        trace_spirals)
from polyrenorm import bottcher, wavefront
from polyrenorm.angles import Angle
from polyrenorm.bottcher import bottcher_point, external_angle
from polyrenorm.errors import BranchJump, RenormError

from conftest import BASILICA, CUBIC, SQUARE


def test_ray_zero_of_square_is_positive_real():
    ray = trace_ray(SQUARE, Angle(0, 1), 2.0, 1e-9)
    pts = np.asarray(ray.points)
    assert np.abs(pts.imag).max() == 0.0
    assert (pts.real > 0).all()
    assert pts.real.max() <= math.exp(2.0) + 1e-9
    landing = landing_point(ray, SQUARE)
    assert landing.converged and abs(landing.point - 1) < 1e-9


def test_ray_half_of_square_is_negative_real():
    ray = land_rays(SQUARE, [Angle(1, 2)])[0]
    pts = np.asarray(ray.points)
    assert np.abs(pts.imag).max() < 1e-12
    assert (pts.real < 0).all()
    assert abs(ray.landing.point + 1) < 1e-9


def test_ray_third_of_square():
    ray = land_rays(SQUARE, [Angle(1, 3)])[0]
    assert abs(ray.landing.point - np.exp(2j * np.pi / 3)) < 1e-9


def test_monotone_potentials():
    pots = np.asarray(trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-8).potentials)
    assert (np.diff(pots) < 0).all()
    assert (pots > 0).all()


def test_ray_potential_accuracy():
    ray = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-8)
    for z, t in zip(ray.points[::9], ray.potentials[::9]):
        assert abs(green_potential(CUBIC, complex(z)) - t) < 1e-6


def test_cubic_ray_landings():
    r13 = land_rays(CUBIC, [Angle(1, 3)])[0]
    r23 = land_rays(CUBIC, [Angle(2, 3)])[0]
    r0 = land_rays(CUBIC, [Angle(0, 1)])[0]
    assert r13.landing.converged and abs(r13.landing.point + 2) < 1e-6
    assert r23.landing.converged and abs(r23.landing.point + 2) < 1e-6
    assert r0.landing.converged and abs(r0.landing.point) < 1e-6


def test_landing_tail_near_point():
    ray = land_rays(CUBIC, [Angle(0, 1)])[0]
    assert np.abs(np.asarray(ray.points[-10:]) - ray.landing.point).max() < 1e-6


def test_functional_equation_on_rays():
    # ladders of theta and d*theta align when g_start is scaled by d
    ray = trace_ray(CUBIC, Angle(1, 3), 2.0, 1e-6)
    img = trace_ray(CUBIC, Angle(0, 1), 6.0, 3e-6)
    worst = 0.0
    for k in range(0, len(ray.points), 7):
        t = ray.potentials[k]
        j = int(np.argmin(np.abs(np.asarray(img.potentials) - 3 * t)))
        if abs(img.potentials[j] - 3 * t) < 1e-9 * t:
            worst = max(worst, abs(CUBIC(complex(ray.points[k])) - img.points[j]))
    assert worst < 1e-6


def test_landing_consistency_with_cycles():
    # rational landing points eventually reach a repelling/parabolic cycle
    cycles = find_cycles(CUBIC, 2)
    for name in ("0", "1/3", "2/3", "1/4"):
        ray = land_rays(CUBIC, [Angle.parse(name)])[0]
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


def test_equipotential_needs_positive_potential():
    # at potential 0 the descent ladder and the chain top never end
    with pytest.raises(ValueError):
        bottcher.equipotential_arc(CUBIC, 0.0, Fraction(0), 0.0, 0.1)


def test_external_angle_roundtrip():
    # from the product formula far out, pulled back: a few ulps of a turn at
    # every potential, g_max = 0 for the cubic and the quartic z(z+4/3)^3,
    # and z^3 - 3z + 3 (tests/scenes/cubic_escaping.json) has an escaping
    # critical point
    escaping = Polynomial((3, -3, 0, 1))
    g_max = escaping.inverse_bottcher.g_max
    assert g_max > 0.5
    cases = ([(CUBIC, g) for g in (0.2, 0.37, 1.1, 0.05, 1e-3, 3.0, 10.0)]
             + [(escaping, g_max + 0.05), (escaping, g_max + 1e-3), (RABBIT, 1e-4),
                (Polynomial((0, 64 / 27, 16 / 3, 4, 1)), 1e-3)])
    for P, g in cases:
        for frac in (Angle(1, 3), Angle(5, 7), Angle(0, 1)):
            z = bottcher_point(P, g, frac)
            theta = external_angle(P, complex(z))
            diff = min(abs(theta - frac.as_float()), 1 - abs(theta - frac.as_float()))
            assert diff < 1e-14, (P, g, frac, diff)


RABBIT_C = -0.12256116687665362 + 0.7448617666197442j
RABBIT = Polynomial((RABBIT_C, 0, 1))


def test_rabbit_orbit_lands_at_alpha():
    # alpha, where the period-3 rays land, is the root of z^2 - z + c of
    # smaller modulus
    alpha = complex(min(np.roots([1, -1, RABBIT_C]), key=abs))
    for name in ("1/7", "2/7", "4/7"):
        ray = land_rays(RABBIT, [Angle.parse(name)])[0]
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
    exact = np.exp(np.asarray(ray.potentials) + 2j * np.pi * theta.as_float())
    assert np.abs(np.asarray(ray.points) - exact).max() < 1e-12
    ray = trace_ray(RABBIT, Angle(1, 2**40 - 1), 2.0, 1e-9)
    for k in (0, 100, 200, len(ray.points) - 1):
        z = bottcher_point(RABBIT, float(ray.potentials[k]), Angle(1, 2**40 - 1))
        assert abs(ray.points[k] - z) < 1e-12


def test_rays_of_one_call_keep_their_own_depth():
    # rays landed in one call share its ladder; each is deepened to its own
    # depth, bit for bit as when landed alone
    angles = [Angle(1, 7), Angle(2, 7), Angle(4, 7)]
    together = land_rays(RABBIT, angles)
    for ray, theta in zip(together, angles):
        alone, = land_rays(RABBIT, [theta])
        assert ray.potentials == alone.potentials
        assert ray.points == alone.points
        assert ray.landing == alone.landing
    assert len({ray.potentials[-1] for ray in together}) == 3
    deep, = land_rays(SQUARE, [Angle(0, 1)], g_land=1e-12)
    shallow, = land_rays(SQUARE, [Angle(0, 1)])
    assert deep.potentials[-1] == 1e-12
    assert shallow.potentials[-1] == 1e-9


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
    assert np.abs(np.asarray(retried.points) - ref.points).max() < 1e-9


def test_spiral_retry_at_requested_density():
    # this spiral jumps branches at 8 substeps and is traced at 16
    arc, = trace_spirals(CUBIC, [(Angle(1, 3), +1)], 0.1, 1e-4, 8)
    pots = np.asarray(arc.potentials)
    ratios = pots[1:] / pots[:-1]
    assert np.allclose(ratios, 3 ** (-1 / 8), rtol=1e-12, atol=0)


@pytest.mark.parametrize("P", [CUBIC, RABBIT], ids=["cubic", "rabbit"])
@pytest.mark.parametrize("g", [0.05, 0.2, 1.1])
def test_equipotential_sweep_against_descent(P, g):
    # the sweep walks the offset at fixed potential; each bottcher_point
    # descends its own ray, so the two paths share no chain
    n = 64
    poly = equipotential_polyline(P, g, n)
    for j in range(n + 1):
        assert abs(poly[j] - bottcher_point(P, g, j / n)) < 1e-12


@pytest.mark.parametrize("P", [CUBIC, RABBIT], ids=["cubic", "rabbit"])
@pytest.mark.parametrize("g", [0.05, 0.2, 1.1])
def test_equipotential_functional_equation(P, g):
    # Boettcher: P maps the point at (g, j/n) to the one at (d g, d j/n)
    n, d = 64, P.degree
    e_g = equipotential_polyline(P, g, n)
    e_dg = equipotential_polyline(P, d * g, n)
    for j in range(n + 1):
        assert abs(P(complex(e_g[j])) - e_dg[(d * j) % n]) < 1e-12


@pytest.mark.parametrize("g", [1e-11, 1e-9, 2e-7])
def test_equipotential_sweep_at_small_potentials(g):
    # the sweep's steps scale with g down to the smallest potentials, so no
    # step lands a chain on a sibling branch; the descent reference takes the
    # lifted offset, which keeps its angular precision
    offs = [g * (k / 16 - 1) for k in range(33)]
    pts = bottcher.equipotential_points(CUBIC, g, Fraction(0), offs)
    for z, off in zip(pts, offs):
        ref = bottcher_point(CUBIC, g, off)
        assert abs(z - ref) <= 1e-12 * abs(ref)


_FE_POLYS = {"cubic": CUBIC, "basilica": BASILICA, "rabbit": RABBIT}


@pytest.mark.parametrize("name", list(_FE_POLYS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(exponent=st.floats(-12.0, -3.0), theta=st.fractions(0, 1, max_denominator=40))
@example(exponent=-6.37, theta=Fraction(0))
@example(exponent=-6.25, theta=Fraction(1, 3))
@example(exponent=-6.15, theta=Fraction(4, 7))
def test_functional_equation_on_sweeps_and_points(name, exponent, theta):
    # Boettcher: P maps the point at (g, theta + off) to the one at
    # (d g, d theta + d off), on the sweep path and on the point path; the
    # tolerance is relative, plus the rounding of P(z) where it cancels
    P = _FE_POLYS[name]
    d, g = P.degree, 10.0 ** exponent
    offs = [g * (k / 4 - 1) for k in range(9)]
    image = theta * d % 1

    def agrees(z, w):
        rounding = 1e-14 * sum(abs(c) * abs(z) ** k for k, c in enumerate(P.coeffs))
        return abs(P(z) - w) <= 1e-9 * abs(w) + rounding

    pts = bottcher.equipotential_points(P, g, theta, offs)
    imgs = bottcher.equipotential_points(P, d * g, image, [d * o for o in offs])
    assert all(agrees(z, w) for z, w in zip(pts, imgs))
    assert agrees(bottcher_point(P, g, theta), bottcher_point(P, d * g, image))


# Below the floor, `Spine.sweeps` walks the legs of its rows of
# ARRAY_SWEEP_MIN or more offsets together on arrays; row-by-row scalar
# sweeps (`_walk`) are the oracle, to the bit.

def _rows(g, width, count, shift):
    """Three rows of `count` offsets straddling the spine's offset 0 and one
    of five, their spans scaling with the potential."""
    rows = []
    for f, n in ((1.0, count), (0.61, count + 3), (0.29, count), (0.8, 5)):
        span = width * f * g
        rows.append((f * g, [span * (k / (n - 1) - shift) for k in range(n)]))
    return rows


@pytest.mark.parametrize("name", list(_FE_POLYS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(exponent=st.floats(-12.0, math.log10(0.09)), theta=st.fractions(0, 1, max_denominator=12),
       width=st.floats(0.05, 3.0), count=st.integers(16, 40), shift=st.floats(0.0, 1.0))
def test_batched_rows_match_row_sweeps(name, exponent, theta, width, count, shift):
    P = _FE_POLYS[name]
    rows = _rows(10.0 ** exponent, width, count, shift)
    spine = bottcher.Spine(P, theta, 0.0)
    assert spine.sweeps(rows) == [spine.sweep(g, offs) for g, offs in rows]


# In the direct band a sweep of ARRAY_SWEEP_MIN or more offsets is the series
# on an array; one-point calls, on Python complex, are the oracle, to the bit.

@pytest.mark.parametrize("name", list(_FE_POLYS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(lift=st.floats(0.0, 1.0), theta=st.fractions(0, 1, max_denominator=12),
       offs=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=64).map(sorted))
def test_direct_sweep_is_its_one_point_calls(name, lift, theta, offs):
    P = _FE_POLYS[name]
    g = _floor(P) + lift * (4.0 - _floor(P))
    swept = bottcher.equipotential_points(P, g, theta, offs)
    assert swept == [bottcher.equipotential_points(P, g, theta, [o])[0] for o in offs]


@pytest.mark.parametrize("P", [*_FE_POLYS.values(), Polynomial((3, -3, 0, 1))],
                         ids=[*_FE_POLYS, "escaping"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(lift=st.floats(0.0, 1.0), angles=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_inverse_bottcher_on_an_array_is_its_scalar_calls(P, lift, angles):
    # z^3 - 3z + 3 has an escaping critical point, so g_max > 0
    psi = P.inverse_bottcher
    g = _floor(P) + lift * 4.0
    ws = [cmath.rect(math.exp(g), 2.0 * math.pi * a) for a in angles]
    assert psi(np.array(ws), g).tobytes() == np.array([psi(w, g) for w in ws]).tobytes()


def test_batched_leg_that_fails_is_walked_again(monkeypatch):
    # a leg the arrays give up on (here: Newton declared stuck at the first
    # element of the fifth anti-diagonal) is walked again by `_walk` from its
    # start chain, and only that leg
    spine = bottcher.Spine(CUBIC, Fraction(1, 7), 0.0)
    rows = _rows(1e-6, 1.5, 20, 0.4)[:3]
    want = [spine.sweep(g, offs) for g, offs in rows]
    newton, walk, calls, walked = wavefront.preimages_near, bottcher._walk, [0], []

    def stuck(*args):
        out = newton(*args)
        calls[0] += 1
        if calls[0] == 5:
            out[-1][0] = False
        return out

    def recorded(P, frac, nodes, prev):
        walked.append(len(nodes))
        return walk(P, frac, nodes, prev)

    monkeypatch.setattr(wavefront, "preimages_near", stuck)
    monkeypatch.setattr(bottcher, "_walk", recorded)
    assert spine.sweeps(rows) == want
    assert calls[0] > 5
    assert len([n for n in walked if n > 1]) == 1


def test_sweeps_walk_the_rows_before_a_failing_one(monkeypatch):
    # a row past the node bound fails as its lone sweep would, after the
    # legs of the rows before it are walked (and could fail first)
    spine = bottcher.Spine(CUBIC, Fraction(0), 0.0)
    rows = _rows(1e-4, 1.0, 16, 0.5)
    walk_legs, batches = wavefront.walk_legs, []

    def recorded(P, frac, legs):
        batches.append(len(legs))
        return walk_legs(P, frac, legs)

    monkeypatch.setattr(wavefront, "walk_legs", recorded)
    with pytest.raises(RenormError, match="needs .* nodes"):
        spine.sweeps(rows[:2] + [(1e-9, [0.0, 1 / 3])] + rows[2:])
    assert batches == [4]
    with pytest.raises(ValueError, match="non-decreasing"):
        spine.sweeps([(g, offs[::-1]) for g, offs in rows])


def test_sweep_with_alternating_offset_gaps(monkeypatch):
    # a long step after a short one moves the points proportionally farther;
    # the branch test must not read that as a jump and subdivide without end
    gaps = [0.002 if i % 2 == 0 else 0.006 for i in range(125)]
    offs = [0.5 * sum(gaps[:i]) / sum(gaps) for i in range(126)]
    solve, solves = bottcher._chain_solve, [0]

    def counted(*args):
        solves[0] += 1
        if solves[0] > 5000:  # an even 0.004 sweep takes about 300
            raise RuntimeError("sweep subdivides without end")
        return solve(*args)

    monkeypatch.setattr(bottcher, "_chain_solve", counted)
    start = time.perf_counter()
    pts = bottcher.equipotential_points(CUBIC, 0.375, Fraction(0), offs)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    for z, off in zip(pts, offs):
        assert abs(z - bottcher_point(CUBIC, 0.375, off)) <= 1e-12 * abs(z)


def test_sweep_node_bound_is_a_renorm_error(monkeypatch):
    # the node count grows like span / g; a sweep past the bound fails
    # before it starts, naming its potential, span and count
    def no_walk(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(bottcher, "_walk", no_walk)
    with pytest.raises(RenormError, match=r"potential 1e-09 .* span of 0\.333 needs 6666666\d+ nodes"):
        bottcher.equipotential_points(CUBIC, 1e-9, Fraction(0), [0.0, 1 / 3])
    assert bottcher.MAX_SWEEP_NODES < 6666666


# The descent as a node list: from the direct floor g_max + SERIES_DIRECT
# down the ladder floor*d^(-k/8) to g (g itself appended unless the last
# ladder point is within 1e-12 of it), the first node a cold chain.

def _floor(P):
    return P.inverse_bottcher.g_max + bottcher.SERIES_DIRECT


def _old_descent(P, g, off):
    r = P.degree ** (-1.0 / 8)
    ts = [_floor(P)]
    while ts[-1] * r > g * (1.0 + 1e-12):
        ts.append(ts[-1] * r)
    if abs(ts[-1] - g) > 1e-12 * g:
        ts.append(g)
    return [(t, off, False) for t in ts]


def _old_point(P, g, frac, off):
    return bottcher._walk(P, frac, _old_descent(P, g, off), None)[1].points[0]


def _old_sweep(P, g, frac, offs):
    nodes = _old_descent(P, g, offs[0]) + [(g, offs[0], True)]
    for a, b in zip(offs[:-1], offs[1:]):
        k = max(1, math.ceil((b - a) / (0.05 * g)))
        nodes += [(g, a + (b - a) * i / k, i == k) for i in range(1, k + 1)]
    return bottcher._walk(P, frac, nodes, None)[0]


def _ladder_point(P, k):
    t = _floor(P)
    for _ in range(k):
        t *= P.degree ** (-1.0 / 8)
    return t


def _series(P, g, angle):
    return P.inverse_bottcher(cmath.rect(math.exp(g), 2.0 * math.pi * angle), g)


@pytest.mark.parametrize("P", [CUBIC, BASILICA], ids=["cubic", "basilica"])
@pytest.mark.parametrize("where", ["cold", "at-floor", "below-top", "ladder",
                                   "near-ladder-above", "near-ladder-below", "deep"])
def test_points_and_sweeps_keep_the_descent_nodes(P, where):
    # at and above the direct floor, points and sweeps are the series; below
    # it, a throwaway spine walks the node list of the descent from the
    # floor, so points and sweeps keep its bits
    t = _ladder_point(P, 37)
    g = {"cold": 2.5, "at-floor": _floor(P), "below-top": _floor(P) * (1 - 1e-3),
         "ladder": t, "near-ladder-above": t * (1 + 5e-13),
         "near-ladder-below": t * (1 - 5e-13), "deep": 6.3e-12}[where]
    for frac, off in ((Fraction(0), 0.0), (Fraction(1, 3), 0.0), (Fraction(0), 0.2137)):
        theta = frac + Fraction(off)
        offs = [off + g * (k / 8 - 1) for k in range(17)]
        if g >= _floor(P):
            assert bottcher_point(P, g, theta) == _series(P, g, float(theta))
            assert bottcher._point(P, g, frac, off) == _series(P, g, float(frac) + off)
            swept = bottcher.equipotential_points(P, g, frac, offs)  # on arrays
            assert swept == [_series(P, g, float(frac) + o) for o in offs]
            continue
        assert bottcher_point(P, g, theta) == _old_point(P, g, theta, 0.0)
        assert bottcher._point(P, g, frac, off) == _old_point(P, g, frac, off)
        assert bottcher.equipotential_points(P, g, frac, offs) == _old_sweep(P, g, frac, offs)


def test_spine_bits_do_not_depend_on_extension_order():
    # a chain is walked from the one above it whatever the spine holds, so
    # shallow-then-deep and deep-then-shallow give the same bits
    gs = [0.3, 2e-4, 7.5e-9, 6.3e-12]
    rows = {g: [g * (k / 8 - 1) for k in range(17)] for g in gs}
    down, up = bottcher.Spine(CUBIC, Fraction(0), 0.0), bottcher.Spine(CUBIC, Fraction(0), 0.0)
    swept_down = {g: down.sweep(g, rows[g]) for g in gs}
    swept_up = {g: up.sweep(g, rows[g]) for g in reversed(gs)}
    assert swept_down == swept_up
    assert down.sweep(1e-3, [0.0]) == up.sweep(1e-3, [0.0])
    assert [c.points for c in down._chains] == [c.points for c in up._chains]


def test_spine_sweeps_straddle_its_offset():
    # offsets on both sides of the spine's own: each side is swept out from
    # the spine's point, in order, against per-point descents
    g = 1e-6
    spine = bottcher.Spine(CUBIC, Fraction(1, 3), 0.0)
    offs = [g * (k / 4 - 1.3) for k in range(11)]
    pts = spine.sweep(g, offs)
    assert len(pts) == len(offs)
    for z, off in zip(pts, offs):
        ref = bottcher._point(CUBIC, g, Fraction(1, 3), off)
        assert abs(z - ref) <= 1e-12 * abs(ref)
    with pytest.raises(ValueError, match="non-decreasing"):
        spine.sweep(g, offs[::-1])


ESCAPING = Polynomial((3, -3, 0, 1))  # z^3 - 3z + 3: P(-1) = 5 escapes, g_max = 0.525


def _mp_point(P, g, theta):
    """The point at potential g and angle theta by a 50-digit pullback chain
    from potential 60, where exp(zeta) is the Boettcher inverse to 1e-26; each
    level is seeded by the float chain (bottcher_point's own chain below the
    direct floor, the series above it) and polished far past its bits."""
    import mpmath
    d = P.degree
    frac, off = (theta, 0.0) if isinstance(theta, Fraction) else (Fraction(0), theta)
    exact = frac + Fraction(off)
    seeds = list(bottcher.Spine(P, frac, off)._descend(g).points) if g < _floor(P) else []
    m = 0
    while g * d**m < 60:
        m += 1
    seeds += [bottcher_point(P, g * d**j, exact * d**j % 1) for j in range(len(seeds), m)]
    with mpmath.workdps(50):
        cs = [mpmath.mpc(c) for c in P.coeffs]
        top = exact * d**m % 1
        z = mpmath.exp(g * d**m + 2j * mpmath.pi * top.numerator / top.denominator)
        for seed in reversed(seeds):
            w, z = z, mpmath.mpc(seed)
            for _ in range(100):
                p, dp = cs[-1], 0
                for c in reversed(cs[:-1]):
                    p, dp = p * z + c, dp * z + p
                step = (p - w) / dp
                z -= step
                if abs(step) < mpmath.mpf(10) ** -45 * abs(z):
                    break
        return complex(z)


_ORACLE_POTENTIALS = (3, 2, 1, 0.3, 0.1, 1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize("name", ["cubic", "basilica", "rabbit", "escaping"])
def test_bottcher_point_against_mpmath(name):
    # the chain top and the direct band are the inverse Boettcher series,
    # accurate to rounding; exp(zeta) at potential 18 was off by 2.7e-9 on the
    # cubic (not centred) at g = 2 and by 6.3e-11 on the basilica at g = 0.3.
    # The escaping cubic's series converges only above g_max: from its floor up
    P = {"cubic": CUBIC, "basilica": BASILICA, "rabbit": RABBIT, "escaping": ESCAPING}[name]
    gs = ([_floor(P) + x for x in (0.0, 0.2, 0.5, 1.0, 2.0)] if name == "escaping"
          else _ORACLE_POTENTIALS)
    for g in gs:
        for theta in (Fraction(0), Fraction(1, 7), Fraction(1, 3), 0.2137):
            z, ref = bottcher_point(P, g, theta), _mp_point(P, g, theta)
            assert abs(z - ref) <= 1e-13 * abs(ref), (g, theta)
