import cmath
import math
import warnings

import numpy as np
import pytest

from polyrenorm import (Polynomial, classify_multiplier, critical_points,
                        escape_time, find_cycles, green_potential, poly)
from polyrenorm.errors import RenormError
from polyrenorm.poly import NEWTON_STEPS, newton, unity_order

from conftest import BASILICA, CUBIC, SQUARE


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial((0, 1))  # degree 1
    with pytest.raises(ValueError):
        Polynomial((0, 0, 2))  # not monic
    with pytest.raises(ValueError):
        Polynomial((float("nan"), 0, 1))


def test_call_on_real_arrays():
    # a real array is evaluated as the complex array it embeds in, with no
    # ComplexWarning; a near-monic lead keeps its imaginary part
    x = np.linspace(-2.5, 2.5, 1001)
    near = Polynomial((0.25 - 0.5j, 0.3j, 1 + 5e-13j))
    for P in (CUBIC, BASILICA, near):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = P(x)
            dw = P.deriv(x)
        assert w.dtype == complex
        assert (w == P(x.astype(complex))).all()
        assert (w == np.array([P(complex(v)) for v in x])).all()
        assert (dw == np.array([P.deriv(complex(v)) for v in x])).all()
    assert near(np.array([0.0]))[0] == 0.25 - 0.5j


def test_escape_radius_soundness():
    rng = np.random.default_rng(7)
    for P in (CUBIC, SQUARE, BASILICA):
        R = P.escape_radius
        phis = rng.uniform(0, 2 * np.pi, 1000)
        z = R * 1.01 * np.exp(1j * phis)
        assert (np.abs(P(z)) > np.abs(z)).all()


def test_monicity_sampled():
    rng = np.random.default_rng(11)
    z = rng.normal(size=10) + 1j * rng.normal(size=10)
    for P in (CUBIC, BASILICA):
        lower = np.zeros_like(z)
        for c in reversed(P.coeffs[:-1]):
            lower = lower * z + c
        assert np.abs(P(z) - z ** P.degree - lower).max() < 1e-12


def test_escape_time_examples():
    esc = escape_time(SQUARE, 0j, 100)
    assert esc == (False, 100, 0j)

    esc = escape_time(SQUARE, 3 + 0j, 100)
    assert esc.escaped and esc.steps == 1 and esc.final == 9 + 0j

    esc = escape_time(CUBIC, -1 + 0j, 64)
    assert not esc.escaped
    assert esc.final == -1 + 0j  # fixed point: P(-1) = -1
    assert CUBIC(-1 + 0j) == -1 + 0j


def test_critical_points():
    assert critical_points(SQUARE) == [0j]

    crit = critical_points(CUBIC)
    assert len(crit) == 2
    assert abs(crit[0] - (-2)) < 1e-9
    assert abs(crit[1] - (-2 / 3)) < 1e-9

    crit3 = critical_points(Polynomial((0, 0, 0, 1)))  # z^3, double root
    assert len(crit3) == 2
    assert all(abs(c) < 1e-8 for c in crit3)

    # multiple critical points: z^4's three at 0 come out exactly (a
    # nonzero root would leave |P'| at its whole evaluation scale there);
    # elsewhere a cluster within its noise shell
    assert critical_points(Polynomial((0, 0, 0, 0, 1))) == [0j, 0j, 0j]
    assert critical_points(Polynomial((0.5, 0, 0, 1))) == [0j, 0j]
    double = critical_points(Polynomial((0, 3, 3, 1)))  # P' = 3 (z + 1)^2
    assert len(double) == 2 and all(abs(c + 1) < 1e-7 for c in double)
    triple = critical_points(Polynomial((5, 4, 6, 4, 1)))  # P' = 4 (z + 1)^3
    assert len(triple) == 3 and all(abs(c + 1) < 1e-4 for c in triple)

    # z^3 + 3e5 z^2 + 1e6 z: at the critical point near -2e5 the terms of P'
    # are ~1e11, so rounding leaves |P'| ~ 1e-6 there, far above any absolute
    # threshold; the check is relative to the scale of the evaluation
    crit = critical_points(Polynomial((0, 1e6, 3e5, 1)))
    a, b, c = 3.0, 6e5, 1e6  # P' = a z^2 + b z + c, roots without cancellation
    far = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
    want = [far, c / (a * far)]
    assert len(crit) == 2
    assert all(abs(z - w) <= 1e-12 * abs(w) for z, w in zip(crit, want))


def test_newton_simple_root_to_the_last_ulps():
    root = newton(lambda z: (z * z - 2, 2 * z), 1.5 + 0j)
    assert root.imag == 0
    assert abs(root.real - math.sqrt(2)) <= 2 * math.ulp(math.sqrt(2))


def test_newton_stops_at_the_noise_floor_of_a_triple_root():
    # the basilica's parabolic fixed point 0 (multiplier -1) is a triple root
    # of P^2(z) - z: the steps shrink only by 2/3 each, down to rounding noise
    calls = []

    def fdf(z):
        calls.append(z)
        w, dw = BASILICA.iterate_with_deriv(z, 2)
        return w - z, dw - 1.0

    root = newton(fdf, 0.1 + 0j)
    assert abs(root) < 1e-6
    assert len(calls) < NEWTON_STEPS // 4


def test_newton_gives_up():
    def fdf(z):
        return z * z - 2, 2 * z

    assert newton(fdf, complex(math.nan, 0)) is None
    assert newton(fdf, complex(math.inf, 1)) is None
    # the first step from 0.1 lands near 10, past the bail radius
    assert newton(fdf, 0.1 + 0j, bail=5.0) is None
    assert newton(lambda z: (1.0 + 0j, 0j), 1j) is None  # f' = 0 off a root


def test_fixed_points_square():
    cyc = find_cycles(SQUARE, 1)
    pts = sorted((c.points[0] for c in cyc), key=lambda z: z.real)
    assert abs(pts[0]) < 1e-12 and abs(pts[1] - 1) < 1e-12
    kinds = {round(c.points[0].real): (c.multiplier, c.kind) for c in cyc}
    assert abs(kinds[0][0]) < 1e-12 and kinds[0][1] == "attracting"
    assert abs(kinds[1][0] - 2) < 1e-12 and kinds[1][1] == "repelling"


def test_fixed_points_cubic():
    cyc = find_cycles(CUBIC, 1)
    assert len(cyc) == 3
    got = sorted(((c.points[0], c.multiplier) for c in cyc), key=lambda t: t[0].real)
    expected = [(-3, 7), (-1, -1), (0, 4)]  # roots of z(z+1)(z+3)
    for (z, lam), (ze, le) in zip(got, expected):
        assert abs(z - ze) < 1e-9
        assert abs(lam - le) < 1e-9


def test_fixed_points_basilica():
    cyc = find_cycles(BASILICA, 1)
    got = {round(c.points[0].real): c for c in cyc}
    assert abs(got[0].multiplier + 1) < 1e-9 and got[0].kind == "parabolic"
    assert abs(got[2].multiplier - 3) < 1e-9 and got[2].kind == "repelling"


def test_cycle_residuals_and_multipliers():
    for P in (CUBIC, BASILICA):
        for cyc in find_cycles(P, 3):
            z0 = cyc.points[0]
            zn = P.iterate(z0, cyc.period)
            assert abs(zn - z0) < 1e-9
            prod = 1.0 + 0j
            for p in cyc.points:
                prod *= P.deriv(p)
            assert abs(prod - cyc.multiplier) < 1e-9


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def necklace(d: int, n: int) -> int:
    """Cycles of exact period n of a degree-d polynomial, counted with
    multiplicity: sum over k | n of mu(n/k) d^k / n."""
    return sum(_mobius(n // k) * d**k for k in range(1, n + 1) if n % k == 0) // n


def _counts(cycles, max_period):
    return [sum(1 for c in cycles if c.period == n) for n in range(1, max_period + 1)]


@pytest.mark.parametrize("P, merged, expected", [
    # the 2-cycle of the cubic merges into the parabolic fixed point -1
    # (multiplier -1), and that of the basilica into 0
    (CUBIC, {2: 1}, [3, 2, 8, 18, 48]),
    (BASILICA, {2: 1}, [2, 0, 2, 3, 6]),
    (SQUARE, {}, [2, 1, 2, 3, 6])], ids=["cubic", "basilica", "square"])
def test_census_counts_are_necklace_numbers(P, merged, expected):
    assert expected == [necklace(P.degree, n) - merged.get(n, 0) for n in range(1, 6)]
    assert _counts(find_cycles(P, 5), 5) == expected


def test_census_generic_cubic_period_7(monkeypatch):
    # 3^7 roots of P^7(z) - z, started near the Julia set; orbits of the
    # far-out iterates overflow unless the Newton ratio is cut short
    P = Polynomial((0.1 + 0.2j, -0.3 + 0.1j, 0.25j, 1))
    periodic_roots, seen = poly._periodic_roots, {}

    def record(P, n):
        seen[n] = periodic_roots(P, n)
        return seen[n]

    monkeypatch.setattr(poly, "_periodic_roots", record)
    cycles = find_cycles(P, 7)
    assert seen[7].size == 3**7 and np.isfinite(seen[7]).all()
    assert _counts(cycles, 7) == [necklace(3, n) for n in range(1, 8)]
    assert all(abs(P.iterate(c.points[0], c.period) - c.points[0]) < 1e-9 for c in cycles)
    # far out P^7 overflows; the Newton ratio is then the leading term's,
    # against mpmath's exact iterate
    import mpmath
    far = np.array([10 + 0j, -7 + 5j, 2e100j])
    for z, got in zip(far, poly._newton_ratios(P, far, 7)):
        with mpmath.workprec(200):
            w, dw = mpmath.mpc(z), mpmath.mpc(1)
            for _ in range(7):
                w, dw = P(w), dw * P.deriv(w)
            want = complex((w - z) / (dw - 1))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_census_polish_stops_at_the_noise_floor(monkeypatch):
    # the Aberth roots are already at the noise floor, so the polish takes
    # about one step, one evaluation that ends it and one residual check
    calls = []
    iterate_with_deriv = Polynomial.iterate_with_deriv

    def counted(P, z, n):
        calls.append(n)
        return iterate_with_deriv(P, z, n)

    monkeypatch.setattr(Polynomial, "iterate_with_deriv", counted)
    cycles = find_cycles(SQUARE, 8)
    assert _counts(cycles, 8) == [necklace(2, n) for n in range(1, 9)]
    assert len(calls) <= 4 * sum(2**n for n in range(1, 9))


def test_census_shortfall_is_a_renorm_error(monkeypatch):
    periodic_roots = poly._periodic_roots

    def move_one(P, n):
        roots = periodic_roots(P, n)
        roots[-1] += 0.1  # no longer a root of P^n(z) - z
        return roots

    monkeypatch.setattr(poly, "_periodic_roots", move_one)
    with pytest.raises(RenormError, match="period 1: 1 of 3 roots"):
        find_cycles(CUBIC, 2)


def test_classify_multiplier():
    assert classify_multiplier(0.5 + 0j) == "attracting"
    assert classify_multiplier(2 + 0j) == "repelling"
    assert classify_multiplier(-1 + 0j) == "parabolic"
    assert classify_multiplier(np.exp(2j * np.pi / 7)) == "parabolic"
    golden = np.exp(2j * np.pi * (np.sqrt(5) - 1) / 2)
    assert classify_multiplier(golden) == "neutral-irrational"
    assert unity_order(1 + 0j) == 1
    assert unity_order(-1 + 0j) == 2
    assert unity_order(np.exp(2j * np.pi / 7)) == 7
    assert unity_order(np.exp(2j * np.pi * 3 / 64)) == 64
    assert unity_order(np.exp(2j * np.pi / 65)) is None
    assert unity_order(golden) is None
    assert unity_order(0.5 + 0j) is None


def test_green_potential_square():
    assert abs(green_potential(SQUARE, math.e + 0j) - 1.0) < 1e-12
    assert green_potential(SQUARE, 1j) == 0.0  # |z| = 1 exactly in floats
    # a generic circle point is on the boundary only to rounding accuracy
    assert green_potential(SQUARE, np.exp(1j * 0.7)) < 1e-12


def test_green_potential_high_precision_oracle():
    import mpmath
    mpmath.mp.prec = 200
    z = mpmath.mpc(10, 0)
    for n in range(1, 60):
        z = z * (z + 2) ** 2
        if abs(z) > mpmath.mpf(10) ** 40:
            break
    oracle = float(mpmath.log(abs(z)) / mpmath.mpf(3) ** n)
    assert abs(green_potential(CUBIC, 10 + 0j) - oracle) < 1e-10


def test_green_functional_equation():
    rng = np.random.default_rng(3)
    for _ in range(40):
        z = complex(rng.uniform(-4, 2), rng.uniform(-3, 3))
        g = green_potential(CUBIC, z)
        if g == 0.0:
            continue
        assert abs(green_potential(CUBIC, CUBIC(z)) - 3 * g) < 1e-9


@pytest.mark.parametrize("c, expected", [
    (-1.0, [(2, "attracting", 0.0)]),       # superattracting 2-cycle 0 <-> -1
    (0.25, [(1, "parabolic", 0.5)]),        # multiplier 1: a double root of P(z) - z
    (-0.75, [(1, "parabolic", -0.5)]),      # multiplier -1, two petals
    (-1.25, [(2, "parabolic", None)]),      # 2-cycle with multiplier 1
    (-2.0, []),                             # critical orbit ends on a repelling point
    (1j, [])])                              # critical orbit strictly preperiodic
def test_critical_cycles(c, expected):
    P = Polynomial((c, 0, 1))
    got = P.critical_cycles
    assert [(cyc.period, cyc.kind) for cyc in got] == [e[:2] for e in expected]
    for cyc, (_, _, point) in zip(got, expected):
        assert abs(P.iterate(cyc.points[0], cyc.period) - cyc.points[0]) < 1e-9
        if point is not None:
            assert min(abs(p - point) for p in cyc.points) < 1e-6


def test_taylor_matches_derivatives():
    z0 = complex(-0.3, 0.7)
    t = CUBIC.taylor(z0)
    assert len(t) == CUBIC.degree + 1
    assert t[0] == pytest.approx(CUBIC(z0), abs=1e-14)
    assert t[1] == pytest.approx(CUBIC.deriv(z0), abs=1e-14)
    w = 0.01 + 0.02j
    assert sum(c * w ** k for k, c in enumerate(t)) == pytest.approx(CUBIC(z0 + w), abs=1e-14)


# The scalar Newton and chain-rule loops as they were before the fused P/P'
# pass, one `_horner` pass per value, to pin the fused kernels to the same bits.

KERNEL_POLYS = [SQUARE, BASILICA, CUBIC,
                Polynomial((0.1 + 0.3j, -0.2 + 0.5j, 0.7j, 0.4 - 0.1j, 1)),
                Polynomial((0.05 - 0.2j, 0.3, -0.4j, 0.2 + 0.1j, -0.3, 1))]


def _ref_preimage_near(P, w, seed):
    z = seed
    for _ in range(40):
        dz = P.deriv(z)
        if dz == 0:
            break
        step = (P(z) - w) / dz
        z = z - step
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            return z
    roots = P.preimages(w)
    return complex(roots[int(np.argmin(np.abs(roots - seed)))])


def _ref_iterate_with_deriv(P, z, n):
    dz = 1.0 + 0.0j
    for _ in range(n):
        dz *= P.deriv(z)
        z = P(z)
    return z, dz


def _bits(z):
    """Both components' bit patterns: equal bits, also for signed zeros,
    infinities and NaNs from overflowing orbits."""
    return np.array([z.real, z.imag]).view(np.uint64).tolist()


def _kernel_points(rng, k):
    return [complex(x, y) for x, y in rng.uniform(-1.6, 1.6, (k, 2))]


@pytest.mark.parametrize("P", KERNEL_POLYS, ids=lambda P: f"degree{P.degree}")
def test_fused_pass_is_bit_equal(P):
    rng = np.random.default_rng(1300 + P.degree)
    for z in _kernel_points(rng, 200):
        assert P.value_and_deriv(z) == (P(z), P.deriv(z))


@pytest.mark.parametrize("P", KERNEL_POLYS, ids=lambda P: f"degree{P.degree}")
def test_preimage_near_matches_reference_newton(P):
    rng = np.random.default_rng(1310 + P.degree)
    targets = _kernel_points(rng, 100)
    for z, w in zip(_kernel_points(rng, 100), targets):
        # seeds near a preimage of P(z) (the continuation's case) and far seeds
        for seed, target in ((z + 1e-3 * w, P(z)), (z, w)):
            ref = _ref_preimage_near(P, target, seed)
            assert P.preimage_near(target, seed) == (ref, P.deriv(ref))


@pytest.mark.parametrize("P", KERNEL_POLYS, ids=lambda P: f"degree{P.degree}")
def test_iterate_with_deriv_matches_chain_rule(P):
    rng = np.random.default_rng(1320 + P.degree)
    for z in _kernel_points(rng, 40):
        for n in range(13):
            got = P.iterate_with_deriv(z, n)
            ref = _ref_iterate_with_deriv(P, z, n)
            assert [_bits(v) for v in got] == [_bits(v) for v in ref]


def _ref_green_potential(P, z):
    # the loop before P(z) was inlined, to pin the inline Horner to its bits
    R, d, scale, est = P.escape_radius, P.degree, 1.0, None
    for _ in range(4096):
        if abs(z) > R:
            cur = math.log(abs(z)) / scale
            if est is not None and abs(cur - est) < 1e-13:
                return cur
            est = cur
            if abs(z) > 1e80:
                return cur
        z = P(z)
        scale *= d
    return 0.0 if est is None else est


@pytest.mark.parametrize("P", KERNEL_POLYS, ids=lambda P: f"degree{P.degree}")
def test_green_potential_matches_the_reference_loop(P):
    rng = np.random.default_rng(1330 + P.degree)
    for z in _kernel_points(rng, 60) + [c for c in critical_points(P)]:
        assert green_potential(P, z) == _ref_green_potential(P, z)


def test_preimage_near_falls_back_to_companion_roots():
    # P'(-2) = 0 on the cubic z(z+2)^2: Newton cannot start, and the companion
    # matrix root nearest the seed comes back with P' at that root
    w, seed = 0.5 + 0.25j, -2.0 + 0j
    assert CUBIC.deriv(seed) == 0
    roots = CUBIC.preimages(w)
    root = complex(roots[int(np.argmin(np.abs(roots - seed)))])
    assert CUBIC.preimage_near(w, seed) == (root, CUBIC.deriv(root))
    assert _ref_preimage_near(CUBIC, w, seed) == root


def test_inverse_bottcher_series():
    # psi(w) = w - c/(2w) - (c^2 + 2c)/(8w^3) + ... for z^2 + c, and the
    # cubic z(z+2)^2 is not centred: psi(w) = w - 4/3 + ...
    c = complex(-0.12256116687665362, 0.7448617666197442)
    series = Polynomial((c, 0, 1)).inverse_bottcher
    assert series.g_max == 0.0
    want = [1, 0, -c / 2, 0, -(c * c + 2 * c) / 8]
    assert all(abs(s - w) < 1e-15 for s, w in zip(series._scaled(5), want))
    cubic = CUBIC.inverse_bottcher
    assert cubic._scaled(2) == [1, -4 / 3]
    # truncated below 2^-53 relative: at the direct floor and the chain top
    assert (cubic.terms(0.1), cubic.terms(0.5)) == (391, 76)
    # P(psi(w)) = psi(w^d) to rounding, also on a disconnected Julia set,
    # where the coefficients are kept scaled by exp(g_max)^-k
    for P in (CUBIC, Polynomial((3, -3, 0, 1)), Polynomial((0, 1e6, 3e5, 1))):
        psi = P.inverse_bottcher
        for g in (psi.g_max + 0.1, psi.g_max + 0.5, psi.g_max + 3.0):
            for a in (0.0, 0.2137, 0.75):
                w = cmath.rect(math.exp(g), 2 * math.pi * a)
                z = psi(w, g)
                assert abs(P(z) - psi(w ** P.degree, P.degree * g)) <= 1e-13 * abs(P(z))


def test_array_call_into_out_keeps_the_bits():
    rng = np.random.default_rng(5)
    z = rng.normal(size=500) * 3 + 1j * rng.normal(size=500) * 3
    z[:3] = [1e200, np.nan, np.inf]
    for P in (CUBIC, BASILICA, Polynomial((0.3 - 0.2j, 1j, 0, 2, 1))):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.full_like(z, P.coeffs[-1])
            for c in reversed(P.coeffs[:-1]):
                ref = ref * z + c
            out = np.full_like(z, 7.0)
            assert P(z, out=out) is out
            assert out.tobytes() == ref.tobytes() == P(z).tobytes()
