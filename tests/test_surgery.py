import dataclasses
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from polyrenorm import (build_carrots, build_family, build_surgery, compare_masks,
                        escape_analysis, green_potential,
                        nonescaping_mask, visit_count_experiment, wedge_raster)
from polyrenorm import bottcher, wavefront
from polyrenorm.angles import Angle
from polyrenorm.bottcher import bottcher_point, equipotential_points
from polyrenorm.carrots import Carrot
from polyrenorm.errors import CarrotOverlap, DegreeMismatch
from polyrenorm.grid import distance_to_polyline
from polyrenorm.surgery import (CRIT, T0, U_RHO, U_RHO_D, CoonsPatch, ExteriorCap,
                                VisitReport, _interp, dilatation_report)

from conftest import CUBIC, G0, RHO


def test_degree_formula(fig1_family):
    assert fig1_family.degree_dc() == 2


def test_degree_no_critical_cuts():
    fam = build_family(CUBIC, [(Angle(0, 1), Angle(0, 1))], g0=G0)
    assert fam.degree_dc() == 3


def test_degree_rejects_injective_restriction():
    # Chebyshev-like quadratic: the critical cut (1/4, 3/4) of z^2 - 2 swallows
    # both sheets, leaving degree 1
    cheb = __import__("polyrenorm").Polynomial((-2, 0, 1))
    fam = build_family(cheb, [(Angle(1, 4), Angle(3, 4)),
                              (Angle(1, 2), Angle(1, 2)),
                              (Angle(0, 1), Angle(0, 1))], g0=0.1)
    with pytest.raises(DegreeMismatch):
        fam.degree_dc()


def _arc_carrot(lo: float, hi: float) -> Carrot:
    """A stand-in carrot on a non-degenerate cut: only its equipotential arc."""
    return Carrot(SimpleNamespace(degenerate=False), RHO, G0, None, None,
                  np.empty(0, dtype=complex), lo, hi)


def test_exterior_cap_gap_between_critical_arcs():
    # two critical arcs of width 0.2 with gaps of 0.3 between them, one given
    # below 0, onto non-degenerate image arcs of width 0.1: the gaps stretch
    # by d = 3, so the trace winds 3 * 0.6 + 2 * 0.1 = 2 = d_c
    carrots = [_arc_carrot(0.1, 0.3), _arc_carrot(-0.4, -0.2)]
    images = {0: _arc_carrot(0.3, 0.4), 1: _arc_carrot(1.8, 1.9)}
    cap = ExteriorCap.build(CUBIC, carrots, [1, 0], images, G0, 2)
    segs = cap.segments
    assert cap.start == segs[0][0] == 0.1
    assert segs[-1][1] == pytest.approx(cap.start + 1.0, abs=1e-12)
    for (_, t1, A, B), (t0, _, A_next, B_next) in zip(segs, segs[1:]):
        assert t1 == t0  # no holes
        assert A + B * t1 == pytest.approx(A_next + B_next * t1, abs=1e-12)
    assert [(round(t0, 12), round(t1, 12)) for t0, t1, _, _ in segs] == \
        [(0.1, 0.3), (0.3, 0.6), (0.6, 0.8), (0.8, 1.1)]
    assert [B for _, _, _, B in segs] == pytest.approx([0.5, 3.0, 0.5, 3.0])
    # the lift starts at image 0's side_r end
    assert segs[0][2] + segs[0][3] * segs[0][0] == pytest.approx(0.3, abs=1e-12)
    (_, _, A0, B0), (_, t_end, A1, B1) = segs[0], segs[-1]
    assert (A1 + B1 * t_end) - (A0 + B0 * cap.start) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DegreeMismatch):
        ExteriorCap.build(CUBIC, carrots, [1, 0], images, G0, 3)


def test_build_surgery_fig1(fig1_surgery):
    S = fig1_surgery
    assert S.d_c == 2
    assert S.side_agreement_max < 1e-6
    assert S.continuity_max_gap < 1e-6
    assert list(S.patches) == [0]


@pytest.mark.parametrize("scale", [1 + 1e-9, 1.5, 2.0])
def test_cap_sweep_matches_per_point_apply(fig1_surgery, scale):
    # one equipotential sweep per boundary segment, against one descent per
    # angle at the blend's potential and lifted angle
    cap = fig1_surgery.cap
    g = scale * cap.g0
    ths = (np.arange(48) + 0.31) / 48
    swept = cap.apply(g, ths)
    for th, z in zip(ths, swept):
        ghat, alpha, _ = cap._blend(g, float(th))
        assert abs(z - bottcher_point(CUBIC, ghat, alpha % 1.0)) <= 1e-13 * max(1.0, abs(z))


def test_cap_stretch_matches_per_point_descents(fig1_surgery):
    # from d**T0 * g0 on the cap is pure degree-d_c stretching, one sweep
    cap = fig1_surgery.cap
    g = 3.5 * cap.g0
    assert g >= CUBIC.degree ** T0 * cap.g0
    ths = (np.arange(48) + 0.31) / 48
    swept = cap.apply(g, ths)
    for th, z in zip(ths, swept):
        w = bottcher_point(CUBIC, cap.dc * g, (cap.dc * th) % 1.0)
        assert abs(z - w) <= 1e-13 * max(1.0, abs(z))


def test_surgery_requires_legal_family():
    fam = build_family(CUBIC, [(Angle(1, 3), Angle(2, 3))], g0=G0)
    carrots = build_carrots(CUBIC, fam.cuts, RHO)
    with pytest.raises(Exception):
        build_surgery(CUBIC, fam, RHO, carrots)


def test_surgery_carrot_overlap():
    fam = build_family(CUBIC, [(Angle(1, 3), Angle(2, 3)),
                               (Angle(0, 1), Angle(0, 1))], g0=G0)
    with pytest.raises(CarrotOverlap):
        build_surgery(CUBIC, fam, math.exp(-0.5), build_carrots(CUBIC, fam.cuts, math.exp(-0.5)))


def test_no_critical_cuts_means_f_equals_p():
    fam = build_family(CUBIC, [(Angle(0, 1), Angle(0, 1))], g0=G0)
    S = build_surgery(CUBIC, fam, RHO, build_carrots(CUBIC, fam.cuts, RHO))
    assert S.d_c == 3
    for z in (-1 + 0j, 0.2 + 0.1j, -2.5 + 0j):
        if green_potential(CUBIC, z) < S.g0:
            assert S.evaluate(z) == CUBIC(z)


def test_evaluate_f_deep_inside(fig1_surgery):
    assert fig1_surgery.evaluate(-1 + 0j) == CUBIC(-1 + 0j)
    assert fig1_surgery.evaluate(-0.5 + 0.2j) == CUBIC(-0.5 + 0.2j)


def test_evaluate_f_on_side_arcs(fig1_surgery):
    S = fig1_surgery
    for k in (10, 60, 150):
        z = complex(S.carrots[0].side_r.points[k])
        assert abs(S.evaluate(z) - CUBIC(z)) < 1e-9
        z = complex(S.carrots[0].side_l.points[k])
        assert abs(S.evaluate(z) - CUBIC(z)) < 1e-9


def test_evaluate_f_far_outside_growth(fig1_surgery):
    S = fig1_surgery
    for z in (40 + 5j, -30 + 11j):
        fz = S.evaluate(z)
        assert abs(green_potential(CUBIC, fz) - 2 * green_potential(CUBIC, z)) < 1e-9


def test_patch_sends_decorations_into_image_carrot(fig1_surgery):
    S = fig1_surgery
    fz = S.evaluate(-2.5 + 0j)  # decoration point inside the critical carrot
    img = S.image_carrots[0]
    assert img.contains(fz) or distance_to_polyline(img.boundary, fz) < 1e-6


def test_preimage_counts_at_generic_points(fig1_surgery):
    S = fig1_surgery
    g_test = 0.8 * 3 * S.g0  # the image carrot reaches angles +-g_test there
    counted = 0
    for k in range(40):
        th = (0.37 + k * 0.611) % 1.0
        if not (0.32 < th < 0.68):  # keep clear of the image carrot
            continue
        w = bottcher_point(CUBIC, g_test, th)
        assert S.preimage_count(complex(w)) == 2
        counted += 1
    assert counted >= 10


def test_visit_bounds(fig1_surgery, fig1_grid):
    visits = visit_count_experiment(fig1_surgery, 4000, 256, window=fig1_grid,
                                    seed=12345)
    assert visits.max_visits_crit <= visits.t_cr == 1
    assert visits.max_visits_total <= visits.t_bound == 2


def test_visit_experiment_reproducible(fig1_surgery, fig1_grid):
    a = visit_count_experiment(fig1_surgery, 1000, 128, window=fig1_grid, seed=9)
    b = visit_count_experiment(fig1_surgery, 1000, 128, window=fig1_grid, seed=9)
    assert (a.max_visits_crit, a.max_visits_blend) == (b.max_visits_crit, b.max_visits_blend)


def _reference_visits(S, n_seeds, max_iter, win, seed):
    """The visit experiment as one plain loop over the live seeds."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(win.center.real - win.width / 2, win.center.real + win.width / 2, n_seeds)
    im = rng.uniform(win.center.imag - win.width / 2, win.center.imag + win.width / 2, n_seeds)
    zz = re + 1j * im
    visits_crit = np.zeros(n_seeds, dtype=np.int32)
    visits_blend = np.zeros(n_seeds, dtype=np.int32)
    live = np.arange(n_seeds)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if live.size == 0:
                break
            r = S.regions.at(S.regions.index(zz))
            in_crit, in_ud, in_u = (r & CRIT) > 0, (r & U_RHO_D) > 0, (r & U_RHO) > 0
            visits_crit[live[in_crit]] += 1
            visits_blend[live[in_ud & ~in_u & ~in_crit]] += 1
            out = S.P(zz)
            for m in np.nonzero(in_crit)[0]:
                out[m] = S.interior(zz[m:m + 1])[0]
            good = np.isfinite(out) & in_ud
            live = live[good]
            zz = out[good]
    t_cr = len(S.critical)
    hist = Counter(zip(visits_crit.tolist(), visits_blend.tolist()))
    return VisitReport(int(visits_crit.max(initial=0)), int(visits_blend.max(initial=0)),
                       int((visits_crit + visits_blend).max(initial=0)),
                       t_cr, t_cr + T0, max_iter, seed,
                       tuple((c, b, n) for (c, b), n in sorted(hist.items())))


@pytest.mark.parametrize("where", ["fig1_grid", "covering_window"])
def test_visit_experiment_matches_reference_loop(where, fig1_surgery, fig1_grid):
    window = fig1_grid if where == "fig1_grid" else None
    got = visit_count_experiment(fig1_surgery, 1000, 128, window=window)
    ref = _reference_visits(fig1_surgery, 1000, 128, window or fig1_surgery.window, 0x5EEDC0DE)
    assert got == ref
    assert got.max_visits_blend > 0
    assert sum(n for _, _, n in got.histogram) == 1000
    assert len(got.histogram) > 2  # the seeds split over several visit pairs


def test_no_critical_cuts_no_visits(fig1_grid):
    fam = build_family(CUBIC, [(Angle(0, 1), Angle(0, 1))], g0=G0)
    S = build_surgery(CUBIC, fam, RHO, build_carrots(CUBIC, fam.cuts, RHO))
    visits = visit_count_experiment(S, 2000, 128, window=fig1_grid)
    assert visits.max_visits_crit == 0


def test_spiral_shadow_avoids_critical_carrot(fig1_surgery):
    # points of the periodic carrot stay in the invariant spiral shadow and
    # never reach the critical carrot
    S = fig1_surgery
    crit = S.carrots[0]
    for t in (0.001, 0.01, 0.05):
        z = complex(bottcher_point(CUBIC, t, t))  # slope-one spiral through angle 0
        for _ in range(60):
            assert not crit.contains(z)
            z = CUBIC(z)
            if abs(z) > CUBIC.escape_radius:
                break


def test_nonescaping_matches_avoiding(fig1_surgery, fig1_family, fig1_grid,
                                      fig1_masks):
    fmask = nonescaping_mask(fig1_surgery, fig1_grid, 256)
    cmp_ = compare_masks(fmask, fig1_masks.avoiding, band=2)
    assert cmp_.agreement_outside_band >= 0.97


def test_nonescaping_trivial_family(fig1_grid):
    fam = build_family(CUBIC, [(Angle(0, 1), Angle(0, 1))], g0=G0)
    S = build_surgery(CUBIC, fam, RHO, build_carrots(CUBIC, fam.cuts, RHO))
    fmask = nonescaping_mask(S, fig1_grid, 256)
    res = escape_analysis(CUBIC, fig1_grid, 256, raster=wedge_raster(CUBIC, fam))
    cmp_ = compare_masks(fmask, res.avoiding, band=2)
    assert cmp_.agreement_outside_band >= 0.97


def test_seed_in_periodic_carrot_escapes(fig1_surgery, fig1_grid):
    z = complex(bottcher_point(CUBIC, 0.01, 0.01))  # slope-one spiral through angle 0
    fmask = nonescaping_mask(fig1_surgery, fig1_grid, 256)
    i, j = fig1_grid.index_arrays(np.array([z]))
    assert not fmask.bits[i[0], j[0]]


def test_full_invariance_of_avoiding_set(fig1_surgery, fig1_masks, fig1_grid):
    # forward: f maps sampled avoiding pixels into the mask (1-pixel slack);
    # backward: preimages of sampled mask points stay in the mask
    from scipy import ndimage
    S = fig1_surgery
    av = fig1_masks.avoiding
    dilated = ndimage.binary_dilation(av.bits, structure=np.ones((3, 3)))
    rows, cols = np.nonzero(av.bits)
    sel = np.linspace(0, len(rows) - 1, 80).astype(int)
    n = fig1_grid.resolution
    ok_fwd = 0
    for k in sel:
        z = fig1_grid.center_of(int(rows[k]), int(cols[k]))
        w = CUBIC(z)  # on the avoiding set f = P
        i, j = fig1_grid.index_arrays(np.array([w]))
        if 0 <= i[0] < n and 0 <= j[0] < n and dilated[i[0], j[0]]:
            ok_fwd += 1
    assert ok_fwd >= 0.95 * len(sel)

    ok_bwd = total = 0
    for k in sel[:30]:
        w = fig1_grid.center_of(int(rows[k]), int(cols[k]))
        arr = np.array(CUBIC.coeffs[::-1], dtype=complex)
        arr[-1] -= w
        for r in np.roots(arr):
            r = complex(r)
            if green_potential(CUBIC, r) >= S.g0:
                continue
            if any(S.carrots[i].contains(r) for i in S.critical):
                continue
            total += 1
            i, j = fig1_grid.index_arrays(np.array([r]))
            if 0 <= i[0] < n and 0 <= j[0] < n and dilated[i[0], j[0]]:
                ok_bwd += 1
    assert total > 0 and ok_bwd >= 0.9 * total


def test_dilatation_report(fig1_surgery):
    rep = dilatation_report(fig1_surgery, n=24)
    ratio, reversed_frac = rep.per_patch[0]
    assert math.isfinite(ratio) and ratio >= 1.0
    assert 0.0 <= reversed_frac <= 1.0


# The scalar Coons patch as first written, point by point, to pin the array
# path to the same bits.

def _ref_interp(arr, t):
    m = len(arr) - 1
    x = min(max(t, 0.0), 1.0) * m
    i = min(int(x), m - 1)
    f = x - i
    return arr[i] * (1.0 - f) + arr[i + 1] * f


def _ref_phi_src(patch, s, t):
    L = complex(_ref_interp(patch.src_left, t))
    R = complex(_ref_interp(patch.src_right, t))
    T = complex(_ref_interp(patch.src_top, s))
    T0 = complex(patch.src_top[0])
    T1 = complex(patch.src_top[-1])
    return (1 - s) * L + s * R + t * (T - (1 - s) * T0 - s * T1)


def _ref_invert_src(patch, z, tol=1e-9):
    best = (0.5, 0.5)
    best_d = abs(_ref_phi_src(patch, 0.5, 0.5) - z)
    for k in range(22):
        for m in range(22):
            s, t = k / 21.0, m / 21.0
            dd = abs(_ref_phi_src(patch, s, t) - z)
            if dd < best_d:
                best_d, best = dd, (s, t)
    s, t = best
    h = 1e-6
    phi = lambda s, t: _ref_phi_src(patch, s, t)  # noqa: E731
    for _ in range(50):
        f = phi(s, t) - z
        if abs(f) < tol:
            break
        fs = (phi(min(s + h, 1.0), t) - phi(max(s - h, 0.0), t)) / (
            min(s + h, 1.0) - max(s - h, 0.0))
        ft = (phi(s, min(t + h, 1.0)) - phi(s, max(t - h, 0.0))) / (
            min(t + h, 1.0) - max(t - h, 0.0))
        a, b_, c, d_ = fs.real, ft.real, fs.imag, ft.imag
        det = a * d_ - b_ * c
        if det == 0:
            break
        ds = (-f.real * d_ + f.imag * b_) / det
        dt = (-a * f.imag + c * f.real) / det
        step = max(abs(ds), abs(dt))
        if step > 0.25:
            ds *= 0.25 / step
            dt *= 0.25 / step
        s = min(max(s + ds, 0.0), 1.0)
        t = min(max(t + dt, 0.0), 1.0)
        if max(abs(ds), abs(dt)) < 1e-13:
            break
    return s, t


def _ref_dilatation_grid(patch, n):
    def jac(z, i, j):
        fs = (z[i + 1, j] - z[i - 1, j]) / 2.0
        ft = (z[i, j + 1] - z[i, j - 1]) / 2.0
        return np.array([[fs.real, ft.real], [fs.imag, ft.imag]])

    ss = np.linspace(0.0, 1.0, n + 1)
    zs = np.empty((n + 1, n + 1), dtype=complex)
    for i, s in enumerate(ss):
        for j, t in enumerate(ss):
            zs[i, j] = _ref_phi_src(patch, s, t)
    # the target rows' potentials are pinned by test_coons_patch_matches_scalar_reference
    zt = patch.phi_tgt(ss[:, None], ss[None, :])
    worst, neg, total = 0.0, 0, 0
    for i in range(1, n):
        for j in range(1, n):
            js, jt = jac(zs, i, j), jac(zt, i, j)
            if abs(np.linalg.det(js)) < 1e-14:
                continue
            A = jt @ np.linalg.inv(js)
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[1] <= 0:
                continue
            worst = max(worst, float(sv[0] / sv[1]))
            neg += int(np.linalg.det(A) < 0)
            total += 1
    return worst, (neg / total if total else 0.0)


def _reference_points(S):
    """150 random points of the critical carrot, then ties: the start point
    itself, and grid nodes, several of which share the root's value on the
    t = 0 row.  Python complex, so that the references run on it."""
    patch, carrot = S.patches[0], S.carrots[0]
    box = carrot.boundary
    rng = np.random.default_rng(2024)
    zs = []
    while len(zs) < 150:
        z = complex(rng.uniform(box.real.min(), box.real.max()),
                    rng.uniform(box.imag.min(), box.imag.max()))
        if carrot.contains(z):
            zs.append(z)
    zs.append(_ref_phi_src(patch, 0.5, 0.5))
    zs += [_ref_phi_src(patch, k / 21.0, m / 21.0)
           for k, m in ((0, 0), (5, 0), (21, 0), (3, 7), (11, 11), (21, 21), (0, 21))]
    return zs


def test_coons_patch_matches_scalar_reference(fig1_surgery):
    patch = fig1_surgery.patches[0]
    zs = _reference_points(fig1_surgery)
    s, t = patch.invert_src(np.array(zs))
    assert (s[150], t[150]) == (0.5, 0.5)
    ref = [_ref_invert_src(patch, z) for z in zs]
    for z, got, want in zip(zs, zip(s, t), ref):
        assert got == want, z
    assert (patch.forward(np.array(zs)) == patch.phi_tgt(*np.array(ref).T)).all()
    ts = np.linspace(-0.1, 1.1, 97)
    assert _interp(patch.tgt_g, ts).tolist() == [_ref_interp(patch.tgt_g, t) for t in ts.tolist()]
    ss = np.linspace(0.0, 1.0, 9)
    grid = patch.phi_src(ss[:, None], ss[None, :])
    assert all(grid[i, j] == _ref_phi_src(patch, a, b)
               for i, a in enumerate(ss) for j, b in enumerate(ss))


def test_forward_batched_matches_one_point_calls(fig1_surgery):
    patch = fig1_surgery.patches[0]
    zs = _reference_points(fig1_surgery)
    batched = patch.forward(np.array(zs))
    assert all(w == patch.forward(np.array([z]))[0] for z, w in zip(zs, batched))


def test_dilatation_grid_matches_scalar_reference(fig1_surgery):
    patch = fig1_surgery.patches[0]
    assert patch.dilatation_grid(32) == _ref_dilatation_grid(patch, 32)


def test_invert_src_tie_rule():
    # blends built so that exact ties occur: a constant blend ties every node
    # with the start, and phi = s + t ties (0, 5) with (5, 0)
    def patch(left, right, top):
        return CoonsPatch(CUBIC, np.array(left, complex), np.array(right, complex),
                          np.array(top, complex), None, None, np.zeros(2), 0.0, 0.0, 0j)

    def invert(p, z):
        s, t = p.invert_src(np.array([z]))
        return float(s[0]), float(t[0])

    flat = patch([0, 0], [0, 0], [0, 0])
    assert invert(flat, 0j) == _ref_invert_src(flat, 0j) == (0.5, 0.5)
    diag = patch([0, 1], [1, 2], [1, 2])
    z = 5 / 21.0
    assert diag.phi_src(0.0, z) == diag.phi_src(z, 0.0) == z
    assert invert(diag, z) == _ref_invert_src(diag, z) == (0.0, z)


# The target side walks out from the patch's spine; per-point descents and
# per-row sweeps are the oracle.

def _close(a, b, rel=1e-13):
    return abs(a - b) <= rel * abs(b)


def test_tgt_rows_match_per_row_sweeps(fig1_surgery):
    patch = fig1_surgery.patches[0]
    ss = np.linspace(0.0, 1.0, 33)
    rows = patch.phi_tgt(ss[:, None], ss[None, :])
    gs = _interp(patch.tgt_g, ss).tolist()
    assert min(g for g in gs if g > 0) < 6.4e-12
    for j, g in enumerate(gs):
        if g <= 0.0:
            assert (rows[:, j] == patch.tgt_root).all()
            continue
        offs = [(1.0 - s) * (patch.tgt_th_r + g) + s * (patch.tgt_th_l - g) for s in ss]
        flip = offs[0] > offs[-1]
        ref = equipotential_points(CUBIC, g, Fraction(0), offs[::-1] if flip else offs)
        ref = ref[::-1] if flip else ref
        assert all(_close(z, w) for z, w in zip(rows[:, j], ref)), g


def test_phi_tgt_matches_bottcher_point(fig1_surgery):
    patch = fig1_surgery.patches[0]
    ss, ts = np.random.default_rng(77).uniform(0.0, 1.0, (2, 200))
    zs = patch.phi_tgt(ss, ts)
    for s, g, z in zip(ss, _interp(patch.tgt_g, ts), zs):
        theta = (1.0 - s) * (patch.tgt_th_r + g) + s * (patch.tgt_th_l - g)
        assert _close(z, bottcher_point(CUBIC, g, theta)), (s, g)


def test_tgt_rows_pullback_budget(fig1_surgery, monkeypatch):
    # one descent per patch: the 33 rows cost their sweeps and one spine;
    # the scalar pullbacks and the elements of the batched level solves
    # both count
    patch = dataclasses.replace(fig1_surgery.patches[0])  # a spine not yet walked
    calls = [0]
    pullback, newton = bottcher._pullback, wavefront.preimages_near

    def counted(*args):
        calls[0] += 1
        return pullback(*args)

    def counted_batch(P, wr, *args):
        calls[0] += wr.size
        return newton(P, wr, *args)

    monkeypatch.setattr(bottcher, "_pullback", counted)
    monkeypatch.setattr(wavefront, "preimages_near", counted_batch)
    ss = np.linspace(0.0, 1.0, 33)
    patch.phi_tgt(ss[:, None], ss[None, :])
    assert calls[0] <= 40_000


def _tgt_rows(patch, ss):
    """phi_tgt's rows on the grid ss x ss: (mask, potential, offsets
    in sweep order, their order)."""
    s, t = np.broadcast_arrays(ss[:, None], ss[None, :])
    g = _interp(patch.tgt_g, t)
    for gj in np.unique(g[g > 0.0]):
        row = g == gj
        offs = (1.0 - s[row]) * (patch.tgt_th_r + gj) + s[row] * (patch.tgt_th_l - gj)
        order = np.argsort(offs, kind="stable")
        yield row, float(gj), offs[order].tolist(), order


@pytest.mark.parametrize("n", [32, 64])
def test_tgt_grid_matches_row_sweeps_to_the_bit(fig1_surgery, n):
    # the batched rows against each row's scalar sweep on the same spine
    patch = dataclasses.replace(fig1_surgery.patches[0])
    ss = np.linspace(0.0, 1.0, n + 1)
    grid = patch.phi_tgt(ss[:, None], ss[None, :])
    rows = list(_tgt_rows(patch, ss))
    assert len(rows) == n
    for row, g, offs, order in rows:
        assert grid[row][order].tolist() == patch.spine.sweep(g, offs), g


def test_tgt_grid_walks_only_the_row_descents(fig1_surgery, monkeypatch):
    # every leg of the 33 x 33 grid's rows stays in the array pass: `_walk`
    # only extends the spine's ladder and takes each row's one descent node
    patch = dataclasses.replace(fig1_surgery.patches[0])
    walk, walked = bottcher._walk, []

    def recorded(P, frac, nodes, prev):
        walked.append(list(nodes))
        return walk(P, frac, nodes, prev)

    monkeypatch.setattr(bottcher, "_walk", recorded)
    ss = np.linspace(0.0, 1.0, 33)
    patch.phi_tgt(ss[:, None], ss[None, :])
    assert all(len(nodes) == 1 and not nodes[0][2] for nodes in walked)
    row_gs = {g for _, g, _, _ in _tgt_rows(patch, ss) if g < patch.spine.floor}
    assert len(row_gs) >= 30 and row_gs <= {nodes[0][0] for nodes in walked}
    assert len(walked) == len(patch.spine._chains) + len(row_gs)
