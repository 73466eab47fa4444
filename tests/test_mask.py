import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from polyrenorm import avoiding, render
from polyrenorm import (GridSpec, Mask, PixelRaster, Polynomial, build_carrots, build_family,
                        build_surgery, compare_masks, connected_components,
                        equipotential_polyline, escape_analysis, load_mask_raw,
                        nonescaping_mask, save_mask_raw, wedge_raster)
from polyrenorm.avoiding import (STRIP_ROWS, InteriorTrap, _laurent, count_components,
                                 covering_window, dilate, erode, interior_trap)
from polyrenorm.errors import GridMismatch
from polyrenorm.grid import (BLOCK_ROWS, POOL_AFTER, crossing_parity, distance_to_polyline,
                             fill_polygon, sweep_pixels)
from polyrenorm.surgery import CRIT, U_RHO, U_RHO_D

from conftest import BASILICA, CUBIC, G0, RHO, SQUARE, traced_peak

STRUCT8 = np.ones((3, 3), dtype=bool)
RABBIT = Polynomial((complex(-0.12256116687665362, 0.7448617666197442), 0, 1))


def test_square_julia_is_unit_disk():
    grid = GridSpec(0j, 4.0, 256)
    mask = escape_analysis(SQUARE, grid, 128).kp
    exact = np.abs(grid.centers()) <= 1.0
    assert (mask.bits ^ exact).mean() < 0.01


def test_grid_affine_contract():
    grid = GridSpec(complex(-1.0, 0.5), 4.0, 64)
    px = grid.pixel
    assert grid.center_of(0, 0) == complex(-1.0 - 2.0 + px / 2, 0.5 + 2.0 - px / 2)
    assert grid.center_of(63, 63) == pytest.approx(
        complex(-1.0 + 2.0 - px / 2, 0.5 - 2.0 + px / 2))
    centers = grid.centers()
    assert centers[0, 0] == grid.center_of(0, 0)
    assert centers[63, 0] == grid.center_of(63, 0)
    i, j = grid.index_arrays(np.array([grid.center_of(10, 20)]))
    assert (i[0], j[0]) == (10, 20)


@pytest.mark.parametrize("grid", [GridSpec(complex(-1.25, 0.0), 4.5, 100),
                                  GridSpec(complex(0.1, -0.3), 0.37, 33),
                                  GridSpec(0j, 4.0, 16)])
def test_rows_centers_match_the_broadcast_sum(grid):
    # the centers were re + 1j * im broadcast; written part by part they
    # keep every bit, signed zeros included
    n, px = grid.resolution, grid.pixel
    re = grid.center.real - grid.width / 2 + (np.arange(n) + 0.5) * px
    im = grid.center.imag + grid.width / 2 - (np.arange(n) + 0.5) * px
    ref = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    assert grid.centers().tobytes() == ref.tobytes()
    out = np.empty((7, n), dtype=complex)
    assert grid.rows_centers(5, 12, out=out) is out
    assert out.tobytes() == ref[5:12].tobytes()


def test_mask_keeps_bool_bits_without_a_copy():
    grid = GridSpec(0j, 2.0, 16)
    bits = np.zeros((16, 16), dtype=bool)
    assert Mask(grid, bits).bits is bits
    converted = Mask(grid, 3 * np.eye(16, dtype=np.uint8)).bits
    assert converted.dtype == bool and (converted == np.eye(16, dtype=bool)).all()


def test_avoiding_subset_and_empty_family(fig1_masks, fig1_grid, fig1_family):
    kp, av = fig1_masks.kp, fig1_masks.avoiding
    assert (av.bits <= kp.bits).all()
    assert av.count() < kp.count()
    # empty family: avoiding mask equals the plain filled-Julia mask
    from polyrenorm import build_family
    empty = build_family(CUBIC, [], g0=0.125)
    res = escape_analysis(CUBIC, fig1_grid, 256, raster=wedge_raster(CUBIC, empty))
    assert (res.avoiding.bits == res.kp.bits).all()


def test_forward_invariance_at_pixel_scale(fig1_masks, fig1_grid):
    av = fig1_masks.avoiding
    rows, cols = np.nonzero(av.bits)
    z = np.array([fig1_grid.center_of(i, j) for i, j in zip(rows, cols)])
    w = CUBIC(z)
    dilated = ndimage.binary_dilation(av.bits, structure=np.ones((3, 3)))
    i, j = fig1_grid.index_arrays(w)
    n = fig1_grid.resolution
    ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    hits = dilated[i[ok], j[ok]]
    assert hits.mean() >= 0.99


def test_wedge_exclusion(fig1_masks, fig1_grid, fig1_family):
    av = fig1_masks.avoiding
    rows, cols = np.nonzero(av.bits)
    idx = np.linspace(0, len(rows) - 1, 200).astype(int)
    w = fig1_family.wedges[0]
    for k in idx:
        z = fig1_grid.center_of(int(rows[k]), int(cols[k]))
        if w.contains(z):
            # violations may only sit within raster granularity of the boundary
            assert distance_to_polyline(w.boundary, z) < 2 * fig1_grid.pixel


def test_connected_components_basics():
    grid = GridSpec(0j, 1.0, 16)
    full = np.ones((16, 16), dtype=bool)
    assert connected_components(Mask(grid, full)) == 1
    assert ndimage.label(full, structure=STRUCT8)[1] == 1

    bits = np.zeros((16, 16), dtype=bool)
    bits[2:5, 2:5] = True
    bits[10:13, 10:13] = True
    assert connected_components(Mask(grid, bits)) == 2
    assert ndimage.label(bits, structure=STRUCT8)[1] == 2


def test_closing_bridges_one_pixel_gap():
    grid = GridSpec(0j, 1.0, 16)
    bits = np.zeros((16, 16), dtype=bool)
    bits[8, 2:7] = True
    bits[8, 8:13] = True  # one-pixel gap at column 7
    assert ndimage.label(bits, structure=STRUCT8)[1] == 2
    assert connected_components(Mask(grid, bits)) == 1


def _assert_matches_ndimage(bits):
    for it in (1, 2, 3):
        assert (dilate(bits, it) == ndimage.binary_dilation(
            bits, structure=STRUCT8, iterations=it)).all()
    for border in (False, True):
        assert (erode(bits, border) == ndimage.binary_erosion(
            bits, structure=STRUCT8, border_value=int(border))).all()
    assert (erode(dilate(bits, 1), False)
            == ndimage.binary_closing(bits, structure=STRUCT8)).all()
    assert count_components(bits) == ndimage.label(bits, structure=STRUCT8)[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1), st.booleans())
@example(1, 17, 0.5, 0, False)
@example(17, 1, 0.5, 0, False)
@example(9, 13, 0.0, 0, False)
@example(9, 13, 1.0, 0, False)
@example(1, 1, 1.0, 0, False)
@example(9, 13, 0.3, 0, True)
@example(1, 13, 0.3, 0, True)
def test_morphology_and_count_match_ndimage(h, w, p, seed, edges):
    bits = np.random.default_rng(seed).random((h, w)) < p
    if edges:
        bits[0, :] = bits[-1, :] = bits[:, 0] = bits[:, -1] = True
    _assert_matches_ndimage(bits)


def test_morphology_and_count_match_ndimage_on_fig1_masks(fig1_masks):
    for mask in (fig1_masks.kp, fig1_masks.avoiding):
        _assert_matches_ndimage(mask.bits)


def _checkerboard(n):
    return np.indices((n, n)).sum(axis=0) % 2 == 0


def _serpentine(n):
    """Every other row, joined alternately at the right and the left end."""
    bits = np.zeros((n, n), dtype=bool)
    bits[::2] = True
    bits[1::4, -1] = True
    bits[3::4, 0] = True
    return bits


def _spiral(n):
    """A square spiral one pixel wide, its turns one pixel apart."""
    bits = np.zeros((n, n), dtype=bool)
    lo, hi = 0, n - 1
    while lo <= hi:
        bits[lo, lo:hi + 1] = True
        bits[lo:hi + 1, hi] = True
        bits[hi, lo:hi + 1] = True
        bits[lo + 2:hi + 1, lo] = True
        if lo + 2 <= hi - 2:  # step in to the next turn
            bits[lo + 2, lo:lo + 3] = True
        lo, hi = lo + 2, hi - 2
    return bits


def _lattice(n):
    """Every other pixel of every other row: all 8-neighbours False."""
    bits = np.zeros((n, n), dtype=bool)
    bits[::2, ::2] = True
    return bits


@pytest.mark.parametrize("shape, count", [(_checkerboard, 1), (_serpentine, 1),
                                          (_spiral, 1), (_lattice, 256 * 256)])
def test_count_on_adversarial_masks(shape, count):
    # the first three are one component each, whose row runs join only
    # through diagonal steps or along one path through every row
    bits = shape(512)
    assert ndimage.label(bits, structure=STRUCT8)[1] == count
    assert count_components(bits) == count


def _reference_count(bits):
    """The count before the strips: the runs of the whole array from one
    np.diff, then the same root hooking."""
    h, w = bits.shape
    flat = np.zeros((h, w + 1), dtype=np.int8)
    flat[:, :w] = bits
    edge = np.diff(flat.ravel(), prepend=np.int8(0))
    starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    lo = np.searchsorted(ends, starts + (w + 1), side="left")
    hi = np.searchsorted(starts, ends + (w + 1), side="right")
    touch = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(starts.size), touch)
    b = np.arange(a.size) - np.repeat(np.cumsum(touch) - touch - lo, touch)
    root = np.arange(starts.size)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            return int(np.count_nonzero(root == np.arange(starts.size)))
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not (root[root] == root).all():
            root = root[root]


@pytest.mark.parametrize("n", [1, 2, STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 1,
                               2 * STRIP_ROWS + 1, 2 * STRIP_ROWS + 2])
def test_strip_count_matches_whole_array_count(n):
    # strips of STRIP_ROWS rows, the last one short or a single row, and the
    # closing's two-row halo reaching past either end of the mask
    rng = np.random.default_rng(n)
    masks = [rng.random((n, n)) < p for p in (0.05, 0.3, 0.5, 0.7, 0.95)]
    for bits in masks + [np.ones((n, n), dtype=bool), np.zeros((n, n), dtype=bool)]:
        if n >= 16:  # the least grid resolution
            closed = erode(dilate(bits, 1), False) | bits
            mask = Mask(GridSpec(0j, 1.0, n), bits)
            assert connected_components(mask) == _reference_count(closed)
        assert count_components(bits) == _reference_count(bits)
        assert count_components(bits[:, :37]) == _reference_count(bits[:, :37])
    assert n < 16 or len({count_components(bits) for bits in masks}) > 2


def test_connected_components_peak_memory(fig1_masks):
    # the avoiding mask with each pixel a 4 x 4 block: the closing and the
    # runs of one strip at a time, measured 0.55 bytes a pixel (one bool mask
    # is 1)
    bits = np.repeat(np.repeat(fig1_masks.avoiding.bits, 4, axis=0), 4, axis=1)
    n = len(bits)
    mask = Mask(GridSpec(complex(-1.25, 0.0), 4.5, n), bits)
    assert n == 1024 and connected_components(mask) == 1
    peak = traced_peak(lambda: connected_components(mask))
    assert peak <= 0.66 * n * n, f"{peak / (n * n):.2f} bytes a pixel"


@pytest.mark.parametrize("n, max_iter, threads, measured",
                         [(512, 256, 1, 7.94), (512, 256, 2, 12.04), (2048, 64, 1, 4.46)])
def test_escape_analysis_peak_memory_per_pixel(n, max_iter, threads, measured, fig1_raster):
    # the escape steps and the kp and hit masks take 4 bytes a pixel; the
    # rest, 20% slack on it, is one block's buffers a worker (49 bytes a
    # pixel of the block) and a step's temporaries.  At 2048^2 a block is a
    # 64th of the grid, so a mask-sized temporary at the end would show: the
    # avoiding mask is built in hit's own buffer
    grid = GridSpec(complex(-1.25, 0.0), 4.5, n)
    peak = traced_peak(lambda: escape_analysis(CUBIC, grid, max_iter, raster=fig1_raster,
                                               threads=threads))
    assert peak <= (4 + 1.2 * (measured - 4)) * n * n, f"{peak / (n * n):.2f} bytes a pixel"


def test_agreement_outside_band_is_nan_when_nothing_is_outside():
    # a checkerboard is boundary everywhere, so the band covers every pixel
    grid = GridSpec(0j, 1.0, 16)
    a = Mask(grid, _checkerboard(16))
    cmp_ = compare_masks(a, Mask(grid, ~a.bits), band=2)
    assert cmp_.pixels_outside_band == 0
    assert math.isnan(cmp_.agreement_outside_band)
    assert not cmp_.agreement_outside_band >= 0.97  # the surgery verdict fails


def test_compare_masks():
    grid = GridSpec(0j, 1.0, 32)
    a = Mask(grid, np.ones((32, 32), dtype=bool))
    b = Mask(grid, np.ones((32, 32), dtype=bool))
    cmp_ = compare_masks(a, b, band=1)
    assert cmp_.agreement == 1.0 and cmp_.symdiff_outside_band == 0

    empty = Mask(grid, np.zeros((32, 32), dtype=bool))
    assert compare_masks(a, empty).agreement == 0.0

    with pytest.raises(GridMismatch):
        compare_masks(a, Mask(GridSpec(0j, 2.0, 32), np.ones((32, 32), dtype=bool)))


def test_kp_vs_avoiding_disagree(fig1_masks):
    cmp_ = compare_masks(fig1_masks.kp, fig1_masks.avoiding, band=0)
    assert cmp_.agreement < 1.0  # decorations removed


def test_supersample_mode(fig1_raster, fig1_grid):
    res = escape_analysis(CUBIC, fig1_grid, 128, raster=fig1_raster, supersample=2)
    assert res.avoiding.bits.shape == (256, 256)
    assert (res.avoiding.bits <= res.kp.bits).all()


def test_threads_deterministic(fig1_raster, fig1_grid):
    a = escape_analysis(CUBIC, fig1_grid, 128, raster=fig1_raster, threads=1)
    b = escape_analysis(CUBIC, fig1_grid, 128, raster=fig1_raster, threads=8)
    assert (a.kp.bits == b.kp.bits).all()
    assert (a.avoiding.bits == b.avoiding.bits).all()
    assert (a.esc_steps == b.esc_steps).all()


def test_mask_raw_roundtrip(tmp_path, fig1_masks, fig1_grid):
    path = str(tmp_path / "m.raw")
    save_mask_raw(fig1_masks.avoiding, path)
    back = load_mask_raw(path, fig1_grid)
    assert (back.bits == fig1_masks.avoiding.bits).all()
    with open(path, "rb") as fh:
        head = fh.read(16)
    assert head[:8] == b"APLMASK1"
    assert int.from_bytes(head[8:12], "little") == fig1_grid.resolution


@pytest.mark.parametrize("case", ["short-header", "short-body", "long-body"])
def test_load_mask_raw_rejects_wrong_length(tmp_path, case):
    grid = GridSpec(0j, 1.0, 20)
    path = tmp_path / "m.raw"
    save_mask_raw(Mask(grid, np.ones((20, 20), dtype=bool)), str(path))
    data = path.read_bytes()
    assert len(data) == 16 + 20 * 3
    bad, expected = {"short-header": (data[:10], 16), "short-body": (data[:-5], 76),
                     "long-body": (data + bytes(5), 76)}[case]
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=f"holds {len(bad)} bytes, expected {expected}$"):
        load_mask_raw(str(path), grid)


def test_crossing_parity_matches_fill_polygon(fig1_carrots, fig1_family, fig1_grid):
    # one even-odd rule: pointwise membership at every pixel centre equals
    # the scanline fill
    polys = [c.boundary for c in fig1_carrots]
    polys += [w.boundary for w in fig1_family.wedges if w.boundary is not None]
    n = fig1_grid.resolution
    centers = fig1_grid.centers()
    for poly in polys:
        bits = np.zeros((n, n), dtype=bool)
        fill_polygon(bits, fig1_grid, poly)
        parity = np.array([[crossing_parity(poly, z) for z in row] for row in centers])
        assert bits.any()
        assert (parity == bits).all()


def _reference_fill(bits, grid, polygon):
    # the per-row scanline loop that the edge-list fill replaced
    pts = np.asarray(polygon, dtype=complex)
    if abs(pts[0] - pts[-1]) > 0:
        pts = np.append(pts, pts[0])
    x0, y0, x1, y1 = pts[:-1].real, pts[:-1].imag, pts[1:].real, pts[1:].imag
    n, px = grid.resolution, grid.pixel
    left = grid.center.real - grid.width / 2
    top = grid.center.imag + grid.width / 2
    i_lo = max(0, int(np.floor((top - pts.imag.max()) / px - 0.5)))
    i_hi = min(n - 1, int(np.ceil((top - pts.imag.min()) / px - 0.5)))
    for i in range(i_lo, i_hi + 1):
        y = top - (i + 0.5) * px
        hit = (y0 <= y) != (y1 <= y)
        xs = np.sort(x0[hit] + (y - y0[hit]) * (x1[hit] - x0[hit]) / (y1[hit] - y0[hit]))
        for k in range(0, len(xs) - 1, 2):
            ja = int(np.ceil((xs[k] - left) / px - 0.5))
            jb = int(np.floor((xs[k + 1] - left) / px - 0.5))
            if jb < 0 or ja > n - 1 or jb < ja:
                continue
            bits[i, max(ja, 0):min(jb, n - 1) + 1] = True


def _scanline(grid, i):
    return grid.center.imag + grid.width / 2 - (i + 0.5) * grid.pixel


def _column(grid, j):
    return grid.center.real - grid.width / 2 + (j + 0.5) * grid.pixel


_FILL_GRID = GridSpec(0.1 + 0.05j, 2.0, 64)
_FILL_POLYGONS = {
    # vertices exactly on pixel-centre scanlines and columns
    "on-scanlines": [complex(_column(_FILL_GRID, j), _scanline(_FILL_GRID, i))
                     for j, i in ((5, 5), (40, 5), (40, 30), (20, 50), (5, 30))],
    # horizontal edges, on and between scanlines, and a closed point list
    "horizontal": [complex(-0.7, _scanline(_FILL_GRID, 10)), complex(0.6, _scanline(_FILL_GRID, 10)),
                   0.6 - 0.3j, 0.2 - 0.3j, 0.2 - 0.6j, -0.7 - 0.6j,
                   complex(-0.7, _scanline(_FILL_GRID, 10))],
    # a pentagram: self-intersecting, its centre outside by even-odd
    "pentagram": [0.8 * np.exp(2j * np.pi * (0.25 + 0.4 * k)) for k in range(5)],
    # parts above, below and to both sides of the window
    "overhanging": [-1.5 - 0.2j, 0.4 - 1.7j, 1.6 + 0.1j, 0.3 + 1.9j, -0.2 + 0.4j],
    "outside": [3 + 3j, 4 + 3j, 4 + 4j],
    # thinner than a pixel, between two scanlines
    "sliver": [-0.5 + 0.01j, 0.5 + 0.011j, -0.5 + 0.012j],
}


@pytest.mark.parametrize("name", list(_FILL_POLYGONS))
def test_fill_polygon_matches_the_row_loop(name):
    poly = np.array(_FILL_POLYGONS[name])
    for grid in (_FILL_GRID, _FILL_GRID.subdivide(4)):
        n = grid.resolution
        bits, ref = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
        fill_polygon(bits, grid, poly)
        _reference_fill(ref, grid, poly)
        assert (bits == ref).all()
    assert bits.any() == (name not in ("outside", "sliver"))  # the sliver misses every row
    if name == "pentagram":
        assert not bits[n // 2 - 10, n // 2 - 3]  # the centre: wound twice


def test_fill_polygon_matches_the_row_loop_on_figure1(fig1_carrots, fig1_family, fig1_grid):
    polys = [c.boundary for c in fig1_carrots]
    polys += [w.boundary for w in fig1_family.wedges if w.boundary is not None]
    n = fig1_grid.resolution
    for poly in polys:
        bits, ref = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
        fill_polygon(bits, fig1_grid, poly)
        _reference_fill(ref, fig1_grid, poly)
        assert (bits == ref).all()


def _reference_polyline(img, grid, points, color):
    # the per-segment loop that the one-pass sampling replaced
    pts = np.asarray(points, dtype=complex)
    n = grid.resolution
    for a, b in zip(pts[:-1], pts[1:]):
        steps = max(1, int(abs(b - a) / (0.5 * grid.pixel)) + 1)
        zs = a + np.linspace(0.0, 1.0, steps + 1) * (b - a)
        i, j = grid.index_arrays(zs)
        ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        img[i[ok], j[ok]] = np.array(color, dtype=np.uint8)


@pytest.mark.parametrize("name", list(_FILL_POLYGONS))
def test_draw_polyline_matches_the_segment_loop(name):
    pts = np.array(_FILL_POLYGONS[name] + [_FILL_POLYGONS[name][0], 0j, 0j, 1e-9 + 0j])
    for grid in (_FILL_GRID, _FILL_GRID.subdivide(4)):
        n = grid.resolution
        img, ref = np.zeros((n, n), dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
        render.draw_polyline(img, grid, pts, render.CLASS_RAY)
        _reference_polyline(ref, grid, pts, render.CLASS_RAY)
        assert (img == ref).all()
        assert img.any()


def test_linspace_is_the_product_with_the_reciprocal():
    # draw_polyline's sampling parameters: k*(1/s), the last one 1.0
    for s in range(1, 1001):
        ts = np.arange(s + 1) * (1.0 / s)
        ts[-1] = 1.0
        assert (ts == np.linspace(0.0, 1.0, s + 1)).all()


# -- reference sweeps: the plain loops the pixel sweeps must reproduce bit for bit

def _reference_lookup(raster, z, bit=1):
    """Bounds-masked 2-D lookup of one layer: points outside the window (or
    not finite) read False."""
    with np.errstate(invalid="ignore"):
        i, j = raster.grid.index_arrays(z)
    n = raster.grid.resolution
    ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    out = np.zeros(z.shape, dtype=bool)
    out[ok] = raster.layer(bit)[i[ok], j[ok]]
    return out


def _reference_P(P, z):
    w = np.full_like(z, P.coeffs[-1])
    for c in reversed(P.coeffs[:-1]):
        w = w * z + c
    return w


def _reference_escape(P, raster, grid, max_iter):
    z = grid.centers().ravel()
    esc = np.zeros(z.size, dtype=np.uint16)
    hit = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    R = P.escape_radius
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if raster is not None:
                hit[live[_reference_lookup(raster, z)]] = True
            z = _reference_P(P, z)
            a = np.abs(z)
            gone = ~np.isfinite(a) | (a > R)
            esc[live[gone]] = it
            live = live[~gone]
            z = z[~gone]
    n = grid.resolution
    return esc.reshape(n, n), hit.reshape(n, n)


def _majority(bits):
    q = (bits[0::2, 0::2].astype(np.uint8) + bits[0::2, 1::2]
         + bits[1::2, 0::2] + bits[1::2, 1::2])
    return q >= 2


def test_raster_lookup_matches_bounds_masked_reference(fig1_family):
    grid = GridSpec(complex(-2.2, 0.1), 1.0, 64)
    raster = PixelRaster(grid, [[fig1_family.wedges[0].boundary]])  # crosses the window
    assert raster.layer(1).any() and not raster.layer(1).all()
    n, px = grid.resolution, grid.pixel
    left = grid.center.real - grid.width / 2
    top = grid.center.imag + grid.width / 2
    rng = np.random.default_rng(3)
    # inside and around the window
    pts = [rng.uniform(left - 0.5, left + 1.5, 4000)
           + 1j * rng.uniform(top - 1.5, top + 0.5, 4000)]
    # on pixel edges and corners, one ring beyond the window included
    xs = left + np.arange(-2, n + 3) * px
    ys = top - np.arange(-2, n + 3) * px
    pts.append((xs[np.newaxis, :] + 1j * ys[:, np.newaxis]).ravel())
    pts.append(xs + 1j * (top - 10.5 * px))
    pts.append(left + 20.5 * px + 1j * ys)
    # non-finite coordinates, alone and with finite in-window partners
    inside = left + 30.5 * px
    special = [np.inf, -np.inf, np.nan, inside]
    pts.append(np.array([complex(a, b) for a in special for b in special]))
    z = np.concatenate(pts)
    got = raster.lookup(z, np.empty(z.size))
    assert got.dtype == bool and got.shape == z.shape
    assert (got == _reference_lookup(raster, z)).all()
    assert got.any()
    # one `index` and one `at` call read the same bits
    k = raster.index(z)
    assert (raster.at(k) == got).all()


@pytest.mark.parametrize("case", ["cubic", "cubic-supersample", "square"])
def test_escape_analysis_matches_reference_loop(case, fig1_family):
    P, family = (SQUARE, None) if case == "square" else (CUBIC, fig1_family)
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 128) if P is CUBIC else GridSpec(0j, 4.0, 128)
    ss = 2 if case == "cubic-supersample" else 1
    raster = wedge_raster(P, family) if family is not None else None
    res = escape_analysis(P, grid, 256, raster=raster, supersample=ss)
    esc, hit = _reference_escape(P, raster, grid.subdivide(ss) if ss == 2 else grid, 256)
    kp = esc == 0
    av = kp & ~hit
    if ss == 2:
        kp, av, esc = _majority(kp), _majority(av), esc[::2, ::2]
    assert (res.esc_steps == esc).all()
    assert (res.kp.bits == kp).all()
    if family is None:
        assert res.avoiding is None
    else:
        assert (res.avoiding.bits == av).all()
        assert res.avoiding.count() < res.kp.count()


def _reference_nonescaping(S, grid, max_iter):
    z = grid.centers().ravel()
    alive = np.ones(z.size, dtype=bool)
    live = np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            inside = _reference_lookup(S.regions, z, U_RHO) & ~_reference_lookup(S.regions, z, CRIT)
            alive[live[~inside]] = False
            live, z = live[inside], _reference_P(S.P, z[inside])
            bad = ~np.isfinite(z.real) | ~np.isfinite(z.imag)
            alive[live[bad]] = False
            live, z = live[~bad], z[~bad]
    n = grid.resolution
    return alive.reshape(n, n)


def test_nonescaping_mask_matches_reference_loop(fig1_surgery):
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 128)
    bits = nonescaping_mask(fig1_surgery, grid, 256).bits
    assert bits.any()
    assert (bits == _reference_nonescaping(fig1_surgery, grid, 256)).all()


# -- certified interior traps

def _iv_point(z):
    from mpmath import iv
    z = complex(z)
    return iv.mpc(z.real, z.imag)


def _iv_box(z, h):
    from mpmath import iv
    return iv.mpc(iv.mpf([z.real - h, z.real + h]), iv.mpf([z.imag - h, z.imag + h]))


def _iv_poly(P, z, slack):
    """Enclosure of P over the box z, widened by `slack` for float rounding."""
    from mpmath import iv
    w = _iv_point(P.coeffs[-1])
    for c in reversed(P.coeffs[:-1]):
        w = w * z + _iv_point(c)
    return w + iv.mpc(iv.mpf([-slack, slack]), iv.mpf([-slack, slack]))


def _iv_phi(a, z0, z):
    from mpmath import iv
    v = 1 / (z - _iv_point(z0))
    acc = iv.mpc(0)
    for c in reversed(a):
        acc = (acc + _iv_point(c)) * v
    return acc


@pytest.mark.parametrize("name", ["cubic", "basilica", "quarter"])
def test_lobe_membership_only_near_its_point(name):
    """A lobe tests the Fatou coordinate only within rho_hi of its point;
    membership equals the full test everywhere, at rho_hi (1 +- 1e-6) too."""
    P = {"cubic": CUBIC, "basilica": BASILICA, "quarter": Polynomial((0.25, 0, 1))}[name]
    trap = interior_trap(P, 256)
    assert trap.lobes
    rng = np.random.default_rng(3)
    for lobe in trap.lobes:
        z0, a, M, K, rho_hi = lobe
        turns = np.exp(2j * np.pi * rng.uniform(0, 1, 4000))
        z = z0 + np.concatenate([
            2 * rho_hi * rng.uniform(0, 1, 20000) ** 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 20000)),
            rho_hi * (1 - 1e-6) * turns, rho_hi * (1 + 1e-6) * turns,
            rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000), [0, np.inf, np.nan]])
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = _laurent(a, 1.0 / (z - z0))
            full = (phi.real > M) & (np.abs(phi) < K)
        assert full.any()
        assert np.array_equal(InteriorTrap((), (lobe,)).contains(z), full)


@pytest.mark.parametrize("name", ["cubic", "basilica", "rabbit", "quarter"])
def test_trap_certificate_against_interval_arithmetic(name):
    """Sampled boxes of the trap, pushed through one step of P in interval
    arithmetic (widened by 1e-13 for float rounding): a lobe's Fatou
    coordinate rises by at least 1/4 and its modulus by at most 3; a disk's
    image lies in the next disk of its cycle."""
    from mpmath import iv
    iv.prec = 90
    P = {"cubic": CUBIC, "basilica": BASILICA, "rabbit": RABBIT,
         "quarter": Polynomial((0.25, 0, 1))}[name]  # z^2 + 1/4: multiplier 1
    max_iter = 256
    trap = interior_trap(P, max_iter)
    assert trap
    rng = np.random.default_rng(7)
    for z0, a, M, K, _ in trap.lobes:
        w = (rng.uniform(-1, 1, 20000) + 1j * rng.uniform(-1, 1, 20000)) * 0.5
        z = z0 + w[trap.contains(z0 + w)][:150]
        assert z.size == 150
        for zk in z:
            box = _iv_box(zk, 1e-9 * abs(zk - z0))
            before = _iv_phi(a, z0, box)
            after = _iv_phi(a, z0, _iv_poly(P, box, 1e-13))
            assert float(after.real.a) - float(before.real.b) >= 0.25
            assert float(abs(after).b) <= float(abs(before).a) + 3
        # and the float orbits themselves stay in the certified set
        for _ in range(max_iter):
            z = P(z)
            phi = sum(c * (z - z0) ** -(k + 1) for k, c in enumerate(a))
            assert (phi.real >= M - 1e-6).all()
            assert (np.abs(phi) <= K + 1 + 3 * max_iter).all()
    centers = np.array([c for c, _ in trap.disks])
    for c, r in trap.disks:
        nxt = int(np.argmin(np.abs(centers - P(c))))
        c1, r1 = trap.disks[nxt]
        rim = c + r * (1 - 1e-8) * np.exp(2j * np.pi * np.arange(64) / 64)
        inner = c + r * rng.uniform(0, 1, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
        for zk in np.concatenate([rim, inner]):
            img = _iv_poly(P, _iv_box(zk, 1e-9 * r), 1e-13) - _iv_point(c1)
            assert float(abs(img).b) <= r1 / (1 - 1e-12)


@pytest.mark.parametrize("c", [-2.0, -1.25])
def test_no_trap_falls_back_to_full_loop(c):
    # z^2 - 2: the critical orbit lands on the repelling fixed point 2;
    # z^2 - 5/4: its parabolic cycle has period 2, which gets no lobes
    P = Polynomial((c, 0, 1))
    assert not interior_trap(P, 256)
    grid = GridSpec(0j, 4.5, 64)
    res = escape_analysis(P, grid, 256)
    esc, _ = _reference_escape(P, None, grid, 256)
    assert (res.esc_steps == esc).all()


@pytest.mark.parametrize("name", ["cubic", "basilica", "rabbit"])
def test_trapped_sweep_matches_reference_threads_and_supersample(name, fig1_family):
    P, family = {"cubic": (CUBIC, fig1_family), "basilica": (BASILICA, None),
                 "rabbit": (RABBIT, None)}[name]
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 64) if P is CUBIC else GridSpec(0j, 3.5, 64)
    raster = wedge_raster(P, family) if family is not None else None
    assert interior_trap(P, 256, raster, avoid=1 if raster is not None else 0)
    esc, hit = _reference_escape(P, raster, grid.subdivide(2), 256)
    kp, av = _majority(esc == 0), _majority((esc == 0) & ~hit)
    res = escape_analysis(P, grid, 256, raster=raster, supersample=2, threads=2)
    assert (res.esc_steps == esc[::2, ::2]).all()
    assert (res.kp.bits == kp).all()
    if family is not None:
        assert (res.avoiding.bits == av).all()


def test_nonescaping_mask_threads_match(fig1_surgery):
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 128)
    assert interior_trap(CUBIC, 256, fig1_surgery.regions, avoid=CRIT, stay_in=U_RHO)
    one = nonescaping_mask(fig1_surgery, grid, 256, threads=1).bits
    assert (nonescaping_mask(fig1_surgery, grid, 256, threads=2).bits == one).all()


def test_trap_catches_bounded_pixels(fig1_masks, fig1_grid, fig1_family):
    trap = interior_trap(CUBIC, 256, wedge_raster(CUBIC, fig1_family), avoid=1)
    z = fig1_grid.centers()[fig1_masks.kp.bits]
    caught = np.zeros(z.size, dtype=bool)
    for _ in range(256):
        caught |= trap.contains(z)
        z = CUBIC(z)
    assert caught.mean() >= 0.99


# -- the pooled sweep: row blocks for POOL_AFTER iterations, then one array

POOL_CASES = [POOL_AFTER - 1, POOL_AFTER, POOL_AFTER + 1, 200]


@pytest.fixture(scope="module")
def fig1_raster(fig1_family):
    return wedge_raster(CUBIC, fig1_family)


@pytest.mark.parametrize("max_iter", POOL_CASES)
@pytest.mark.parametrize("threads, ss", [(1, 1), (2, 2)])
def test_escape_analysis_pool_boundaries(max_iter, threads, ss, fig1_raster):
    # 100 rows: three full blocks and a short one
    assert 100 % BLOCK_ROWS
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 100)
    res = escape_analysis(CUBIC, grid, max_iter, raster=fig1_raster, threads=threads,
                          supersample=ss)
    esc, hit = _reference_escape(CUBIC, fig1_raster, grid.subdivide(ss), max_iter)
    kp, av = esc == 0, (esc == 0) & ~hit
    if ss == 2:
        kp, av, esc = _majority(kp), _majority(av), esc[::2, ::2]
    assert (res.esc_steps == esc).all()
    assert (res.kp.bits == kp).all()
    assert (res.avoiding.bits == av).all()


@pytest.mark.parametrize("max_iter", POOL_CASES)
@pytest.mark.parametrize("threads", [1, 2])
def test_nonescaping_mask_pool_boundaries(max_iter, threads, fig1_surgery):
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 100)
    bits = nonescaping_mask(fig1_surgery, grid, max_iter, threads=threads).bits
    assert bits.any()
    assert (bits == _reference_nonescaping(fig1_surgery, grid, max_iter)).all()


def test_empty_pool_matches_reference():
    # z^2 on a window whose every pixel escapes or enters the trap at 0
    # within the first POOL_AFTER iterations: the pool is empty
    grid = GridSpec(complex(0.1, 0.2), 2.5, 80)
    trap = interior_trap(SQUARE, 256)
    z = grid.centers().ravel()
    decided = np.zeros(z.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(POOL_AFTER):
            decided |= trap.contains(z)
            z = SQUARE(z)
            decided |= ~(np.abs(z) <= SQUARE.escape_radius)
    assert decided.all()
    esc, _ = _reference_escape(SQUARE, None, grid, 256)
    assert (esc == 0).any() and (esc > 0).any()
    for threads in (1, 2):
        assert (escape_analysis(SQUARE, grid, 256, threads=threads).esc_steps
                == esc).all()


def test_empty_trap_runs_through_the_pool():
    # z^2 - 2 certifies nothing, so every pixel runs the plain loop; on 101
    # rows the middle one lies on the real axis, whose part in [-2, 2] never
    # escapes: those pixels run the whole pooled phase
    P = Polynomial((-2.0, 0, 1))
    assert not interior_trap(P, 256)
    grid = GridSpec(0j, 4.5, 101)
    esc, _ = _reference_escape(P, None, grid, 256)
    assert (esc == 0).any()
    for threads in (1, 2):
        assert (escape_analysis(P, grid, 256, threads=threads).esc_steps == esc).all()


def _recording_step(P, seen, last):
    """A sweep step that adds every iterate it sees to `seen` and the
    iteration to `last`, by label, and keeps the orbits with |P(z)| <= R."""
    R = P.escape_radius

    def step(z, idx, it, buf):
        assert buf.out.size == buf.mod.size == buf.keep.size == z.size == idx.size
        seen[idx] += z
        last[idx] = it
        np.abs(P(z, out=buf.out), out=buf.mod)
        return np.less_equal(buf.mod, R, out=buf.keep)
    return step


def _reference_recording(P, grid, max_iter, trap):
    """The recording step's sweep as one plain loop over fresh arrays, the
    orbits in the trap retired from iteration POOL_AFTER on."""
    z = grid.centers().ravel()
    seen = np.zeros(z.size, dtype=complex)
    last = np.zeros(z.size, dtype=np.int64)
    live = np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if trap and it >= POOL_AFTER:
                free = ~trap.contains(z)
                z, live = z[free], live[free]
            seen[live] += z
            last[live] = it
            z = _reference_P(P, z)
            keep = np.abs(z) <= P.escape_radius
            z, live = z[keep], live[keep]
    return seen, last


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("trapped", [False, True])
@pytest.mark.parametrize("name, n", [("cubic", 150), ("basilica", 64), ("square", 40),
                                     ("square", 20)])
def test_buffered_sweep_matches_plain_loop(name, n, trapped, threads):
    # 150 rows: full blocks and a short one, with more blocks than threads,
    # so each worker reuses its buffers; 40 rows: one full block and a short
    # one; 20 rows: one short block
    P = {"cubic": CUBIC, "basilica": BASILICA, "square": SQUARE}[name]
    grid = GridSpec(complex(-1.25, 0.0), 4.5, n) if P is CUBIC else GridSpec(0j, 3.5, n)
    trap = interior_trap(P, 64) if trapped else InteriorTrap()
    assert bool(trap) == trapped
    seen = np.zeros(n * n, dtype=complex)
    last = np.zeros(n * n, dtype=np.int64)
    sweep_pixels(grid, 64, _recording_step(P, seen, last), threads, trap)
    ref_seen, ref_last = _reference_recording(P, grid, 64, trap)
    assert np.array_equal(last, ref_last)
    assert seen.tobytes() == ref_seen.tobytes()
    assert (last < POOL_AFTER).any()
    # with the trap, some bounded orbits retire before the budget ends
    untrapped = ref_last if not trapped else _reference_recording(P, grid, 64, InteriorTrap())[1]
    assert (last < untrapped).any() == trapped


def test_blocks_share_outputs_under_fast_thread_switching(fig1_raster):
    # the row blocks write into the same grid-sized arrays at disjoint flat
    # indices; switching threads every microsecond must lose no write
    grid = GridSpec(complex(-1.25, 0.0), 4.5, 320)  # ten blocks, eight workers
    one = escape_analysis(CUBIC, grid, 64, raster=fig1_raster)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = escape_analysis(CUBIC, grid, 64, raster=fig1_raster, threads=8)
    finally:
        sys.setswitchinterval(old)
    assert (many.esc_steps == one.esc_steps).all()
    assert (many.avoiding.bits == one.avoiding.bits).all()


# -- covering windows: the plain escape loop that bounded them before the sweep did

def _reference_window(P, polylines):
    """Bounding square of the pixels of a 160^2 grid over |z| <= R whose 96
    iterates stay within R, widened by 1/2, then to the polylines, then by 2%."""
    R = P.escape_radius
    g = GridSpec(0j, 2.0 * R, 160)
    z = g.centers()
    bounded = np.ones(z.shape, dtype=bool)
    w = z.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(96):
            w = P(w)
            esc = np.abs(w) > R
            bounded &= ~esc
            np.copyto(w, 0.0, where=esc)
    center, half = 0j, 1.0
    if bounded.any():
        rows, cols = np.nonzero(bounded)
        zs = z[rows, cols]
        re_lo, re_hi = zs.real.min(), zs.real.max()
        im_lo, im_hi = zs.imag.min(), zs.imag.max()
        center = complex((re_lo + re_hi) / 2, (im_lo + im_hi) / 2)
        half = max(re_hi - re_lo, im_hi - im_lo) / 2 + 0.5
    for arr in polylines:
        half = max(half,
                   abs(arr.real.max() - center.real), abs(arr.real.min() - center.real),
                   abs(arr.imag.max() - center.imag), abs(arr.imag.min() - center.imag))
    return GridSpec(center, 2.0 * half * 1.02, 4096), bool(bounded.any())


WINDOW_POLYS = {"cubic": CUBIC, "basilica": BASILICA, "square": SQUARE,
                "z2-3/4": Polynomial((-0.75, 0, 1)), "z2+1/4": Polynomial((0.25, 0, 1)),
                "z2-2": Polynomial((-2, 0, 1)), "z2+10": Polynomial((10, 0, 1))}


@pytest.mark.parametrize("name", WINDOW_POLYS)
def test_covering_window_matches_reference_loop(name):
    P = WINDOW_POLYS[name]
    ref, any_bounded = _reference_window(P, [])
    # no pixel center of the coarse grid lies on the Julia set of z^2 - 2,
    # and z^2 + 10 has a Cantor Julia set: both take the empty-box branch
    assert any_bounded == (name not in ("z2-2", "z2+10"))
    assert covering_window(P, []) == ref


def test_covering_windows_of_one_polynomial_share_one_coarse_sweep(monkeypatch):
    P = Polynomial(CUBIC.coeffs)  # a fresh polynomial, nothing kept on it yet
    sweeps = []
    real = avoiding.escape_analysis

    def counting(*args, **kwargs):
        sweeps.append(args[1].resolution)
        return real(*args, **kwargs)

    monkeypatch.setattr(avoiding, "escape_analysis", counting)
    far = np.array([6 + 6j, -6 - 6j])
    assert covering_window(P, []) == _reference_window(CUBIC, [])[0]
    assert covering_window(P, [far]) == _reference_window(CUBIC, [far])[0]
    assert sweeps == [160]


def test_wedge_raster_matches_reference_fill(fig1_family, fig1_raster):
    walls = [w.boundary for w in fig1_family.wedges if w.boundary is not None]
    win, _ = _reference_window(CUBIC, walls)
    bits = np.zeros((win.resolution, win.resolution), dtype=bool)
    for poly in walls:
        fill_polygon(bits, win, poly)
    assert fig1_raster.grid == win
    assert (fig1_raster.layer(1) == bits).all()


def test_surgery_window_matches_reference_loop(fig1_surgery):
    S = fig1_surgery
    outer = np.asarray(equipotential_polyline(CUBIC, CUBIC.degree * S.g0, 256))
    ref, _ = _reference_window(CUBIC, [outer] + [c.boundary for c in S.carrots])
    assert S.window == ref


# -- the surgery's regions: one uint8 raster over the box of its set pixels

@pytest.fixture(scope="module")
def z2_minus_5_4_surgery():
    # no cuts, so the critical layer is empty
    P = Polynomial((-1.25, 0, 1))
    family = build_family(P, [], g0=G0)
    return build_surgery(P, family, RHO, build_carrots(P, family.cuts, RHO))


@pytest.fixture(scope="module", params=["figure1", "z2_minus_5_4"])
def regions_case(request, fig1_surgery, z2_minus_5_4_surgery):
    """(surgery, {bit: the layer filled into a window-sized bool array})."""
    S = fig1_surgery if request.param == "figure1" else z2_minus_5_4_surgery
    P, n = S.P, S.window.resolution
    polygons = {CRIT: [S.carrots[i].boundary for i in S.critical],
                U_RHO: [equipotential_polyline(P, S.g0, 1024)],
                U_RHO_D: [equipotential_polyline(P, P.degree * S.g0, 1024)]}
    full = {}
    for bit, polys in polygons.items():
        full[bit] = np.zeros((n, n), dtype=bool)
        for poly in polys:
            fill_polygon(full[bit], S.window, poly)
    assert full[CRIT].any() == (request.param == "figure1")
    return S, full


def test_region_layers_match_full_size_fill(regions_case):
    S, full = regions_case
    for bit, bits in full.items():
        assert (S.regions.layer(bit) == bits).all()
    # blocks straddling the edges of the set pixels and of the window
    union = full[CRIT] | full[U_RHO] | full[U_RHO_D]
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    n = S.window.resolution
    padded = np.pad(full[U_RHO_D], 10)
    for i0, j0 in [(rows[0] - 3, cols[0] - 3), (rows[-1] - 2, cols[-1] - 2), (-2, -3),
                   (n - 5, n - 5), (rows[0] + 40, cols[0] - 1)]:
        i1, j1 = i0 + 7, j0 + 9
        ref = padded[i0 + 10:i1 + 10, j0 + 10:j1 + 10]
        assert (S.regions.layer(U_RHO_D, i0, i1, j0, j1) == ref).all()


def test_region_index_at_matches_bounds_masked_reference(regions_case):
    S, full = regions_case
    grid, n, px = S.window, S.window.resolution, S.window.pixel
    left = grid.center.real - grid.width / 2
    top = grid.center.imag + grid.width / 2
    union = full[CRIT] | full[U_RHO] | full[U_RHO_D]
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    rng = np.random.default_rng(5)
    pts = [rng.uniform(left - 1, left + grid.width + 1, 20000)
           + 1j * rng.uniform(top - grid.width - 1, top + 1, 20000)]
    # pixel edges and centers on the rows and columns next to the edges of
    # the set pixels, and on the window's own edges
    steps = np.arange(-3, 4, 0.5)
    ii = np.concatenate([rows[0] + steps, rows[-1] + 1 + steps, [-1, 0, n, n + 0.5]])
    jj = np.concatenate([cols[0] + steps, cols[-1] + 1 + steps, [-1, 0, n, n + 0.5]])
    xs, ys = left + jj * px, top - ii * px
    xs_all, ys_all = left + np.arange(-1, n + 2, 0.5) * px, top - np.arange(-1, n + 2, 0.5) * px
    pts.append((xs_all[np.newaxis, :] + 1j * ys[:, np.newaxis]).ravel())
    pts.append((xs[np.newaxis, :] + 1j * ys_all[:, np.newaxis]).ravel())
    special = [np.inf, -np.inf, np.nan, grid.center.real, grid.center.imag]
    pts.append(np.array([complex(a, b) for a in special for b in special]))
    z = np.concatenate(pts)
    got = S.regions.at(S.regions.index(z))
    assert got.dtype == np.uint8
    with np.errstate(invalid="ignore"):
        i, j = grid.index_arrays(z)
    ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    for bit, bits in full.items():
        ref = np.zeros(z.shape, dtype=bool)
        ref[ok] = bits[i[ok], j[ok]]
        assert ((got & bit) > 0).tolist() == ref.tolist()
        assert ((got & bit) > 0).any() == bits.any()


def _reference_clear_of(bits, grid, keep_inside, center, radius, may_meet):
    """`_clear_of` on a window-sized bool layer, as the plain block read."""
    n, px = grid.resolution, grid.pixel
    s = 1.5 * math.sqrt(2.0) * px
    left, top = grid.center.real - grid.width / 2, grid.center.imag + grid.width / 2
    j0, j1 = (math.floor((center.real + sgn * (radius + s) - left) / px) for sgn in (-1, 1))
    i0, i1 = (math.floor((top - center.imag - sgn * (radius + s)) / px) for sgn in (1, -1))
    if keep_inside and not (0 <= j0 and j1 < n and 0 <= i0 and i1 < n):
        return False
    i0, j0 = max(i0, 0), max(j0, 0)
    i1, j1 = min(i1, n - 1), min(j1, n - 1)
    if i1 < i0 or j1 < j0:
        return True
    block = bits[i0:i1 + 1, j0:j1 + 1]
    ii, jj = np.nonzero(~block if keep_inside else block)
    x = (left + (jj + j0 + 0.5) * px) + 1j * (top - (ii + i0 + 0.5) * px)
    return not may_meet(x, s).any()


def test_clear_of_on_the_regions_matches_full_raster_reference(regions_case):
    S, full = regions_case
    grid, px = S.window, S.window.pixel
    union = full[CRIT] | full[U_RHO] | full[U_RHO_D]
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    rng = np.random.default_rng(11)
    # centers near the corners of the set pixels' box, near the window's
    # corners and anywhere, with radii of a few to a few hundred pixels
    corners = [grid.center_of(i, j) for i in (rows[0], rows[-1], 0, grid.resolution - 1)
               for j in (cols[0], cols[-1], 0, grid.resolution - 1)]
    centers = [c + complex(*rng.normal(0, 20 * px, 2)) for c in corners for _ in range(2)]
    centers += [grid.center_of(*rng.integers(0, grid.resolution, 2)) for _ in range(8)]
    outcomes = set()
    for center in centers:
        radius = float(rng.choice([3, 30, 300])) * px
        for may_meet in (lambda x, s: np.abs(x - center) <= radius + s,
                         lambda x, s: np.ones(x.shape, dtype=bool)):
            for bit, bits in full.items():
                for keep_inside in (False, True):
                    want = _reference_clear_of(bits, grid, keep_inside, center, radius, may_meet)
                    assert avoiding._clear_of(S.regions, bit, keep_inside, center, radius,
                                              may_meet) == want
                    outcomes.add(want)
    assert outcomes == {False, True}


def test_surgery_regions_are_one_small_array(fig1_surgery):
    # the three region rasters of figure1's surgery took 3 x 16.8 MB
    S = fig1_surgery
    arrays = [v for v in vars(S.regions).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0].dtype == np.uint8
    assert arrays[0].nbytes <= 12e6
    assert [k for k, v in vars(S).items() if isinstance(v, PixelRaster)] == ["regions"]
