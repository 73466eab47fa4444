import numpy as np
import pytest

from polyrenorm import GridSpec, Mask
from polyrenorm.render import (CLASS_CARROT, CLASS_RAY, COLOR_AVOIDING, COLOR_CARROT,
                               COLOR_KP_ONLY, COLOR_RAY, COLOR_WEDGE, PALETTE, draw_polyline,
                               ppm_bytes, render_scene_image, write_ppm)

from conftest import traced_peak


def _reference_image(kp, avoiding, esc_steps=None, wedge_bits=None):
    """The compositing the palette lookup replaced: a white image, the grey
    ramp 255 - 2 min(k, 40) on every channel, then the wedge outside kp, kp
    and the avoiding set painted in that order."""
    n = kp.grid.resolution
    img = np.full((n, n, 3), 255, dtype=np.uint8)
    if esc_steps is not None:
        t = np.minimum(esc_steps.astype(np.int32), 40)
        shade = (255 - 2 * t).astype(np.uint8)
        for c in range(3):
            img[:, :, c] = shade
    if wedge_bits is not None:
        img[wedge_bits & ~kp.bits] = COLOR_WEDGE
    img[kp.bits] = COLOR_KP_ONLY
    img[avoiding.bits] = COLOR_AVOIDING
    return img


def _scene(n, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(0j, 4.0, n)
    kp = Mask(grid, rng.random((n, n)) < 0.4)
    # the avoiding bits need not lie inside kp: each layer paints over the last
    avoiding = Mask(grid, rng.random((n, n)) < 0.25)
    esc = rng.integers(0, 1200, (n, n)).astype(np.uint16)
    esc[rng.random((n, n)) < 0.05] = np.iinfo(np.uint16).max
    wedge = rng.random((n, n)) < 0.3
    return kp, avoiding, esc, wedge


@pytest.mark.parametrize("seed", range(4))
def test_palette_lookup_matches_reference_compositing(seed):
    kp, avoiding, esc, wedge = _scene(96, seed)
    assert (esc > 40).any() and (esc <= 40).any()
    for args in [(kp, avoiding, esc, wedge), (kp, avoiding, esc), (kp, avoiding, None, wedge),
                 (kp, avoiding), (kp, kp, esc), (kp, kp)]:
        got = PALETTE[render_scene_image(*args)]
        assert got.dtype == np.uint8 and got.shape == (96, 96, 3)
        assert np.array_equal(got, _reference_image(*args))


def test_palette_lookup_on_strided_escape_steps():
    # escape_analysis hands on esc[::2, ::2] under supersampling
    kp, avoiding, esc, wedge = _scene(64, 7)
    wide = np.repeat(np.repeat(esc, 2, axis=0), 2, axis=1)
    view = wide[::2, ::2]
    assert not view.flags.c_contiguous
    assert np.array_equal(PALETTE[render_scene_image(kp, avoiding, view, wedge)],
                          _reference_image(kp, avoiding, esc, wedge))


def test_write_ppm_writes_ppm_bytes(tmp_path):
    kp, avoiding, esc, wedge = _scene(40, 3)
    img = render_scene_image(kp, avoiding, esc, wedge)
    for name, rgb in [("plain", img), ("strided", img[::-1, ::2])]:
        path = tmp_path / f"{name}.ppm"
        write_ppm(str(path), rgb)
        assert path.read_bytes() == ppm_bytes(rgb)
    for bad in (img[:, :, np.newaxis], img.astype(np.int64), np.full((2, 3), len(PALETTE), np.uint8)):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "bad.ppm"), bad)
        assert not (tmp_path / "bad.ppm").exists()


@pytest.mark.parametrize("n", [40, 97])
def test_ppm_of_class_raster_matches_reference_compositing(n, tmp_path):
    # the rays, then the carrots, painted over the scene's classes; n is not
    # a multiple of the 16 rows written at a time
    kp, avoiding, esc, wedge = _scene(n, n)
    grid = kp.grid
    ray = np.array([-2 + 2j, 0j, 1.5 - 1.9j, 2.2 + 0.3j])
    carrot = np.array([-1.9 - 1.9j, 1.8 + 1.7j, -1 + 1.8j, -1.9 - 1.9j])
    classes = render_scene_image(kp, avoiding, esc, wedge)
    draw_polyline(classes, grid, ray, CLASS_RAY)
    draw_polyline(classes, grid, carrot, CLASS_CARROT)
    ref = _reference_image(kp, avoiding, esc, wedge)
    for points, color in ((ray, COLOR_RAY), (carrot, COLOR_CARROT)):
        drawn = np.zeros((n, n), dtype=bool)
        draw_polyline(drawn, grid, points, True)
        ref[drawn] = color
    data = ppm_bytes(classes)
    assert data == f"P6\n{n} {n}\n255\n".encode() + ref.tobytes()
    write_ppm(str(tmp_path / "scene.ppm"), classes)
    assert (tmp_path / "scene.ppm").read_bytes() == data


def test_render_peak_memory_per_pixel():
    # the class raster itself is 1 byte a pixel; measured 1.07 at n = 512
    n = 512
    kp, avoiding, esc, wedge = _scene(n, 11)
    peak = traced_peak(lambda: render_scene_image(kp, avoiding, esc, wedge))
    assert peak <= 1.3 * n * n, f"{peak / (n * n):.2f} bytes a pixel"


def test_write_ppm_peak_memory(tmp_path):
    # one 16-row RGB chunk (3 bytes a pixel) and its classes widened to intp
    # (8 bytes a pixel), plus the file's write buffer; measured 98 262 bytes
    # at n = 512
    n = 512
    classes = render_scene_image(*_scene(n, 5))
    peak = traced_peak(lambda: write_ppm(str(tmp_path / "big.ppm"), classes))
    assert peak <= 1.2 * 16 * n * (3 + 8), peak
