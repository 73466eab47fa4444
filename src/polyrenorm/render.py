"""Deterministic PPM rendering of masks, wedges, rays and carrots."""

from __future__ import annotations

import numpy as np

from .grid import Mask
from .scene import GridSpec

# Figure palette
COLOR_AVOIDING = (64, 64, 64)     # dark grey
COLOR_KP_ONLY = (160, 160, 160)   # light grey (removed decorations)
COLOR_WEDGE = (200, 200, 255)     # wedge highlight
COLOR_RAY = (0, 0, 0)
COLOR_CARROT = (220, 40, 40)
# One row a pixel class: 0 .. 40 the exterior greys 255 - 2 t of escape step
# t, then wedge, removed set, avoiding set, rays and carrots.
PALETTE = np.array([(255 - 2 * t,) * 3 for t in range(41)] + [
    COLOR_WEDGE, COLOR_KP_ONLY, COLOR_AVOIDING, COLOR_RAY, COLOR_CARROT], dtype=np.uint8)
CLASS_RAY, CLASS_CARROT = 44, 45


def _ppm_header(classes: np.ndarray) -> bytes:
    if classes.ndim != 2 or classes.dtype != np.uint8 or classes.max(initial=0) >= len(PALETTE):
        raise ValueError("expected an (h, w) uint8 array of palette classes")
    return b"P6\n" + f"{classes.shape[1]} {len(classes)}\n255\n".encode()


def _rgb_rows(classes: np.ndarray):
    """The colors of each 16 rows of checked classes, in one reused buffer."""
    rgb = np.empty((16, classes.shape[1], 3), dtype=np.uint8)
    for i in range(0, len(classes), 16):
        rows = classes[i:i + 16]  # `take` widens them to intp; "clip" fills `out` unbuffered
        yield np.take(PALETTE, rows, axis=0, out=rgb[:len(rows)], mode="clip")


def ppm_bytes(classes: np.ndarray) -> bytes:
    """Binary P6 of a class raster: ASCII header, then RGB rows, top row first."""
    return _ppm_header(classes) + b"".join(rgb.tobytes() for rgb in _rgb_rows(classes))


def write_ppm(path: str, classes: np.ndarray) -> None:
    """Write `ppm_bytes(classes)`: the header, then 16 colored rows at a time."""
    header = _ppm_header(classes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(_rgb_rows(classes))


def render_scene_image(kp: Mask, avoiding: Mask,
                       esc_steps: np.ndarray | None = None,
                       wedge_bits: np.ndarray | None = None) -> np.ndarray:
    """The `PALETTE` classes of a scene: shaded exterior, light-grey removed
    set, dark-grey avoiding set, wedge highlight beneath the sets (with
    avoiding = kp, the image of one mask).  The exterior takes class
    min(k, 40) of escape step k (0, white, without `esc_steps`); wedge,
    removed set and avoiding set are each painted over the classes below
    them, 16 rows at a time, so painting is a maximum.  Pure integer math,
    so the bytes are stable.
    """
    n = kp.grid.resolution
    cls = np.zeros((n, n), dtype=np.uint8)
    if esc_steps is not None:
        np.minimum(esc_steps, 40, out=cls, casting="unsafe")
    layer = np.empty((16, n), dtype=np.uint8)
    for i in range(0, n, 16):
        rows = cls[i:i + 16]
        for c, bits in ((41, wedge_bits), (42, kp.bits), (43, avoiding.bits)):
            if bits is not None:
                np.maximum(rows, np.multiply(bits[i:i + 16], np.uint8(c), out=layer[:len(rows)]),
                           out=rows)
    return cls


def draw_polyline(classes: np.ndarray, grid: GridSpec, points: np.ndarray, cls: int) -> None:
    """Give a polyline's pixels class `cls`, by dense per-segment sampling
    (deterministic): a segment of length L takes s = int(L / (px/2)) + 1
    steps, at the parameters k*(1/s) with the last one 1.0, which are the
    bits of np.linspace(0, 1, s + 1); all segments are sampled in one pass."""
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 2:
        return
    a, ab = pts[:-1], pts[1:] - pts[:-1]
    steps = np.maximum(1, (np.abs(ab) / (0.5 * grid.pixel)).astype(np.int64) + 1)
    ends = np.cumsum(steps + 1)  # one past each segment's last sample
    seg = np.repeat(np.arange(a.size), steps + 1)
    ts = (np.arange(ends[-1]) - np.repeat(ends - steps - 1, steps + 1)) * (1.0 / steps[seg])
    ts[ends - 1] = 1.0
    i, j = grid.index_arrays(a[seg] + ts * ab[seg])
    n = grid.resolution
    ok = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    classes[i[ok], j[ok]] = cls
