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


def _ppm_header(rgb: np.ndarray) -> bytes:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 array")
    h, w = rgb.shape[:2]
    return b"P6\n" + f"{w} {h}\n255\n".encode()


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """Binary P6: ASCII header then raw RGB, row-major, top row first."""
    return _ppm_header(rgb) + rgb.tobytes()


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """Write `ppm_bytes(rgb)`: the header, then the array's own buffer."""
    header = _ppm_header(rgb)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(rgb))


def render_scene_image(kp: Mask, avoiding: Mask,
                       esc_steps: np.ndarray | None = None,
                       wedge_bits: np.ndarray | None = None) -> np.ndarray:
    """Compose: shaded exterior, light-grey removed set, dark-grey avoiding
    set, wedge highlight beneath the sets.  With avoiding = kp this is the
    image of one mask.

    Each pixel gets one uint8 class, and one palette lookup turns the
    classes into RGB.  Classes 0 .. 40 are the exterior grey 255 - 2 t of
    escape step t = min(k, 40) (0, white, without `esc_steps`); 41, 42 and
    43 are the wedge, the removed set and the avoiding set, each painted
    over the classes below it, so painting is a maximum.  Pure integer
    math, so the bytes are stable.
    """
    n = kp.grid.resolution
    cls = np.zeros((n, n), dtype=np.uint8)
    if esc_steps is not None:
        np.minimum(esc_steps, 40, out=cls, casting="unsafe")
    palette = np.empty((44, 3), dtype=np.uint8)
    palette[:41] = (255 - 2 * np.arange(41))[:, np.newaxis]
    palette[41:] = (COLOR_WEDGE, COLOR_KP_ONLY, COLOR_AVOIDING)
    img = np.empty((n, n, 3), dtype=np.uint8)
    layer = np.empty((16, n), dtype=np.uint8)
    for i in range(0, n, 16):  # `take` widens each chunk's classes to intp
        rows = cls[i:i + 16]
        for c, bits in ((41, wedge_bits), (42, kp.bits), (43, avoiding.bits)):
            if bits is not None:
                np.maximum(rows, np.multiply(bits[i:i + 16], np.uint8(c), out=layer[:len(rows)]),
                           out=rows)
        np.take(palette, rows, axis=0, out=img[i:i + 16])
    return img


def draw_polyline(img: np.ndarray, grid: GridSpec, points: np.ndarray,
                  color: tuple[int, int, int]) -> None:
    """Stamp a polyline by dense per-segment sampling (deterministic): a
    segment of length L takes s = int(L / (px/2)) + 1 steps, at the
    parameters k*(1/s) with the last one 1.0, which are the bits of
    np.linspace(0, 1, s + 1); all segments are sampled in one pass."""
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
    img[i[ok], j[ok]] = np.array(color, dtype=np.uint8)
