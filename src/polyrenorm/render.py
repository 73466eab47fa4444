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


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """Binary P6: ASCII header then raw RGB, row-major, top row first."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 array")
    h, w = rgb.shape[:2]
    return b"P6\n" + f"{w} {h}\n255\n".encode() + rgb.tobytes()


def write_ppm(path: str, rgb: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(ppm_bytes(rgb))


def exterior_shade(esc_steps: np.ndarray) -> np.ndarray:
    """Greyscale ramp from iteration counts; pure integer math for
    byte-stable output."""
    t = np.minimum(esc_steps.astype(np.int32), 40)
    return (255 - 2 * t).astype(np.uint8)


def render_scene_image(kp: Mask, avoiding: Mask,
                       esc_steps: np.ndarray | None = None,
                       wedge_bits: np.ndarray | None = None) -> np.ndarray:
    """Compose: shaded exterior, light-grey removed set, dark-grey avoiding
    set, wedge highlight beneath the sets.  With avoiding = kp this is the
    image of one mask."""
    n = kp.grid.resolution
    img = np.full((n, n, 3), 255, dtype=np.uint8)
    if esc_steps is not None:
        shade = exterior_shade(esc_steps)
        for c in range(3):
            img[:, :, c] = shade
    if wedge_bits is not None:
        img[wedge_bits & ~kp.bits] = COLOR_WEDGE
    img[kp.bits] = COLOR_KP_ONLY
    img[avoiding.bits] = COLOR_AVOIDING
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
