"""Pixel-grid computation of the filled Julia set and the avoiding set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .cuts import CutFamily
from .grid import GridSpec, Mask, PixelRaster, estimate_bounded_box, run_row_blocks
from .errors import GridMismatch
from .poly import Polynomial

WEDGE_RASTER_RES = 4096
_STRUCT8 = np.ones((3, 3), dtype=bool)


def wedge_raster(P: Polynomial, family: CutFamily,
                 resolution: int = WEDGE_RASTER_RES) -> PixelRaster:
    """Rasterized union of the family's wedges over a window covering the
    non-escaping set (bounded orbits never leave it, so one lookup table
    serves every iterate)."""
    center, half = estimate_bounded_box(P)
    for w in family.wedges:
        if w.boundary is None:
            continue
        re, im = w.boundary.real, w.boundary.imag
        half = max(half,
                   abs(re.max() - center.real), abs(re.min() - center.real),
                   abs(im.max() - center.imag), abs(im.min() - center.imag))
    raster = PixelRaster(GridSpec(center, 2.0 * half * 1.02, resolution))
    for w in family.wedges:
        if w.boundary is not None:
            raster.add_polygon(w.boundary)
    return raster


@dataclass
class EscapeAnalysis:
    kp: Mask
    avoiding: Optional[Mask]
    esc_steps: np.ndarray  # uint16, 0 = bounded within budget


def escape_analysis(P: Polynomial, family: Optional[CutFamily], grid: GridSpec,
                    max_iter: int, *, threads: int = 1, supersample: int = 1,
                    raster: Optional[PixelRaster] = None) -> EscapeAnalysis:
    """One sweep classifying pixels: escape step, and wedge-orbit hits.

    Pixel centers are iterated; a pixel belongs to the avoiding set when it
    neither escapes within the budget nor has any iterate (step 0 included)
    inside a wedge.
    """
    if supersample not in (1, 2):
        raise ValueError("supersample must be 1 or 2")
    if family is not None and raster is None:
        raster = wedge_raster(P, family)
    work = grid.subdivide(supersample) if supersample == 2 else grid
    n = work.resolution
    R = P.escape_radius
    esc = np.zeros((n, n), dtype=np.uint16)
    hit = np.zeros((n, n), dtype=bool)

    def block(i0: int, i1: int):
        zz = work.rows_centers(i0, i1).ravel()
        esc_loc = np.zeros(zz.size, dtype=np.uint16)
        hit_loc = np.zeros(zz.size, dtype=bool)
        live = np.arange(zz.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, max_iter + 1):
                if raster is not None:
                    inside = raster.lookup(zz)
                    if inside.any():
                        hit_loc[live[inside]] = True
                zz = P(zz)
                keep = np.abs(zz) <= R  # False beyond R, at inf and at NaN
                if not keep.all():
                    esc_loc[live[~keep]] = it
                    live = live[keep]
                    zz = zz[keep]
                    if live.size == 0:
                        break
        esc[i0:i1, :] = esc_loc.reshape(i1 - i0, n)
        hit[i0:i1, :] = hit_loc.reshape(i1 - i0, n)

    run_row_blocks(block, n, threads)

    kp_bits = esc == 0
    a_bits = kp_bits & ~hit if family is not None else None
    if supersample == 2:
        kp_bits = _downsample_majority(kp_bits)
        if a_bits is not None:
            a_bits = _downsample_majority(a_bits)
        esc_out = esc[::2, ::2]
    else:
        esc_out = esc
    kp = Mask(grid, kp_bits)
    avoiding = Mask(grid, a_bits) if a_bits is not None else None
    return EscapeAnalysis(kp, avoiding, esc_out)


def _downsample_majority(bits: np.ndarray) -> np.ndarray:
    n2 = bits.shape[0] // 2
    q = (bits[0::2, 0::2].astype(np.uint8) + bits[0::2, 1::2]
         + bits[1::2, 0::2] + bits[1::2, 1::2])
    return q[:n2, :n2] >= 2


@dataclass
class ComponentReport:
    count: int
    sizes: list[int]
    raw_count: int


def connected_components(mask: Mask) -> ComponentReport:
    """8-connectivity labeling after one radius-1 closing pass (3x3 square);
    thin cusps alias at finite resolution and would spuriously disconnect."""
    raw_labels, raw_count = ndimage.label(mask.bits, structure=_STRUCT8)
    closed = ndimage.binary_closing(mask.bits, structure=_STRUCT8)
    closed |= mask.bits
    labels, count = ndimage.label(closed, structure=_STRUCT8)
    sizes = np.bincount(labels.ravel())[1:] if count else np.array([], dtype=int)
    return ComponentReport(int(count), sorted((int(s) for s in sizes), reverse=True),
                           int(raw_count))


@dataclass
class MaskComparison:
    agreement: float
    symdiff_outside_band: int
    pixels_outside_band: int
    band: int

    @property
    def agreement_outside_band(self) -> float:
        if self.pixels_outside_band == 0:
            return 1.0
        return 1.0 - self.symdiff_outside_band / self.pixels_outside_band


def compare_masks(a: Mask, b: Mask, band: int = 0) -> MaskComparison:
    """Agreement fraction plus the symmetric difference away from boundaries.

    Pixels within `band` of either mask's boundary are excluded from the
    strict count.
    """
    if a.grid != b.grid:
        raise GridMismatch("masks live on different grids")
    diff = a.bits ^ b.bits
    agreement = 1.0 - diff.mean()
    if band > 0:
        bnd = _boundary(a.bits) | _boundary(b.bits)
        region = ndimage.binary_dilation(bnd, structure=_STRUCT8, iterations=band)
        outside = ~region
    else:
        outside = np.ones_like(diff)
    return MaskComparison(float(agreement), int((diff & outside).sum()),
                          int(outside.sum()), band)


def _boundary(bits: np.ndarray) -> np.ndarray:
    er = ndimage.binary_erosion(bits, structure=_STRUCT8, border_value=1)
    return bits & ~er
