"""Boolean masks on a `GridSpec` window and their I/O, polygon scanlines,
the layered lookup raster (`PixelRaster`: one uint8 a pixel, a bit a layer,
stored over the box of its set pixels only) and the pixel sweep driver."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import GridMismatch
from .scene import GridSpec

MASK_MAGIC = b"APLMASK1"


@dataclass
class Mask:
    """Boolean pixel mask over a grid window."""

    grid: GridSpec
    bits: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.resolution
        if self.bits.shape != (n, n):
            raise ValueError("mask dimensions must match the grid")
        self.bits = np.asarray(self.bits, dtype=bool)  # no copy when already bool

    def count(self) -> int:
        return int(self.bits.sum())


def save_mask_raw(mask: Mask, path: str) -> None:
    """16-byte header (magic, u32 width, u32 height, little endian), then
    row-major bits packed MSB-first with rows padded to whole bytes."""
    n = mask.grid.resolution
    header = MASK_MAGIC + struct.pack("<II", n, n)
    packed = np.packbits(mask.bits, axis=1, bitorder="big")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def load_mask_raw(path: str, grid: GridSpec) -> Mask:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MASK_MAGIC:
        raise ValueError("bad mask magic")
    w, h = struct.unpack("<II", data[8:16]) if len(data) >= 16 else (0, 0)
    row_bytes = (w + 7) // 8
    size = 16 + h * row_bytes
    if len(data) != size:
        raise ValueError(f"mask file holds {len(data)} bytes, expected {size}")
    body = np.frombuffer(data, dtype=np.uint8, offset=16)
    bits = np.unpackbits(body.reshape(h, row_bytes), axis=1, bitorder="big")[:, :w]
    if (w, h) != (grid.resolution, grid.resolution):
        raise GridMismatch("stored mask size differs from grid")
    return Mask(grid, bits)


def _crossings(x0, y0, x1, y1, y: float) -> np.ndarray:
    """x where the edges (x0, y0)-(x1, y1) cross the horizontal line at y.

    Each edge is half-open in y, holding its lower end only, so a vertex on
    the line counts once and horizontal edges never cross.
    """
    hit = (y0 <= y) != (y1 <= y)
    return x0[hit] + (y - y0[hit]) * (x1[hit] - x0[hit]) / (y1[hit] - y0[hit])


def polygon_spans(grid: GridSpec, polygon: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, first column, last column) of each run of pixel centers in the
    even-odd interior of a closed polygon, clipped to the window.

    Scanlines over the edge list: each edge crosses the contiguous run of
    pixel-center rows between its ends (half-open, as `_crossings`), so all
    crossings come from one `_crossings` call; sorted by row and x, they pair
    into the runs.
    """
    pts = np.asarray(polygon, dtype=complex)
    if abs(pts[0] - pts[-1]) > 0:
        pts = np.append(pts, pts[0])
    x0, y0 = pts[:-1].real, pts[:-1].imag
    x1, y1 = pts[1:].real, pts[1:].imag
    n = grid.resolution
    px = grid.pixel
    left = grid.center.real - grid.width / 2
    top = grid.center.imag + grid.width / 2
    i_lo = max(0, int(np.floor((top - pts.imag.max()) / px - 0.5)))
    i_hi = min(n - 1, int(np.ceil((top - pts.imag.min()) / px - 0.5)))
    rows = np.arange(i_hi, i_lo - 1, -1)  # the scanlines bottom up, y ascending
    ys = top - (rows + 0.5) * px
    first = np.searchsorted(ys, np.minimum(y0, y1))
    counts = np.searchsorted(ys, np.maximum(y0, y1)) - first
    edge = np.repeat(np.arange(x0.size), counts)
    k = np.arange(edge.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    xs = _crossings(x0[edge], y0[edge], x1[edge], y1[edge], ys[k])
    order = np.lexsort((xs, k))
    k, xs = k[order], xs[order]
    # crossings 2m and 2m+1 of each row bound a run
    row_start = np.flatnonzero(np.diff(k, prepend=-1))
    pos = np.arange(k.size) - np.repeat(row_start, np.diff(row_start, append=k.size))
    a = np.flatnonzero((pos % 2 == 0)[:-1] & (k[1:] == k[:-1]))
    ja = np.ceil((xs[a] - left) / px - 0.5)
    jb = np.floor((xs[a + 1] - left) / px - 0.5)
    keep = (jb >= 0) & (ja <= n - 1) & (jb >= ja)
    return (rows[k[a[keep]]], np.maximum(ja[keep], 0).astype(int),
            np.minimum(jb[keep], n - 1).astype(int))


def fill_polygon(bits: np.ndarray, grid: GridSpec, polygon: np.ndarray) -> None:
    """Set the window-sized `bits` on the `polygon_spans` of a polygon."""
    for i, lo, hi in zip(*(a.tolist() for a in polygon_spans(grid, polygon))):
        bits[i, lo:hi + 1] = True


def crossing_parity(poly: np.ndarray, z: complex) -> bool:
    """Even-odd test: whether z lies inside the closed polygon `poly`."""
    xs, ys = poly.real, poly.imag
    xcross = _crossings(xs[:-1], ys[:-1], xs[1:], ys[1:], z.imag)
    return bool(np.count_nonzero(xcross > z.real) % 2)


def distance_to_polyline(poly: np.ndarray, z: complex) -> float:
    """Distance from z to the nearest segment of the polyline `poly`."""
    a = poly[:-1]
    b = poly[1:]
    ab = b - a
    denom = np.abs(ab) ** 2
    denom[denom == 0] = 1.0
    t = np.clip(((z - a) * np.conj(ab)).real / denom, 0.0, 1.0)
    proj = a + t * ab
    return float(np.abs(proj - z).min())


class PixelRaster:
    """Lookup raster of polygon layers: one uint8 a pixel, bit b set on the
    `polygon_spans` of `layers[b]`'s polygons.

    Only the box of the set pixels is stored, inside a one-pixel border of
    zeros, so the rest of the window and the plane beyond read 0 as the
    border does.  A sweep testing several layers makes one `index` and one
    `at` call per iterate and tests the bits.  `layer` reads one layer's
    block of the window, False outside the box.  `lookup` indexes only the
    points inside the coordinates of the stored pixels, border included,
    which absorbs the rounding of `index`.
    """

    def __init__(self, grid: GridSpec, layers: Sequence[Iterable[np.ndarray]]) -> None:
        self.grid = grid
        spans = [(1 << b, polygon_spans(grid, p)) for b, layer in enumerate(layers) for p in layer]
        rows, los, his = (np.concatenate([np.zeros(0, int)] + [s[k] for _, s in spans])
                          for k in range(3))
        # the box of the set pixels: rows i0 .. i1 and columns j0 .. j1
        i0, i1, j0, j1 = ((int(rows.min()), int(rows.max()), int(los.min()), int(his.max()))
                          if rows.size else (0, -1, 0, -1))
        self._clip = (i0 - 1, i1 + 1, j0 - 1, j1 + 1)  # the stored rows and columns
        self._padded = np.zeros((i1 - i0 + 3, j1 - j0 + 3), dtype=np.uint8)
        for bit, (rows, los, his) in spans:
            for i, lo, hi in zip((rows - i0 + 1).tolist(), (los - j0 + 1).tolist(),
                                 (his - j0 + 2).tolist()):
                self._padded[i, lo:hi] |= bit

    def index(self, z: np.ndarray) -> np.ndarray:
        """Flat indices of the stored pixels holding z: those of
        `GridSpec.index_arrays` (same formula, computed in place), clipped to
        the stored rows and columns, so that a point outside the box, or with
        a NaN coordinate (`fmax`), lands on the border.
        """
        g = self.grid
        px = g.pixel
        i_lo, i_hi, j_lo, j_hi = self._clip
        j = np.subtract(z.real, g.center.real - g.width / 2)
        j /= px
        np.floor(j, out=j)
        np.fmax(j, j_lo, out=j)
        np.fmin(j, j_hi, out=j)
        k = np.subtract(g.center.imag + g.width / 2, z.imag)
        k /= px
        np.floor(k, out=k)
        np.fmax(k, i_lo, out=k)
        np.fmin(k, i_hi, out=k)
        w = j_hi - j_lo + 1
        k *= w
        k += j
        k -= i_lo * w + j_lo
        return k.astype(np.intp)

    def at(self, k: np.ndarray) -> np.ndarray:
        """The uint8 pixels at flat indices from `index`."""
        return self._padded.ravel().take(k)

    def layer(self, bit: int, i0: int = 0, i1: Optional[int] = None, j0: int = 0,
              j1: Optional[int] = None) -> np.ndarray:
        """Whether `bit` is set at the window pixels [i0, i1) x [j0, j1)
        (the whole window by default); False outside the stored box."""
        i1, j1 = (self.grid.resolution if x is None else x for x in (i1, j1))
        out = np.zeros((i1 - i0, j1 - j0), dtype=bool)
        i_lo, i_hi, j_lo, j_hi = self._clip
        a0, a1, b0, b1 = max(i0, i_lo), min(i1, i_hi + 1), max(j0, j_lo), min(j1, j_hi + 1)
        if a0 < a1 and b0 < b1:
            out[a0 - i0:a1 - i0, b0 - j0:b1 - j0] = (
                self._padded[a0 - i_lo:a1 - i_lo, b0 - j_lo:b1 - j_lo] & bit)
        return out

    def lookup(self, z: np.ndarray, re: np.ndarray) -> np.ndarray:
        """Whether any bit is set at the points z; outside the coordinate
        box of the stored pixels, NaN included, False.

        The real parts are tested in `re`, float scratch a point long, which
        numpy compares about ten times faster than the strided `z.real`, and
        the imaginary parts only at the points inside the box's real band.
        """
        z = np.asarray(z)
        flat = z.ravel()
        g, px = self.grid, self.grid.pixel
        left, top = g.center.real - g.width / 2, g.center.imag + g.width / 2
        i_lo, i_hi, j_lo, j_hi = self._clip
        re_lo, re_hi = left + j_lo * px, left + (j_hi + 1) * px
        im_lo, im_hi = top - (i_hi + 1) * px, top - i_lo * px
        np.copyto(re, flat.real)
        band = re >= re_lo
        band &= re <= re_hi
        sel = np.flatnonzero(band)
        im = flat.imag[sel]
        sel = sel[(im >= im_lo) & (im <= im_hi)]
        out = np.zeros(z.shape, dtype=bool)
        out.ravel()[sel] = self.at(self.index(flat[sel]))
        return out


POOL_AFTER = 16  # iterations each row block runs before its survivors are pooled
BLOCK_ROWS = 32  # pixel rows a block of the sweep's head


class StepBuffers(NamedTuple):
    """What the orbit loop hands a step, each as long as the step's z:
    `out` receives P(z), `mod` and `keep` are scratch for |P(z)| and the
    keep mask the step returns."""

    out: np.ndarray
    mod: np.ndarray
    keep: np.ndarray


class Orbits:
    """The one loop over an array of orbits, with its buffers: the points
    `z` (complex) labelled `idx` (intp; flat pixel or seed indices) become
    its own and are overwritten, beside an `out` of the same size and the
    steps' scratch, and every step and every row block of one worker reuses
    them.

    `run(its, step, trap)` calls step(z, idx, it, buffers) -> keep for each
    `it` in `its`, or until no orbit is left.  The first `m` entries of `z`
    hold the iterates and those of `idx` their labels.  The step writes P(z)
    into `buffers.out`, records what it finds by label, and returns a bool
    mask of the orbits to keep, `buffers.keep` or its own; the survivors
    then move to the front of `z` (`z[:k] = out[keep]`), or `z` and `out`
    swap when every orbit survives.  Overflow to inf and NaN are left to the
    step to retire.  From it = POOL_AFTER on, the orbits inside `trap`
    retire before the step sees them (see `sweep_pixels`), compacting `z`
    the same way.
    """

    def __init__(self, z: np.ndarray, idx: np.ndarray) -> None:
        self.z, self.idx, self.m = z, idx, z.size
        self.out = np.empty_like(z)
        self.mod = np.empty(z.size)
        self.keep = np.empty(z.size, dtype=bool)

    def _compact(self, keep: np.ndarray, src: np.ndarray) -> None:
        """Keep the orbits where `keep`, their iterates read from `src`."""
        m = self.m
        k = int(np.count_nonzero(keep))
        if k < m:
            self.z[:k] = src[:m][keep]
            self.idx[:k] = self.idx[:m][keep]
        elif src is self.out:
            self.z, self.out = self.out, self.z
        self.m = k

    def run(self, its, step, trap=None) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for it in its:
                m = self.m
                if m == 0:
                    break
                if trap and it >= POOL_AFTER:
                    free = trap.contains(self.z[:m])
                    self._compact(np.logical_not(free, out=free), self.z)
                    m = self.m
                keep = step(self.z[:m], self.idx[:m], it,
                            StepBuffers(self.out[:m], self.mod[:m], self.keep[:m]))
                self._compact(keep, self.out)


def sweep_pixels(grid: GridSpec, max_iter: int, step, threads: int, trap) -> None:
    """The orbit loop of `Orbits` on the pixel centers of `grid`,
    labelled by flat pixel index, for it = 1 .. max_iter.

    The first POOL_AFTER iterations run on BLOCK_ROWS-row blocks, `threads`
    at a time.  Each worker owns one set of loop buffers, one block long, and
    reuses it for every block it runs, so a head step allocates nothing the
    size of a block but the survivors' compaction.  The blocks' survivors
    are then pooled, in block order, into one loop that the calling thread
    finishes, so the few slow pixels cost one numpy call per operation
    rather than one per block.  Each pixel sees the same elementwise
    operations in whichever array it sits.  Every buffer is released when
    the sweep returns.

    From iteration POOL_AFTER on, the orbits inside `trap` (an
    `avoiding.InteriorTrap`) retire before `step` sees them: the trap
    certifies that the rest of such an orbit stays bounded and clear of the
    pixels the sweep forbids, so every record is that of the full loop.
    Testing from an earlier entry would change only the cost; few pixels
    enter before POOL_AFTER, the last head iteration, and testing there
    keeps the trapped ones out of the pooled tail.
    """
    n = grid.resolution
    starts = range(0, n, BLOCK_ROWS)
    labels = np.arange(min(BLOCK_ROWS, n) * n)
    # one buffer set a worker: at most `threads` blocks run at once, and
    # list.pop and list.append are atomic
    idle = [Orbits(np.empty(labels.size, dtype=complex), np.empty_like(labels))
            for _ in range(min(threads, len(starts)))]

    def block(i0):
        orbits = idle.pop()
        try:
            i1 = min(i0 + BLOCK_ROWS, n)
            m = orbits.m = (i1 - i0) * n
            grid.rows_centers(i0, i1, out=orbits.z[:m].reshape(i1 - i0, n))
            np.add(labels[:m], i0 * n, out=orbits.idx[:m])
            orbits.run(range(1, min(max_iter, POOL_AFTER) + 1), step, trap)
            return orbits.z[:orbits.m].copy(), orbits.idx[:orbits.m].copy()
        finally:
            idle.append(orbits)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(block, starts))
    else:
        parts = [block(i0) for i0 in starts]
    del idle[:], labels
    z, idx = map(np.concatenate, zip(*parts))
    del parts
    Orbits(z, idx).run(range(POOL_AFTER + 1, max_iter + 1), step, trap)
