"""Scene files: JSON descriptions of a polynomial, cuts, grid and budgets.
Numpy-free: `GridSpec`'s array methods import numpy where they run."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .angles import Angle
from .errors import SceneError
from .poly import MONIC_TOL, Polynomial

if TYPE_CHECKING:
    import numpy as np

DEFAULT_RHO = math.exp(-0.125)  # outer equipotential at potential 1/8
DEFAULT_SEED = 0x5EEDC0DE
MAX_ITER = 65535  # escape steps are stored as uint16
_MAX_ITER_MSG = f"expected an integer in [1, {MAX_ITER}]"
_RESOLUTION_MSG = "expected an integer >= 16"


@dataclass(frozen=True)
class GridSpec:
    """Square pixel window: n x n pixels, row-major, top row = max imaginary.

    Pixel (i, j) has center  re = cx - w/2 + (j+0.5)*w/n,
                             im = cy + w/2 - (i+0.5)*w/n.
    """

    center: complex
    width: float
    resolution: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")

    @property
    def pixel(self) -> float:
        return self.width / self.resolution

    def centers(self) -> np.ndarray:
        return self.rows_centers(0, self.resolution)

    def rows_centers(self, i0: int, i1: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The centers of pixel rows i0 .. i1 - 1, written into `out` (a
        complex (i1 - i0, n) array) when one is given."""
        import numpy as np
        n = self.resolution
        px = self.pixel
        re = self.center.real - self.width / 2 + (np.arange(n) + 0.5) * px
        im = self.center.imag + self.width / 2 - (np.arange(i0, i1) + 0.5) * px
        if out is None:
            out = np.empty((i1 - i0, n), dtype=complex)
        out.real = re[np.newaxis, :]
        out.imag = im[:, np.newaxis]
        return out

    def center_of(self, i: int, j: int) -> complex:
        px = self.pixel
        return complex(self.center.real - self.width / 2 + (j + 0.5) * px,
                       self.center.imag + self.width / 2 - (i + 0.5) * px)

    def index_arrays(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        px = self.pixel
        j = np.floor((z.real - (self.center.real - self.width / 2)) / px).astype(np.int64)
        i = np.floor(((self.center.imag + self.width / 2) - z.imag) / px).astype(np.int64)
        return i, j

    def subdivide(self, factor: int) -> "GridSpec":
        return GridSpec(self.center, self.width, self.resolution * factor)


@dataclass
class Scene:
    polynomial: Polynomial
    cuts: list[tuple[Angle, Angle]]
    grid: GridSpec
    max_iter: int
    rho: float
    candidate_q: Optional[Polynomial] = None
    seed: int = DEFAULT_SEED

    @property
    def g0(self) -> float:
        return -math.log(self.rho)


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SceneError(path, msg)


def _number(v: Any, path: str, msg: str = "expected a finite number") -> float:
    """A finite JSON number; booleans, NaN and infinities are rejected."""
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path, msg)
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    _expect(math.isfinite(x), path, msg)
    return x


def integer_field(v: Any, path: str, lo: int, msg: str, hi: Optional[int] = None) -> int:
    """An integer in [lo, hi]; booleans are rejected.  Scene files and the
    command line's overrides share it."""
    _expect(isinstance(v, int) and not isinstance(v, bool) and v >= lo
            and (hi is None or v <= hi), path, msg)
    return v


def override(scene: Scene, *, resolution: Optional[int] = None,
             max_iter: Optional[int] = None) -> Scene:
    """Apply the command line's --resolution and --max-iter, validated as
    the scene fields they replace."""
    if resolution is not None:
        scene.grid = GridSpec(scene.grid.center, scene.grid.width,
                              integer_field(resolution, "--resolution", 16, _RESOLUTION_MSG))
    if max_iter is not None:
        scene.max_iter = integer_field(max_iter, "--max-iter", 1, _MAX_ITER_MSG, MAX_ITER)
    return scene


def _pair(v: Any, path: str) -> complex:
    _expect(isinstance(v, list) and len(v) == 2, path, "expected [re, im]")
    return complex(_number(v[0], path, "expected [re, im]"),
                   _number(v[1], path, "expected [re, im]"))


def _parse_poly(data: Any, path: str) -> Polynomial:
    _expect(isinstance(data, dict), path, "expected an object")
    coeffs = data.get("coeffs")
    _expect(isinstance(coeffs, list) and len(coeffs) >= 3, f"{path}.coeffs",
            "expected a list of at least 3 [re, im] pairs (degree >= 2)")
    cs = [_pair(c, f"{path}.coeffs[{k}]") for k, c in enumerate(coeffs)]
    _expect(abs(cs[-1] - 1.0) <= MONIC_TOL, f"{path}.coeffs[{len(cs) - 1}]",
            "leading coefficient must be [1, 0] (monic)")
    return Polynomial(tuple(cs))


def parse_angle(text: Any, path: str) -> Angle:
    _expect(isinstance(text, str), path, "angles are strings like \"1/3\"")
    try:
        return Angle.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SceneError(path, f"bad angle: {exc}") from exc


def scene_from_dict(data: dict, base: str = "scene") -> Scene:
    _expect(isinstance(data, dict), base, "expected a JSON object")
    poly = _parse_poly(data.get("polynomial"), f"{base}.polynomial")

    cuts = []
    raw_cuts = data.get("cuts", [])
    _expect(isinstance(raw_cuts, list), f"{base}.cuts", "expected a list")
    for k, rc in enumerate(raw_cuts):
        _expect(isinstance(rc, dict), f"{base}.cuts[{k}]", "expected an object")
        tr = parse_angle(rc.get("theta_r"), f"{base}.cuts[{k}].theta_r")
        tl = parse_angle(rc.get("theta_l"), f"{base}.cuts[{k}].theta_l")
        cuts.append((tr, tl))

    g = data.get("grid")
    _expect(isinstance(g, dict), f"{base}.grid", "expected an object")
    center = _pair(g.get("center"), f"{base}.grid.center")
    width = _number(g.get("width"), f"{base}.grid.width", "expected a positive number")
    _expect(width > 0, f"{base}.grid.width", "expected a positive number")
    res = integer_field(g.get("resolution"), f"{base}.grid.resolution", 16, _RESOLUTION_MSG)
    grid = GridSpec(center, width, res)

    max_iter = integer_field(data.get("max_iter", 512), f"{base}.max_iter", 1, _MAX_ITER_MSG,
                             MAX_ITER)
    rho = _number(data.get("rho", DEFAULT_RHO), f"{base}.rho", "expected a number in (0, 1)")
    _expect(0 < rho < 1, f"{base}.rho", "expected a number in (0, 1)")

    q = None
    if data.get("candidate_q") is not None:
        q = _parse_poly(data["candidate_q"], f"{base}.candidate_q")

    seed = integer_field(data.get("seed", DEFAULT_SEED), f"{base}.seed", 0,
                         "expected a non-negative integer")
    return Scene(
        polynomial=poly,
        cuts=cuts,
        grid=grid,
        max_iter=max_iter,
        rho=rho,
        candidate_q=q,
        seed=seed,
    )


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(path, f"cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise SceneError(path, f"invalid JSON: {exc}") from exc
    return scene_from_dict(data, base=path)


def figure1_scene() -> Scene:
    """Built-in scene: the cubic z(z+2)^2 with the cut pair (1/3, 2/3) and the
    degenerate cut at angle 0; candidate quadratic z^2 - z."""
    return scene_from_dict({
        "polynomial": {"coeffs": [[0, 0], [4, 0], [4, 0], [1, 0]]},
        "cuts": [
            {"theta_r": "1/3", "theta_l": "2/3"},
            {"theta_r": "0", "theta_l": "0"},
        ],
        "grid": {"center": [-1.25, 0.0], "width": 4.5, "resolution": 1024},
        "max_iter": 512,
        "rho": DEFAULT_RHO,
        "candidate_q": {"coeffs": [[0, 0], [-1, 0], [1, 0]]},
        "seed": DEFAULT_SEED,
    })
