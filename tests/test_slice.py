"""figure1's family as a one-parameter slice: P_a(z) = z(z+a)^2 with the cuts
(1/3, 2/3) and 0, figure1 being a = 2.  For real a > 1 the simple critical
point -a maps to the repelling fixed point 0 (multiplier a^2), and rays 1/3
and 2/3 land at -a.

Only values whose runs end in verdicts are listed.  Still ending in a typed
error: `ray` at a >= 2.4 (a pullback branch test at -a); `surgery` at
a <= 1.8 (carrot sides stop short of the root) and at 2.1 and 2.3 (the
pullback branch test in the spirals).
"""

import json

import pytest

from polyrenorm.angles import Angle
from polyrenorm.bottcher import land_rays
from polyrenorm.cli import main
from polyrenorm.scene import load_scene

RAY_VALUES = [1.2, 1.4, 1.5, 1.6, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3]
SURGERY_VALUES = [1.9, 2.0, 2.2]


def slice_scene(tmp_path, a: float):
    """Write the 64^2 scene of P_a and return its path."""
    path = tmp_path / f"slice_{a}.json"
    path.write_text(json.dumps({
        "polynomial": {"coeffs": [[0, 0], [a * a, 0], [2 * a, 0], [1, 0]]},
        "cuts": [{"theta_r": "1/3", "theta_l": "2/3"}, {"theta_r": "0", "theta_l": "0"}],
        "grid": {"center": [-0.625 * a, 0.0], "width": 2.25 * a, "resolution": 64},
        "max_iter": 64,
    }))
    return path


@pytest.mark.parametrize("a", RAY_VALUES)
def test_ray_lands_at_the_critical_point(tmp_path, capsys, a):
    path = slice_scene(tmp_path, a)
    assert main(["ray", "--scene", str(path), "--angle", "1/3",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.endswith("(repelling)\n")
    ray, = land_rays(load_scene(path).polynomial, [Angle(1, 3)])
    assert abs(ray.landing.point + a) < 1e-12


@pytest.mark.parametrize("a", SURGERY_VALUES)
def test_surgery_ends_in_verdicts(tmp_path, a):
    path = slice_scene(tmp_path, a)
    code = main(["surgery", "--scene", str(path), "--seeds", "200",
                 "--out", str(tmp_path / "out")])
    assert code in (0, 2)
