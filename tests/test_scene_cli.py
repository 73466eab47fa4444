import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrenorm import Polynomial, find_cycles, scene_from_dict
from polyrenorm.cli import COMMANDS, main
from polyrenorm.errors import RenormError, SceneError
from polyrenorm.poly import MAX_CENSUS_POINTS
from polyrenorm.render import ppm_bytes
from polyrenorm.scene import DEFAULT_RHO, DEFAULT_SEED


def _with(data, path, value):
    """A deep copy of `data` with the field at `path` set to `value`."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


GOOD_SCENE = {
    "name": "disk",
    "polynomial": {"coeffs": [[0, 0], [0, 0], [1, 0]]},
    "cuts": [],
    "grid": {"center": [0.0, 0.0], "width": 4.0, "resolution": 64},
    "max_iter": 64,
}


def test_scene_parses():
    scene = scene_from_dict(GOOD_SCENE)
    assert scene.polynomial.degree == 2
    assert scene.grid.resolution == 64
    assert 0 < scene.rho < 1
    # keys outside the scene format are ignored
    assert scene_from_dict(dict(GOOD_SCENE, palette="grey", substeps=4)).max_iter == 64


def test_scene_validation_paths():
    bad = json.loads(json.dumps(GOOD_SCENE))
    bad["polynomial"]["coeffs"][-1] = [2, 0]
    with pytest.raises(SceneError) as exc:
        scene_from_dict(bad)
    assert "coeffs[2]" in str(exc.value)

    bad = json.loads(json.dumps(GOOD_SCENE))
    bad["grid"]["resolution"] = 4
    with pytest.raises(SceneError) as exc:
        scene_from_dict(bad)
    assert "grid.resolution" in str(exc.value)

    bad = json.loads(json.dumps(GOOD_SCENE))
    bad["cuts"] = [{"theta_r": "1/3"}]
    with pytest.raises(SceneError) as exc:
        scene_from_dict(bad)
    assert "cuts[0].theta_l" in str(exc.value)

    bad = json.loads(json.dumps(GOOD_SCENE))
    bad["rho"] = 1.5
    with pytest.raises(SceneError) as exc:
        scene_from_dict(bad)
    assert "rho" in str(exc.value)

    # booleans, non-finite and oversized numbers, and strings are not numbers
    for field, path, value in [
            ("max_iter", ("max_iter",), True),
            ("seed", ("seed",), False),
            ("seed", ("seed",), -1),
            ("polynomial.coeffs[1]", ("polynomial", "coeffs", 1), [True, 0]),
            ("polynomial.coeffs[0]", ("polynomial", "coeffs", 0), [float("nan"), 0]),
            ("polynomial.coeffs[0]", ("polynomial", "coeffs", 0), [10**400, 0]),
            ("grid.width", ("grid", "width"), float("inf")),
            ("grid.center", ("grid", "center"), ["a", 0])]:
        with pytest.raises(SceneError) as exc:
            scene_from_dict(_with(GOOD_SCENE, path, value))
        assert f"scene.{field}:" in str(exc.value)


# Fuzzed scenes: a valid scene with up to three fields, at any depth,
# replaced by arbitrary JSON values (NaN, infinities and huge integers included).
_VALID = {
    "name": "fuzz",
    "polynomial": {"coeffs": [[0, 0], [0.25, 0], [1, 0]]},
    "cuts": [{"theta_r": "1/3", "theta_l": "2/3"}],
    "grid": {"center": [0.0, 0.0], "width": 4.0, "resolution": 64},
    "max_iter": 64,
    "rho": 0.5,
    "candidate_q": {"coeffs": [[0, 0], [0, 0], [1, 0]]},
    "seed": 7,
}
_PATHS = [(), ("polynomial",), ("polynomial", "coeffs"), ("polynomial", "coeffs", 1),
          ("polynomial", "coeffs", 1, 0), ("polynomial", "coeffs", 2, 1), ("cuts",),
          ("cuts", 0), ("cuts", 0, "theta_l"), ("grid",), ("grid", "center"),
          ("grid", "center", 1), ("grid", "width"), ("grid", "resolution"), ("max_iter",),
          ("rho",), ("seed",), ("candidate_q",), ("candidate_q", "coeffs", 0, 1), ("name",)]
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PATHS), _json | st.integers(10**300, 10**400)),
                max_size=3))
def test_scene_from_dict_raises_only_scene_error(mutations):
    data = _VALID
    for path, value in mutations:
        try:
            data = _with(data, path, value) if path else value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed this field
    try:
        scene_from_dict(data)
    except SceneError:
        pass


def test_angles_survive_serialization():
    data = json.loads(json.dumps(GOOD_SCENE))
    data["cuts"] = [{"theta_r": "2/6", "theta_l": "2/3"}]
    scene = scene_from_dict(data)
    assert scene.cuts[0][0].num == 1 and scene.cuts[0][0].den == 3


def test_ppm_format():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (1, 2, 3)
    data = ppm_bytes(img)
    assert data.startswith(b"P6\n3 2\n255\n")
    assert data[11:14] == bytes((1, 2, 3))
    assert len(data) == 11 + 18


def test_cli_julia(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(GOOD_SCENE))
    out = tmp_path / "out"
    code = main(["julia", "--scene", str(scene_path), "--out", str(out)])
    assert code == 0
    ppm = (out / "julia.ppm").read_bytes()
    assert ppm.startswith(b"P6\n64 64\n255\n")
    assert (out / "julia_mask.raw").exists()


def test_figure1_certifies_each_trap_once(tmp_path, monkeypatch):
    # --supersample 2 makes the comparison sweep a second sweep of the wedge
    # raster; the coarse sweep of the covering windows runs once as well
    from polyrenorm import avoiding, surgery
    traps, sweeps = [], []
    real_trap, real_sweep = avoiding.interior_trap, avoiding.escape_analysis

    def trap(P, max_iter, raster=None, avoid=0, stay_in=0):
        traps.append((max_iter, id(raster), avoid, stay_in))
        return real_trap(P, max_iter, raster, avoid, stay_in)

    def sweep(P, grid, max_iter, **kwargs):
        sweeps.append((grid.resolution, max_iter))
        return real_sweep(P, grid, max_iter, **kwargs)

    monkeypatch.setattr(avoiding, "interior_trap", trap)
    monkeypatch.setattr(surgery, "interior_trap", trap)
    monkeypatch.setattr(avoiding, "escape_analysis", sweep)
    code = main(["figure1", "--resolution", "64", "--max-iter", "64", "--seeds", "200",
                 "--supersample", "2", "--out", str(tmp_path / "out")])
    assert code in (0, 2)
    assert sorted(sweeps) == [(64, 64), (64, 64), (160, 96)]
    assert len(traps) == len(set(traps)) == 3


def test_cli_ray_csv(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(GOOD_SCENE))
    out = tmp_path / "out"
    code = main(["ray", "--scene", str(scene_path), "--out", str(out),
                 "--angle", "0", "--angle", "1/2"])
    assert code == 0
    lines = (out / "rays.csv").read_text().strip().splitlines()
    assert lines[0] == "angle_num,angle_den,potential,re,im"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    # potentials strictly decrease within one ray
    pots = [float(l.split(",")[2]) for l in lines[1:] if l.split(",")[0] == "0"]
    assert all(a > b for a, b in zip(pots[:-1], pots[1:]))


def test_cli_scene_error_exit_code(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text("{not json")
    assert main(["julia", "--scene", str(scene_path), "--out", str(tmp_path / "o")]) == 1
    code = main(["figure1", "--scene", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "scene error:" in capsys.readouterr().err


def test_cli_figure1_small_and_exit_codes(tmp_path):
    out = tmp_path / "fig"
    code = main(["figure1", "--out", str(out), "--resolution", "128",
                 "--max-iter", "128", "--seeds", "500"])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "FAIL" not in summary
    for name in ("figure1.ppm", "rays.csv", "checks.csv", "conjugacy.csv",
                 "surgery.csv", "geometry.csv", "avoiding_mask.raw"):
        assert (out / name).exists(), name


FIGURE1_128 = {
    "name": "figure1",
    "polynomial": {"coeffs": [[0, 0], [4, 0], [4, 0], [1, 0]]},
    "cuts": [{"theta_r": "1/3", "theta_l": "2/3"}, {"theta_r": "0", "theta_l": "0"}],
    "grid": {"center": [-1.25, 0.0], "width": 4.5, "resolution": 128},
    "max_iter": 128,
    "rho": DEFAULT_RHO,
    "candidate_q": {"coeffs": [[0, 0], [-1, 0], [1, 0]]},
    "seed": DEFAULT_SEED,
}


def test_subcommands_write_what_figure1_writes(tmp_path):
    # at 128 pixels the figure1 mask comparison grid is the scene grid
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_128))
    fig = tmp_path / "figure1"
    assert main(["figure1", "--scene", str(scene), "--seeds", "500", "--out", str(fig)]) == 0
    artifacts = {"cuts-check": ["checks.csv"], "avoid": ["avoiding_mask.raw"],
                 "carrot": ["geometry.csv"], "surgery": ["surgery.csv", "nonescaping_mask.raw"],
                 "verify": ["conjugacy.csv"]}
    for cmd, names in artifacts.items():
        out = tmp_path / cmd
        seeds = ["--seeds", "500"] if cmd == "surgery" else []
        assert main([cmd, "--scene", str(scene), "--out", str(out)] + seeds) == 0, cmd
        for name in names:
            assert (out / name).read_bytes() == (fig / name).read_bytes(), (cmd, name)


def test_figure1_supersample_compares_the_plain_mask(tmp_path):
    # the surgery compares its mask with the plain avoiding mask, as
    # `surgery` does, whatever --supersample says
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_128))
    fig, surgery = tmp_path / "figure1", tmp_path / "surgery"
    assert main(["figure1", "--scene", str(scene), "--seeds", "500",
                 "--supersample", "2", "--out", str(fig)]) == 0
    assert main(["surgery", "--scene", str(scene), "--seeds", "500", "--out", str(surgery)]) == 0
    for name in ("surgery.csv", "nonescaping_mask.raw"):
        assert (surgery / name).read_bytes() == (fig / name).read_bytes(), name


FIGURE1_64 = dict(FIGURE1_128, grid={"center": [-1.25, 0.0], "width": 4.5, "resolution": 64})


def test_figure1_caps_its_comparison_grid(tmp_path):
    # above 512 pixels figure1 compares the surgery's mask with the avoiding
    # set at 512 pixels; `surgery` at 512 pixels makes the same comparison
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    fig, surgery = tmp_path / "figure1", tmp_path / "surgery"
    budget = ["--max-iter", "64", "--seeds", "200"]
    assert main(["figure1", "--scene", str(scene), "--resolution", "520",
                 "--out", str(fig)] + budget) == 0
    assert main(["surgery", "--scene", str(scene), "--resolution", "512",
                 "--out", str(surgery)] + budget) == 0
    mask = (fig / "nonescaping_mask.raw").read_bytes()
    assert mask[:16] == b"APLMASK1" + (512).to_bytes(4, "little") * 2
    assert mask == (surgery / "nonescaping_mask.raw").read_bytes()

    def agreement(out):
        return [row for row in (out / "surgery.csv").read_text().splitlines()
                if row.startswith("mask_agreement")]
    assert len(agreement(fig)) == 2 and agreement(fig) == agreement(surgery)


@pytest.mark.parametrize("cmd", ["verify", "figure1"])
def test_missing_candidate_q_stops_before_any_stage(tmp_path, capsys, cmd):
    scene = tmp_path / "noq.json"
    scene.write_text(json.dumps({k: v for k, v in FIGURE1_64.items() if k != "candidate_q"}))
    out = tmp_path / "out"
    assert main([cmd, "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"scene error: {scene}.candidate_q: missing; "
                                       "conjugacy evidence needs a candidate polynomial\n")
    assert not out.exists()  # nothing ran


def test_ray_with_nothing_to_trace_is_a_scene_error(tmp_path, capsys):
    scene = tmp_path / "disk.json"
    scene.write_text(json.dumps(GOOD_SCENE))  # no cuts
    out = tmp_path / "out"
    assert main(["ray", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("scene error: --angle: no angles: "
                                       "give --angle or a scene with cuts\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["ray", "cuts-check", "carrot", "surgery", "verify"])
def test_supersample_only_where_a_sweep_reads_it(tmp_path, capsys, cmd):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    with pytest.raises(SystemExit):
        main([cmd, "--scene", str(scene), "--out", str(tmp_path / "o"), "--supersample", "2"])
    assert "unrecognized arguments: --supersample" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--max-iter", "-5"), ("--max-iter", "0"), ("--max-iter", "65536"),
    ("--resolution", "8"), ("--resolution", "-64"), ("--threads", "-1")])
def test_cli_bad_override_is_a_scene_error(tmp_path, capsys, option, value):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    out = tmp_path / "out"
    assert main(["julia", "--scene", str(scene), "--out", str(out), option, value]) == 1
    assert f"scene error: {option}:" in capsys.readouterr().err
    assert not out.exists()  # nothing ran


@pytest.mark.parametrize("cmd, option, value, detail", [
    ("surgery", "--seeds", "-5", "expected a positive integer"),
    ("surgery", "--seeds", "0", "expected a positive integer"),
    ("figure1", "--seeds", "0", "expected a positive integer"),
    ("verify", "--max-period", "0", "expected an integer in [1, 8]"),
    ("verify", "--max-period", "11", "expected an integer in [1, 8]"),  # 3^11 > 10^5
    ("verify", "--max-period", "12", "expected an integer in [1, 8]"),
    ("ray", "--angle", "foo", "bad angle:"),
    ("ray", "--angle", "1/0", "bad angle:")])
def test_cli_bad_command_option_is_a_scene_error(tmp_path, capsys, cmd, option, value, detail):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    out = tmp_path / "out"
    assert main([cmd, "--scene", str(scene), "--out", str(out), option, value]) == 1
    assert f"scene error: {option}: {detail}" in capsys.readouterr().err
    assert not out.exists()  # nothing ran


def test_census_bound_is_a_renorm_error(tmp_path, capsys):
    # a census of period 9 would need the 3^9 roots of P^9(z) - z
    assert 3**9 > MAX_CENSUS_POINTS
    with pytest.raises(RenormError, match=f"MAX_CENSUS_POINTS = {MAX_CENSUS_POINTS}"):
        find_cycles(Polynomial((0, 4, 4, 1)), 9)
    # the degenerate cut at 1/(3^9 - 1) has period 9 under tripling; its
    # terminal cycle needs no census, so the family gets its verdicts
    angle = f"1/{3**9 - 1}"
    scene = tmp_path / "census.json"
    scene.write_text(json.dumps(dict(FIGURE1_64, cuts=[{"theta_r": angle, "theta_l": angle}])))
    out = tmp_path / "o"
    assert main(["cuts-check", "--scene", str(scene), "--out", str(out)]) == 2
    rows = (out / "checks.csv").read_text().splitlines()
    assert any(r.startswith(f'forward-invariance,"cut0({angle},{angle})",FAIL,') for r in rows)
    assert any(r.startswith(f'fictitious,"cut0({angle},{angle})",FAIL,') for r in rows)


def test_sweep_past_the_node_bound_is_a_renorm_error(tmp_path, capsys):
    # at rho = 1 - 1e-9 the wedges' equipotential arcs sit at potential 1e-9,
    # where a sweep would need billions of nodes
    scene = tmp_path / "rho.json"
    scene.write_text(json.dumps(dict(FIGURE1_64, rho=1 - 1e-9)))
    assert main(["cuts-check", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: equipotential sweep at potential 1e-09")


def test_widely_scaled_cubic_ends_without_a_traceback(tmp_path, capsys):
    # z^3 + 3e5 z^2 + 1e6 z: the critical points pass their relative check;
    # the census's absolute tolerances then end `verify` with an error, while
    # `avoid`, which runs no census, ends with its verdicts
    cubic = [[0, 0], [1e6, 0], [3e5, 0], [1, 0]]
    scene = tmp_path / "wide.json"
    scene.write_text(json.dumps(_with(_with(GOOD_SCENE, ("polynomial", "coeffs"), cubic),
                                      ("candidate_q",), {"coeffs": cubic})))
    assert main(["julia", "--scene", str(scene), "--out", str(tmp_path / "j")]) == 0
    capsys.readouterr()
    assert main(["avoid", "--scene", str(scene), "--out", str(tmp_path / "a")]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("[") and err == ""
    assert main(["verify", "--scene", str(scene), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cycle census: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-2", "1.5"])
def test_cli_bad_renorm_threads_is_a_scene_error(tmp_path, capsys, monkeypatch, value):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    monkeypatch.setenv("RENORM_THREADS", value)
    assert main(["julia", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1
    assert "scene error: RENORM_THREADS:" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--threads", "RENORM_THREADS"])
@pytest.mark.parametrize("cmd", list(COMMANDS))
def test_every_subcommand_validates_threads(tmp_path, capsys, monkeypatch, cmd, source):
    # ray, cuts-check, carrot and verify sweep no pixels, yet reject a bad
    # thread count as the sweeping subcommands do
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    out = tmp_path / "out"
    argv = [cmd, "--scene", str(scene), "--out", str(out)]
    if source == "--threads":
        argv += ["--threads", "-1"]
    else:
        monkeypatch.setenv("RENORM_THREADS", "-1")
    assert main(argv) == 1
    assert f"scene error: {source}: expected a non-negative integer" in capsys.readouterr().err
    assert not out.exists()  # nothing ran


def test_cli_overrides_apply(tmp_path, capsys, monkeypatch):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    monkeypatch.setenv("RENORM_THREADS", "0")  # one thread per core
    out = tmp_path / "out"
    assert main(["julia", "--scene", str(scene), "--out", str(out),
                 "--resolution", "32", "--max-iter", "65535"]) == 0
    assert (out / "julia.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")


def test_max_iter_capped_at_uint16():
    assert scene_from_dict(dict(GOOD_SCENE, max_iter=65535)).max_iter == 65535
    for value in (65536, 0):
        with pytest.raises(SceneError) as exc:
            scene_from_dict(dict(GOOD_SCENE, max_iter=value))
        assert "scene.max_iter:" in str(exc.value)
