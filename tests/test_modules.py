"""Module layout: no module reaches into a sibling's private names, no
module imports a name it never uses, nothing imports scipy, no module keeps
mutable state at module level, `ray` and `--help` run without numpy,
`verify` loads neither the sweeps nor the surgery, only `grid` knows when
a sweep retires trapped orbits, and the package re-exports each public name
from the module that defines it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyrenorm"


def test_no_private_imports_across_modules():
    offenders, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        checked += 1
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("polyrenorm")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert checked > 10, f"only {checked} modules under {SRC}"
    assert not offenders, "; ".join(offenders)


def test_no_unused_imports():
    offenders, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        checked += 1
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    offenders.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert checked > 10, f"only {checked} modules under {SRC}"
    assert not offenders, "; ".join(offenders)


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict"}


def _called_name(node):
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def test_no_module_global_state():
    # a module-level container or cache makes a call's answer depend on the
    # calls before it; UPPER_CASE names are constant tables
    offenders, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        checked += 1
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not (isinstance(value, MUTABLE_DISPLAYS) or _called_name(value) in MUTABLE_CALLS):
                continue
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if not (name.isupper() or (name.startswith("__") and name.endswith("__")))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                offenders.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                offenders += [f"{path.name}:{node.lineno} imports functools.{a.name}"
                              for a in node.names if a.name in ("cache", "lru_cache")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                offenders.append(f"{path.name}:{node.lineno} functools.{node.attr}")
    assert checked > 10, f"only {checked} modules under {SRC}"
    assert not offenders, "; ".join(offenders)


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; its import alone costs 0.3 s a process.
    # numpy costs about 0.15 s, and only the subcommands doing array work load it.
    loaded = ("\nleft = sorted({'numpy', 'scipy'} & set(sys.modules))"
              "\nsys.exit(f'loaded {left}' if left else 0)")
    help_ = ("\nimport contextlib, io\nwith contextlib.suppress(SystemExit), "
             "contextlib.redirect_stdout(io.StringIO()):\n    polyrenorm.cli.main(['--help'])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for code in ("import sys, polyrenorm.cli", "import sys, polyrenorm.cli" + help_):
        run = subprocess.run([sys.executable, "-c", code + loaded], env=env, timeout=60,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


def test_verify_loads_no_sweep_or_surgery_module():
    # the conjugacy evidence reads the cut family (d_c included), not the
    # masks, the carrots or the surgery
    code = ("import sys, polyrenorm.verify\n"
            "left = sorted(m for m in ('polyrenorm.surgery', 'polyrenorm.avoiding', "
            "'polyrenorm.carrots') if m in sys.modules)\n"
            "sys.exit(f'loaded {left}' if left else 0)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_only_grid_names_pool_after():
    # the head/tail split of `sweep_pixels` and the trap retirement tied to it
    # are grid's; the sweeps pass their trap and know nothing of when it acts
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10, f"only {len(paths)} modules under {SRC}"
    assert "POOL_AFTER" in (SRC / "grid.py").read_text()
    offenders = [p.name for p in paths if p.name != "grid.py" and "POOL_AFTER" in p.read_text()]
    assert not offenders, offenders


def test_ray_runs_without_numpy(tmp_path):
    scene = SRC.parent.parent / "tests" / "scenes" / "rabbit.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    csvs = []
    for block in ("sys.modules['numpy'] = None; ", ""):
        out = tmp_path / ("blocked" if block else "plain")
        code = (f"import sys; {block}from polyrenorm.cli import main; "
                f"sys.exit(main(['ray', '--scene', {str(scene)!r}, '--angle', '1/7', "
                f"'--out', {str(out)!r}]))")
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
        csvs.append((out / "rays.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_external_angle_runs_without_numpy():
    # the product formula and the pullback's descents are Python complex
    code = ("import sys; sys.modules['numpy'] = None; "
            "from polyrenorm.angles import Angle; "
            "from polyrenorm.bottcher import bottcher_point, external_angle; "
            "from polyrenorm.poly import Polynomial; "
            "P = Polynomial((0, 4, 4, 1)); "  # z(z+2)^2
            "theta = external_angle(P, bottcher_point(P, 1e-3, Angle(5, 7))); "
            "assert abs(theta - 5 / 7) < 1e-14, theta")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


# every name the package re-exports, by the module that defines it
EXPORTS = {
    "angles": ["Angle", "tuple_orbit"],
    "avoiding": ["compare_masks", "connected_components", "escape_analysis", "wedge_raster"],
    "bottcher": ["Landing", "RayPolyline", "SpiralArc", "bottcher_point",
                 "equipotential_polyline", "external_angle", "land_rays", "landing_point",
                 "trace_ray", "trace_spirals"],
    "carrots": ["Carrot", "GeometryEstimate", "ProtoCarrot", "build_carrots",
                "carrot_geometry", "koenigs_coordinate", "koenigs_radius", "proto_contains",
                "proto_image_check", "quasi_arc_constant", "transversality_gap",
                "transversality_profile", "weak_qs_constant"],
    "cuts": ["Cut", "CutFamily", "Wedge", "build_cut", "build_family", "check_admissible",
             "check_legal", "classify_root"],
    "grid": ["Mask", "PixelRaster", "load_mask_raw", "save_mask_raw"],
    "poly": ["Cycle", "EscapeResult", "Polynomial", "classify_multiplier", "critical_points",
             "escape_time", "find_cycles", "green_potential"],
    "scene": ["GridSpec", "Scene", "figure1_scene", "load_scene", "scene_from_dict"],
    "surgery": ["SurgeryMap", "VisitReport", "build_surgery",
                "dilatation_report", "nonescaping_mask", "visit_count_experiment"],
    "verify": ["ConjugacyReport", "conjugacy_report", "cycles_in_region"],
}


def test_package_exports_resolve_to_their_defining_module():
    import polyrenorm
    listed = dir(polyrenorm)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"polyrenorm.{module}")
        for name in names:
            scope: dict = {}
            exec(f"from polyrenorm import {name}", scope)
            assert scope[name] is getattr(mod, name), name
            assert scope[name].__module__ == mod.__name__, name
            assert name in listed, name
    assert sorted(polyrenorm.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError):
        polyrenorm.no_such_name
    with pytest.raises(ImportError):
        exec("from polyrenorm import no_such_name", {})


def test_no_module_imports_scipy():
    offenders, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        checked += 1
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
    assert checked > 10, f"only {checked} modules under {SRC}"
    assert not offenders, "; ".join(offenders)


FIGURE1_64 = {
    "polynomial": {"coeffs": [[0, 0], [4, 0], [4, 0], [1, 0]]},
    "cuts": [{"theta_r": "1/3", "theta_l": "2/3"}, {"theta_r": "0", "theta_l": "0"}],
    "grid": {"center": [-1.25, 0.0], "width": 4.5, "resolution": 64},
    "max_iter": 64,
}


def test_julia_loads_neither_cuts_nor_a_thread_pool(tmp_path):
    # julia sweeps without a cut family, and one thread needs no executor
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    code = ("import sys; from polyrenorm.cli import main; "
            f"rc = main(['julia', '--scene', {str(scene)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "left = sorted(m for m in ('polyrenorm.cuts', 'concurrent.futures') "
            "if m in sys.modules); "
            "sys.exit(f'loaded {left}' if left else rc)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("command", ["julia", "avoid"])
def test_mask_commands_run_without_scipy(command, tmp_path):
    scene = tmp_path / "figure1.json"
    scene.write_text(json.dumps(FIGURE1_64))
    # sys.modules[name] = None makes every import of that name fail
    code = ("import sys; sys.modules['scipy'] = None; from polyrenorm.cli import main; "
            f"sys.exit(main([{command!r}, '--scene', {str(scene)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_no_unused_parameters():
    # module-level functions and methods only: nested callbacks such as a
    # sweep's step(z, idx, it) must match the signature their driver calls
    offenders, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            funcs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        checked += len(funcs)
        for fn in funcs:
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            used = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            offenders += [f"{path.name}:{fn.lineno} {fn.name}({name})" for name in params
                          if name not in used and name not in ("self", "cls")]
    assert checked > 100, f"only {checked} functions under {SRC}"
    assert not offenders, "; ".join(offenders)
