#!/usr/bin/env python3
"""Benchmark of the polyrenorm command line.

    python3 perfbench/run.py --workload {figure1,rays,sweep} --seed N \\
        --seconds S --trace {0,1} [--toy]

A closed loop with one client: requests go one at a time, and each request
is a fresh `python -m polyrenorm.cli ...` process, because that is what a
user pays for.  The module-level ray and radius caches are cold on every real
invocation; repeats inside one process would measure a warm cache that users
never see.  Threads are capped at 2.

`--trace 0` times rounds of requests for about S seconds and reports the
end-to-end metrics.  `--trace 1` alternates untraced rounds with rounds run
under `tracer.py` and reports the per-layer metrics.  Every request's outputs
are checked; a non-zero exit or a wrong output is a failed request.  Every
metric is printed by name with its unit, and the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
`--toy` shrinks every input for the smoke test.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# A run must exit within 180 s; no request starts after this many seconds.
HARD_LIMIT_S = 150.0
MIN_PROBES = 5

END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KINDS = ("figure1", "rays", "julia", "avoid", "avoid_t2")
# The layer entry points whose calls, total and self time are reported.
TRACED_FUNCTIONS = (
    "bottcher.land_ray", "bottcher.trace_spiral", "bottcher.bottcher_point",
    "bottcher.equipotential_arc", "bottcher.equipotential_polyline",
    "bottcher.external_angle",
    "avoiding.escape_analysis", "avoiding.wedge_raster",
    "avoiding.connected_components", "avoiding.compare_masks",
    "cuts.build_family", "cuts.check_admissible", "cuts.check_legal",
    "carrots.build_carrots", "carrots.carrot_geometry",
    "surgery.build_surgery", "surgery.visit_count_experiment",
    "surgery.nonescaping_mask", "surgery.dilatation_report",
    "verify.conjugacy_report", "poly.find_cycles",
    "render.write_ppm", "grid.save_mask_raw",
)
# metric -> (span name, work key, unit); `render.bytes` sums every write.
WORK_COUNTS = {
    "bottcher.land_ray.points": ("bottcher.land_ray", "points", "count"),
    "avoiding.escape_analysis.mpix": ("avoiding.escape_analysis", "mpix", "Mpx"),
    "surgery.visit_count_experiment.seeds": ("surgery.visit_count_experiment", "seeds", "count"),
    "surgery.nonescaping_mask.mpix": ("surgery.nonescaping_mask", "mpix", "Mpx"),
    "poly.find_cycles.cycles": ("poly.find_cycles", "cycles", "count"),
    "render.bytes": (None, "bytes", "B"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["cli.import.total_s"] = "s"
    for name in tracer.UNIQUE:
        units[f"{name}.unique_ratio"] = "ratio"
    for name, (_, _, unit) in WORK_COUNTS.items():
        units[name] = unit
    for layer in tracer.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({"trace.untraced_round_s": "s", "trace.traced_round_s": "s",
                  "trace.overhead_ratio": "ratio", "trace.covered_s": "s",
                  "trace.remainder_s": "s"})
    for kind in KINDS:
        units[f"request.{kind}_s"] = "s"
    return units


# ---------------------------------------------------------------- workloads

FIGURE1_SCENE = {
    "name": "figure1",
    "polynomial": {"coeffs": [[0, 0], [4, 0], [4, 0], [1, 0]]},
    "cuts": [{"theta_r": "1/3", "theta_l": "2/3"}, {"theta_r": "0", "theta_l": "0"}],
    "grid": {"center": [-1.25, 0.0], "width": 4.5},
    "rho": math.exp(-0.125),
    "candidate_q": {"coeffs": [[0, 0], [-1, 0], [1, 0]]},
    "seed": 0x5EEDC0DE,
}
RABBIT_C = complex(-0.12256116687665362, 0.7448617666197442)
# Pixel counts of the julia and avoid masks on the figure1 scene, recorded
# from the first benchmarked commit: resolution -> (filled set, avoiding set).
EXPECTED_PIXELS = {2048: (227124, 191710), 256: (3554, 3006)}


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _mask_pixels(path: Path, n: int) -> int:
    data = path.read_bytes()
    if data[:8] != b"APLMASK1" or len(data) != 16 + n * ((n + 7) // 8) \
            or struct.unpack("<II", data[8:16]) != (n, n):
        raise ValueError(f"{path.name}: not a {n}x{n} mask")
    return int(np.unpackbits(np.frombuffer(data, np.uint8, offset=16)).sum())


def _ppm_problem(path: Path, n: int) -> list[str]:
    header = f"P6\n{n} {n}\n255\n".encode()
    with open(path, "rb") as fh:
        head = fh.read(len(header))
    if head != header or path.stat().st_size != len(header) + 3 * n * n:
        return [f"{path.name}: not a {n}x{n} P6 image"]
    return []


class Workload:
    """Generates its inputs, lists each round's requests in an order fixed by
    the seed, and checks each request's outputs."""

    def __init__(self, work: Path, rng: random.Random, toy: bool) -> None:
        self.rng = rng

    def round(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, kind: str, out: Path, proc) -> list[str]:
        raise NotImplementedError


class Figure1(Workload):
    """`polyrenorm figure1 --threads 1` at its defaults: the paper's headline
    reproduction, running every layer in the mix users see."""

    ARTIFACTS = ("figure1.ppm", "rays.csv", "checks.csv", "conjugacy.csv",
                 "surgery.csv", "geometry.csv", "summary.txt",
                 "avoiding_mask.raw", "nonescaping_mask.raw")

    def __init__(self, work, rng, toy):
        super().__init__(work, rng, toy)
        self.argv = ["figure1", "--threads", "1"]
        if toy:
            self.argv += ["--resolution", "128", "--max-iter", "128", "--seeds", "500"]
        self.reference: dict | None = None

    def round(self):
        return [("figure1", list(self.argv))]

    def check(self, kind, out, proc):
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        missing = [n for n in self.ARTIFACTS if not (out / n).is_file()]
        if missing:
            return problems + [f"missing {', '.join(missing)}"]
        lines = (out / "summary.txt").read_text().splitlines()
        if len(lines) < 8 or not all(line.startswith("[PASS]") for line in lines):
            problems.append("summary.txt has a line that is not [PASS]")
        digests = {n: _digest(out / n) for n in self.ARTIFACTS}
        if self.reference is None and not problems:
            self.reference = digests
        elif self.reference is not None and digests != self.reference:
            differ = [n for n in self.ARTIFACTS if digests[n] != self.reference[n]]
            problems.append(f"not byte-identical to the run's first request: {', '.join(differ)}")
        return problems


class Rays(Workload):
    """`polyrenorm ray` with the angles 1/7, 2/7 and 4/7 on the Douady
    rabbit: deep landings at a slowly repelling fixed point, so the pullback
    chain re-solve dominates and no pixel work runs."""

    ANGLES = ("1/7", "2/7", "4/7")

    def __init__(self, work, rng, toy):
        super().__init__(work, rng, toy)
        self.scene = _write_json(work / "rabbit.json", {
            "name": "rabbit",
            "polynomial": {"coeffs": [[RABBIT_C.real, RABBIT_C.imag], [0, 0], [1, 0]]},
            "cuts": [],
            "grid": {"center": [0.0, 0.0], "width": 3.2, "resolution": 256},
        })
        self.angles = self.ANGLES[:1] if toy else self.ANGLES
        # The alpha fixed point, where the period-3 rays land, is the root of
        # z^2 - z + c of smaller modulus (beta, the landing point of ray 0, is
        # the other one).
        self.alpha = complex(min(np.roots([1, -1, RABBIT_C]), key=abs))

    def round(self):
        argv = ["ray", "--scene", self.scene]
        for a in self.rng.sample(self.angles, len(self.angles)):
            argv += ["--angle", a]
        return [("rays", argv)]

    def check(self, kind, out, proc):
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        landed = {}
        for m in re.finditer(r"^ray (\S+): lands at (\S+) \(", proc.stdout, re.M):
            landed[m.group(1)] = complex(m.group(2))
        for a in self.angles:
            if a not in landed:
                problems.append(f"ray {a} did not land")
            elif abs(landed[a] - self.alpha) > 1e-6:
                problems.append(f"ray {a} landed at {landed[a]}, not alpha {self.alpha}")
        try:
            rows = (out / "rays.csv").read_text().splitlines()[1:]
        except FileNotFoundError:
            return problems + ["missing rays.csv"]
        traced = {"/".join(r.split(",")[:2]) for r in rows}
        problems += [f"rays.csv has no points for {a}" for a in self.angles if a not in traced]
        return problems


class Sweep(Workload):
    """`julia`, `avoid` and `avoid --threads 2` on the figure1 scene at
    2048^2 with 1024 iterations: the pixel sweeps, escape-only and with a
    wedge-raster lookup per iteration, at one and two threads."""

    def __init__(self, work, rng, toy):
        super().__init__(work, rng, toy)
        self.n, max_iter = (256, 256) if toy else (2048, 1024)
        scene = dict(FIGURE1_SCENE, max_iter=max_iter,
                     grid=dict(FIGURE1_SCENE["grid"], resolution=self.n))
        path = _write_json(work / f"figure1_{self.n}.json", scene)
        self.requests = [
            ("julia", ["julia", "--scene", path, "--threads", "1"]),
            ("avoid", ["avoid", "--scene", path, "--threads", "1"]),
            ("avoid_t2", ["avoid", "--scene", path, "--threads", "2"]),
        ]
        self.avoid_reference: dict | None = None

    def round(self):
        return self.rng.sample(self.requests, len(self.requests))

    def check(self, kind, out, proc):
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        stem = "julia" if kind == "julia" else "avoiding"
        mask, image = out / f"{stem}_mask.raw", out / f"{stem}.ppm"
        if not (mask.is_file() and image.is_file()):
            return problems + [f"missing {mask.name} or {image.name}"]
        try:
            pixels = _mask_pixels(mask, self.n)
        except ValueError as exc:
            return problems + [str(exc)]
        expected = EXPECTED_PIXELS[self.n][0 if kind == "julia" else 1]
        if pixels != expected:
            problems.append(f"{mask.name} has {pixels} pixels, expected {expected}")
        problems += _ppm_problem(image, self.n)
        if kind != "julia":
            digests = {mask.name: _digest(mask), image.name: _digest(image)}
            if self.avoid_reference is None and not problems:
                self.avoid_reference = digests
            elif self.avoid_reference is not None and digests != self.avoid_reference:
                problems.append("avoid outputs differ between requests or thread counts")
        return problems


WORKLOADS = {"figure1": Figure1, "rays": Rays, "sweep": Sweep}


# ------------------------------------------------------------------- runner

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("RENORM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Sends requests one at a time and keeps their times and verdicts."""

    def __init__(self, workload: Workload, work: Path, started: float) -> None:
        self.workload, self.work, self.started = workload, work, started
        self.env = child_env()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self._n = 0

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > HARD_LIMIT_S

    def _spawn(self, cmd: list[str]):
        timeout = max(1.0, HARD_LIMIT_S + 20 - (time.perf_counter() - self.started))
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        return proc, time.perf_counter() - t

    def _count(self, label: str, problems: list[str], proc) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = proc.stderr.strip().splitlines()[-1:] if proc is not None else []
            self.problems.append(f"{label}: {'; '.join(problems + tail)}")

    def probe(self) -> float:
        """Set-up time: process start through `import polyrenorm.cli`."""
        proc, wall = self._spawn([sys.executable, "-c", "import polyrenorm.cli"])
        ok = proc is not None and proc.returncode == 0
        self._count("setup", [] if ok else ["import failed"], proc)
        return wall

    def request(self, kind: str, argv: list[str], traced: bool) -> float:
        out = self.work / f"r{self._n:04d}"
        spans = self.work / f"r{self._n:04d}.spans.json"
        self._n += 1
        head = [sys.executable, str(TRACER), str(spans), "--"] if traced \
            else [sys.executable, "-m", "polyrenorm.cli"]
        proc, wall = self._spawn(head + argv + ["--out", str(out)])
        try:
            problems = ["timed out"] if proc is None else self.workload.check(kind, out, proc)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        self._count(kind + (" (traced)" if traced else ""), problems, proc)
        self.walls[(kind, traced)].append(wall)
        if traced and spans.is_file():
            self.spans.append(json.loads(spans.read_text()))
            spans.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def round(self, traced: bool = False) -> float:
        return sum(self.request(kind, argv, traced) for kind, argv in self.workload.round())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _another_round(runner: Runner, deadline: float, est: float) -> bool:
    """Start a round only if it is expected to end less than half a round
    past the deadline, so a run lasts about `seconds` whatever the speed."""
    return not runner.out_of_time() and time.perf_counter() + est / 2 <= deadline


def measure(runner: Runner, seconds: int) -> dict:
    """Rounds of requests, each after a set-up probe, for about `seconds`;
    medians of both."""
    runner.probe()  # untimed: fills the bytecode cache, as any earlier use would
    deadline = time.perf_counter() + seconds
    setup, rounds = [], []
    while True:
        setup.append(runner.probe())
        rounds.append(runner.round())
        if not _another_round(runner, deadline, statistics.median(rounds) + setup[-1]):
            break
    while len(setup) < MIN_PROBES:
        setup.append(runner.probe())
    return {"round_s": statistics.median(rounds), "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(), "_rounds": len(rounds), "_probes": len(setup)}


def measure_traced(runner: Runner, seconds: int, trace_file: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are per round."""
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        untraced.append(runner.round())
        traced.append(runner.round(traced=True))
        if not _another_round(runner, deadline, untraced[-1] + traced[-1]):
            break
    n = len(traced)
    summary = tracer.summarize(runner.spans)
    funcs = summary["functions"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "repeats": 0, "work": {}}
    metrics = {}
    for name in TRACED_FUNCTIONS:
        f = funcs.get(name, zero)
        metrics[f"{name}.calls"] = f["calls"] / n
        metrics[f"{name}.total_s"] = f["total_s"] / n
        metrics[f"{name}.self_s"] = f["self_s"] / n
    metrics["cli.import.total_s"] = funcs.get("cli.import", zero)["total_s"] / n
    for name in tracer.UNIQUE:
        f = funcs.get(name, zero)
        metrics[f"{name}.unique_ratio"] = (f["calls"] - f["repeats"]) / f["calls"] if f["calls"] else 0.0
    for metric, (span, key, _) in WORK_COUNTS.items():
        chosen = [funcs.get(span, zero)] if span else funcs.values()
        metrics[metric] = sum(f["work"].get(key, 0) for f in chosen) / n
    for layer, self_s in summary["layers"].items():
        metrics[f"layer.{layer}.self_s"] = self_s / n
    traced_mean = sum(traced) / n
    metrics.update({
        "trace.untraced_round_s": statistics.median(untraced),
        "trace.traced_round_s": statistics.median(traced),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.covered_s": summary["covered_s"] / n,
        "trace.remainder_s": traced_mean - summary["covered_s"] / n,
    })
    for kind in KINDS:
        walls = runner.walls.get((kind, False))
        metrics[f"request.{kind}_s"] = statistics.median(walls) if walls else 0.0
    missing = sorted({m for req in runner.spans for m in req["missing"]})
    if missing:
        print(f"functions not found, so not traced: {', '.join(missing)}")
    trace_file.write_text(json.dumps({"summary": summary, "requests": runner.spans}))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics


# -------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "polyrenorm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16], "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "polyrenorm" / "cli.py").is_file():
        print(f"no polyrenorm sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](work, random.Random(args.seed), args.toy)
        runner = Runner(workload, work, started)
        if args.trace:
            trace_file = WORK_ROOT / f"trace-{args.workload}.json"
            values, units = measure_traced(runner, args.seconds, trace_file), per_layer_units()
        else:
            values, units = measure(runner, args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    env["peak_rss_mb"] = round(peak_rss_mb(), 1)
    print("env " + json.dumps(env))
    if not args.trace:
        print(f"{values['_rounds']} round(s), {values['_probes']} set-up probe(s)")
    for (kind, traced), walls in sorted(runner.walls.items()):
        print(f"request {kind}{' traced' if traced else ''}: median "
              f"{statistics.median(walls):.3f} s over {len(walls)} "
              f"({', '.join(f'{w:.3f}' for w in walls)})")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
