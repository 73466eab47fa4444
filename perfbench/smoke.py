"""Smoke test of the benchmark: every workload once at toy sizes.

    python3 -m pytest -q perfbench/smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
and that a deliberately corrupted output is counted as a failed request.
The file name keeps it out of the package's own test collection; it takes
about two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for line in named:
        assert any(row.split()[:1] == [line] for row in proc.stdout.splitlines()), line


def _fail_a_verdict(out: Path) -> None:
    summary = out / "summary.txt"
    summary.write_text(summary.read_text().replace("[PASS]", "[FAIL]", 1))


def _drop_ray_points(out: Path) -> None:
    csv = out / "rays.csv"
    csv.write_text(csv.read_text().splitlines()[0] + "\n")


def _flip_a_mask_bit(out: Path) -> None:
    for mask in out.glob("*_mask.raw"):
        data = bytearray(mask.read_bytes())
        data[-1] ^= 1
        mask.write_bytes(bytes(data))


CORRUPT = {"figure1": _fail_a_verdict, "rays": _drop_ray_points, "sweep": _flip_a_mask_bit}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload, monkeypatch, capsys):
    spawn = run.Runner._spawn

    def spawn_then_corrupt(self, cmd):
        proc, wall = spawn(self, cmd)
        if "--out" in cmd:
            CORRUPT[workload](Path(cmd[cmd.index("--out") + 1]))
        return proc, wall

    monkeypatch.setattr(run.Runner, "_spawn", spawn_then_corrupt)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--toy"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
