"""Smoke tests of the benchmark itself.

Each workload runs at m = 3, traced and untraced, and must emit exactly
the metrics BENCHMARK.json names, with their units.  The stored m = 5 grid
is compared once with a fresh assembly.  Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--degree", "3",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values.values())
    if trace and workload != "verify-m5":
        assert values["algebra.multiply_calls"] == 0
    if trace and workload == "rank-concrete":
        assert values["fast.convolve_calls"] == 0
    if not trace:
        assert all(v > 0 for v in values.values())


def test_spec_matches_metric_tables():
    def table(metrics):
        return [(m.name, m.unit, m.better) for m in metrics]

    def spec(key):
        return [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]

    assert spec("end_to_end") == table(run.END_TO_END)
    assert spec("per_layer") == table(run.LAYER_METRICS)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_dimension_oracle_matches_package():
    import sunbasis

    for m in range(1, 6):
        for shape in sunbasis.partitions(m):
            for n in range(1, 7):
                expected = sunbasis.dimension_formula(shape).eval(n)
                assert sunbasis.Surd.rational(run.hook_content_dimension(shape.rows, n)) == expected


def test_empty_checkout_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "verify-m5", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stored_grid_equals_fresh_assembly():
    import sunbasis

    stored = json.loads(run.GRID_FILE.read_text())
    assert stored == sunbasis.basis_to_json(sunbasis.assemble(5))
