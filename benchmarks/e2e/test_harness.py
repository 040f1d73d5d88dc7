"""Self-test of the end-to-end benchmark, at smoke size.

Runs every workload through ``run.py --smoke`` (2 machines, a 3-machine
``table1``, 4 campaign cells) and checks that the emitted metrics match
``BENCHMARK.json``, that deterministic outputs repeat exactly, and that a
traced run accounts for its whole wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(arguments: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


#: Functions each workload exercises, by the README's layer table; a traced
#: run that never calls one has missed a binding of it.
EXERCISED = {
    "table1": ("baselines.DramaTool.run", "analysis.gf2.span",
               "machine.PageAllocator.allocate_fragmented", "evalsuite.run_table1"),
    "uncover": ("core.select_addresses", "core.CoarseDetector.detect",
                "machine.PhysPages.has_range", "machine.PhysPages.has_pages"),
    "uncover-faults": ("faults.FaultInjector.perturb", "faults.FaultInjector.perturb_one",
                       "machine.SimulatedMachine.measure_latency_pairs"),
    "hammer": ("machine.PhysPages.has_page", "rowhammer.RowhammerFaultModel.hammer",
               "parallel.grid.run_cells"),
}


def _measure(directory: Path, *extra: str) -> tuple[dict, dict]:
    out = directory / "record.json"
    completed = _run(["--smoke", "--seconds", "0", "--out", str(out), *extra])
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    return summary, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return [_measure(tmp_path_factory.mktemp(f"untraced{index}")) for index in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _measure(tmp_path_factory.mktemp("traced"), "--trace")


def _units(metrics: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in metrics}


def test_emitted_metrics_match_benchmark_json(untraced, traced):
    for (summary, record), family in [(untraced[0], "end_to_end"), (traced, "per_layer")]:
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
        expected = _units(SPEC[family])
        for workload in WORKLOADS:
            emitted = record["workloads"][workload]["metrics"]
            assert {name: entry["unit"] for name, entry in emitted.items()} == expected


def test_end_to_end_metrics_are_never_zero(untraced):
    for _, record in untraced:
        for workload in WORKLOADS:
            for name, entry in record["workloads"][workload]["metrics"].items():
                assert entry["value"] > 0, (workload, name)


def test_deterministic_outputs_repeat_exactly(untraced, traced):
    records = [record for _, record in untraced] + [traced[1]]
    for workload in WORKLOADS:
        entries = [record["workloads"][workload] for record in records]
        assert len({entry["output_digest"] for entry in entries}) == 1, workload
        assert len({json.dumps(entry["sim"], sort_keys=True) for entry in entries}) == 1


def test_traced_self_times_account_for_the_wall_time(traced):
    _, record = traced
    for workload in WORKLOADS:
        entry = record["workloads"][workload]
        metrics = {name: item["value"] for name, item in entry["metrics"].items()}
        wall = entry["traced_wall_s"]
        self_s = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
        unattributed = metrics["unattributed.share"] * wall
        assert abs((self_s + unattributed) / wall - 1) <= 0.02, workload
        shares = sum(value for name, value in metrics.items() if name.endswith(".share"))
        assert abs(shares - 1) <= 0.02, workload
        for function in EXERCISED[workload]:
            assert metrics[f"{function}.calls"] > 0, (workload, function)
    hammer = record["workloads"]["hammer"]["metrics"]
    assert 0 < hammer["parallel.utilization"]["value"] <= 1


def test_compare_flags_a_changed_output(untraced, tmp_path):
    baseline = tmp_path / "a.json"
    changed = tmp_path / "b.json"
    record = json.loads(json.dumps(untraced[0][1]))
    baseline.write_text(json.dumps(record))
    completed = _run(["compare", str(baseline), "--", str(baseline)])
    assert completed.returncode == 0, completed.stdout
    assert "worse" not in completed.stdout and "MISMATCH" not in completed.stdout

    record["workloads"]["uncover"]["output_digest"] = "0" * 64
    changed.write_text(json.dumps(record))
    completed = _run(["compare", str(baseline), "--", str(changed)])
    assert completed.returncode == 1
    assert "MISMATCH uncover" in completed.stdout

    record["seconds"] = 15.0
    changed.write_text(json.dumps(record))
    completed = _run(["compare", str(baseline), "--", str(changed)])
    assert completed.returncode == 2
    assert "different --seconds" in completed.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    completed = _run(["--workload", "uncover", "--seed", "1"], cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
