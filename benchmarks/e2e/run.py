"""End-to-end benchmark of the DRAMDig reproduction.

Measure (every workload, or one), printing each metric with its unit and
checking every output; the last line of standard output is a JSON summary::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--out PATH]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. Compare two
sets of ``--out`` records made with the same ``--seconds``, for example the
parent commit's and a change's::

    python3 benchmarks/e2e/run.py compare A1.json A2.json ... -- B1.json ...

Each workload runs in its own fresh process (``workloads.py``) under a
4 GiB address-space limit; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS_PY = HERE / "workloads.py"

#: Set-up is sampled this many times per measured run (``setup_s`` is the median).
SETUP_SAMPLES = 3
MEMORY_LIMIT_BYTES = 4 << 30
CHILD_TIMEOUT_S = 170
#: Longest ``--seconds`` accepted: the measuring process also sets up and
#: finishes its last repeat, and must end within CHILD_TIMEOUT_S.
MAX_SECONDS = 60
#: Record fields that are deterministic for a seed, so compared exactly.
DETERMINISTIC = ("output_digest", "sim")


class ChildError(RuntimeError):
    """A workload process failed without producing a record."""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_child(workload: str, seed: int, extra: list[str], work: Path) -> dict:
    """Run one workload process and return the JSON record it printed."""
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "TMPDIR": str(work),
    })
    started = time.monotonic()
    command = [
        sys.executable, str(WORKLOADS_PY),
        "--workload", workload, "--seed", str(seed), "--started", repr(started),
        *extra,
    ]
    # A session of its own, so that no pool worker outlives the run.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        preexec_fn=_limit_memory, start_new_session=True, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} process took over {CHILD_TIMEOUT_S} s") from None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildError(f"{workload} process exited with code {child.returncode}")
    return json.loads(lines[-1])


def measure_workload(name: str, args, spec: dict, work: Path) -> dict:
    """Run ``name`` in fresh processes and return its metrics and details."""
    common = ["--smoke"] if args.smoke else []
    if args.trace:
        record = run_child(name, args.seed, ["--trace", *common], work)
        metrics = dict(record.pop("layers"))
        expected = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    else:
        # Host speed drifts over tens of seconds, and set-up, being short,
        # swings the most with it: its extra samples are taken half
        # before and half after the measured process.
        extra = 0 if args.smoke else (SETUP_SAMPLES - 1) // 2

        def setup_samples() -> list[float]:
            return [run_child(name, args.seed, ["--setup-only"], work)["setup_s"]
                    for _ in range(extra)]

        setups = setup_samples()
        record = run_child(name, args.seed, ["--seconds", str(args.seconds), *common], work)
        setups += [record["setup_s"], *setup_samples()]
        record["setup_samples"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": record["wall_s"]["min"],
            "item_p50_ms": record["items"]["p50_ms"],
            "item_tail_ms": record["items"]["tail_ms"],
            "events_per_s": record["events_per_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        expected = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    if set(metrics) != set(expected):
        record["errors"].append(
            f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}"
        )
    record["metrics"] = {
        metric: {"value": metrics.get(metric, 0.0), "unit": unit}
        for metric, unit in expected.items()
    }
    record["correct"] = not record["errors"] and record["failed"] == 0
    return record


def report(name: str, seed: int, record: dict) -> None:
    """Print one workload's metrics, outputs and checks."""
    print(f"== {name} (seed {seed}, {record['repeats']} repeats) ==")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    if "wall_s" in record:
        wall = record["wall_s"]
        print(f"  repeat wall median/max: {wall['median']:.4f} / {wall['max']:.4f} s")
        print(f"  items: {record['items']['count']}, events per repeat: "
              f"{record['events_per_repeat']}")
        setups = ", ".join(f"{value:.3f}" for value in record["setup_samples"])
        print(f"  setup_s samples: {setups}")
    print(f"  failed_frac: {record['failed']}/{record['attempted']}")
    for key, value in sorted(record["sim"].items()):
        print(f"  simulated {key}: {value!r}")
    print(f"  output_digest: {record['output_digest']}")
    if record["errors"]:
        print("  CHECKS FAILED:")
        for error in record["errors"]:
            print(f"    {error}")
    else:
        print("  checks: ok")


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 <= value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be between 0 and {MAX_SECONDS}")
    return value


def measure_main(argv: list[str]) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(
        description="Run the end-to-end benchmark.",
        epilog="Subcommand: compare A.json ... -- B.json ...",
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=_seconds, default=float(spec["run_seconds"]),
                        help="measure at least this long, and at least three repeats "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run instead")
    parser.add_argument("--out", type=Path, help="write the full record as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample (self-test only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    # Scratch files (pool cell times, repro.obs per-cell traces) stay
    # inside the checkout and go when the run ends.
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        for name in names:
            records[name] = measure_workload(name, args, spec, work)
            report(name, args.seed, records[name])
    except ChildError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke, "workloads": records},
            indent=2,
        ) + "\n")
    correct = all(record["correct"] for record in records.values())
    if len(names) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, record in records.items()
            for metric, entry in record["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records.values()),
        "failed": sum(record["failed"] for record in records.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------- compare


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], bound: float, higher_better: bool) -> str:
    """Judge change ``b`` against parent ``a`` for one (metric, workload).

    Following the choosing-metrics rules: a gain needs the change to win
    at least nine tenths of the index-paired runs and the medians to
    differ by more than the parent's interquartile distance. A loss is a
    median worse by more than ``bound``. When either side's spread
    exceeds ``bound`` the pair is unresolved, unless every run of the
    change reads better than every run of the parent.
    """
    sign = -1.0 if higher_better else 1.0
    a_q1, a_median, a_q3 = _quartiles(a)
    b_q1, b_median, b_q3 = _quartiles(b)
    worse_by = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    spread = max((a_q3 - a_q1) / abs(a_median) if a_median else 0.0,
                 (b_q3 - b_q1) / abs(b_median) if b_median else 0.0)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if wins >= 0.9 * len(pairs) and abs(b_median - a_median) > a_q3 - a_q1:
        return "better"
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def _load_side(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record.get("trace"):
            raise SystemExit(f"{path}: a --trace record; compare untraced runs")
        records.append(record)
    return records


def compare_main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json ... -- B.json ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = _load_side(argv[:split]), _load_side(argv[split + 1:])
    if not side_a or not side_b:
        print("compare: each side needs at least one record", file=sys.stderr)
        return 2
    # Timings are minima over the repeats a run made, so runs of different
    # lengths or sizes do not compare.
    settings = {(record.get("seconds"), record.get("smoke")) for record in side_a + side_b}
    if len(settings) > 1:
        print(f"compare: records were measured with different --seconds/--smoke: "
              f"{sorted(settings, key=repr)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    status = 0
    print(f"{'metric':<14} {'workload':<15} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32}  verdict")
    for metric in spec["end_to_end"]:
        for workload in WORKLOADS:
            a = [r["workloads"][workload]["metrics"][metric["name"]]["value"]
                 for r in side_a if workload in r["workloads"]]
            b = [r["workloads"][workload]["metrics"][metric["name"]]["value"]
                 for r in side_b if workload in r["workloads"]]
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"], metric["better"] == "higher")
            if result == "worse":
                status = 1
            cells = []
            for values in (a, b):
                q1, median, q3 = _quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{metric['name']:<14} {workload:<15} {cells[0]:>32} {cells[1]:>32}  {result}")

    # Deterministic outputs must match exactly for every (workload, seed)
    # measured on both sides.
    seen: dict[tuple[str, int], dict] = {}
    for record in side_a:
        for workload, entry in record["workloads"].items():
            seen[(workload, record["seed"])] = {key: entry[key] for key in DETERMINISTIC}
    for record in side_b:
        for workload, entry in record["workloads"].items():
            parent = seen.get((workload, record["seed"]))
            if parent is None:
                continue
            for key in DETERMINISTIC:
                if json.dumps(entry[key], sort_keys=True) != json.dumps(parent[key], sort_keys=True):
                    print(f"MISMATCH {workload} seed {record['seed']}: {key} differs")
                    status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return measure_main(argv)


if __name__ == "__main__":
    sys.exit(main())
