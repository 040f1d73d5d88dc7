"""Run history: fold each run's totals into ``.dramdig/history.jsonl``.

Every telemetry-enabled run appends one record — command, wall seconds,
simulated nanoseconds, the run's metric snapshot — to an append-only
history file (:func:`repro.ioutil.atomic_append`, same torn-line
tolerance as the telemetry stream). ``dramdig obs history`` renders the
trailing entries and runs :func:`detect_regressions`: the newest run of
each command is compared against the mean of its trailing window, on the
*simulated* clock where one was recorded (deterministic — any growth is
a real cost change, not noise) and on wall clock with a much wider
threshold otherwise.

The metric fold over history entries reuses
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so it is a
commutative pure fold: replaying history in any order produces the same
aggregate (pinned by the order-independence test).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.ioutil import atomic_append, read_records
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "HISTORY_FORMAT",
    "HISTORY_VERSION",
    "Regression",
    "detect_regressions",
    "fold_history_metrics",
    "load_history",
    "record_run",
    "render_history",
]

HISTORY_FORMAT = "dramdig-history"
HISTORY_VERSION = 1
DEFAULT_HISTORY_PATH = Path(".dramdig") / "history.jsonl"

# Simulated time is deterministic: 5% growth is a real regression, not
# noise. Wall time is whatever the host was doing: only flag a doubling.
SIM_REGRESSION_THRESHOLD = 0.05
WALL_REGRESSION_THRESHOLD = 1.0


def record_run(
    path: str | Path,
    command: str,
    wall_s: float,
    sim_ns: float | None = None,
    metrics: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Append one run record to the history file and return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "format": HISTORY_FORMAT,
        "version": HISTORY_VERSION,
        "wall": time.time(),
        "command": command,
        "wall_s": wall_s,
        "sim_ns": sim_ns,
        "metrics": metrics or {},
    }
    if extra:
        record.update(extra)
    atomic_append(target, json.dumps(record, sort_keys=True))
    return record


def load_history(path: str | Path) -> list[dict]:
    """Parse a history file, skipping torn or foreign lines."""
    source = Path(path)
    if not source.exists():
        return []
    return [
        record
        for _, record in read_records(source)
        if record.get("format") == HISTORY_FORMAT
        and record.get("version") == HISTORY_VERSION
    ]


def fold_history_metrics(entries: list[dict]) -> MetricsRegistry:
    """Merge every entry's metric snapshot into one registry.

    Pure fold over :meth:`MetricsRegistry.merge_snapshot` — commutative
    and associative, so the aggregate is independent of entry order.
    """
    registry = MetricsRegistry()
    for entry in entries:
        snapshot = entry.get("metrics")
        if isinstance(snapshot, dict):
            registry.merge_snapshot(snapshot)
    return registry


@dataclass
class Regression:
    """One flagged run-vs-trailing-window slowdown."""

    command: str
    clock: str  # "sim" or "wall"
    latest: float
    trailing_mean: float
    window: int

    @property
    def ratio(self) -> float:
        return self.latest / self.trailing_mean if self.trailing_mean else float("inf")

    def describe(self) -> str:
        unit = "sim-ns" if self.clock == "sim" else "wall-s"
        return (
            f"{self.command}: latest {self.clock} {self.latest:.3g} {unit} is "
            f"{self.ratio:.2f}x the trailing-{self.window} mean "
            f"{self.trailing_mean:.3g}"
        )


def detect_regressions(entries: list[dict], window: int = 5) -> list[Regression]:
    """Compare each command's newest run against its trailing window.

    A command needs at least two entries to be judged. The newest entry
    is compared on the simulated clock when both it and the window have
    one (threshold :data:`SIM_REGRESSION_THRESHOLD`); otherwise on wall
    clock (threshold :data:`WALL_REGRESSION_THRESHOLD`).
    """
    by_command: dict[str, list[dict]] = {}
    for entry in entries:
        by_command.setdefault(str(entry.get("command", "?")), []).append(entry)

    findings: list[Regression] = []
    for command in sorted(by_command):
        runs = by_command[command]
        if len(runs) < 2:
            continue
        latest = runs[-1]
        trailing = runs[-(window + 1):-1]

        sim_latest = latest.get("sim_ns")
        sim_window = [
            run["sim_ns"] for run in trailing if run.get("sim_ns") is not None
        ]
        if sim_latest is not None and sim_window:
            mean = sum(sim_window) / len(sim_window)
            if mean > 0 and sim_latest > mean * (1.0 + SIM_REGRESSION_THRESHOLD):
                findings.append(
                    Regression(
                        command=command,
                        clock="sim",
                        latest=float(sim_latest),
                        trailing_mean=mean,
                        window=len(sim_window),
                    )
                )
            continue

        wall_latest = latest.get("wall_s")
        wall_window = [
            run["wall_s"] for run in trailing if run.get("wall_s") is not None
        ]
        if wall_latest is not None and wall_window:
            mean = sum(wall_window) / len(wall_window)
            if mean > 0 and wall_latest > mean * (1.0 + WALL_REGRESSION_THRESHOLD):
                findings.append(
                    Regression(
                        command=command,
                        clock="wall",
                        latest=float(wall_latest),
                        trailing_mean=mean,
                        window=len(wall_window),
                    )
                )
    return findings


def render_history(entries: list[dict], window: int = 5, limit: int = 20) -> str:
    """Trailing history table plus any regression findings."""
    if not entries:
        return "(no history)"
    lines = [f"{'when':<20}{'command':<28}{'wall-s':>10}{'sim-s':>12}"]
    for entry in entries[-limit:] if limit > 0 else entries:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(entry.get("wall", 0))
        )
        sim_ns = entry.get("sim_ns")
        sim = f"{sim_ns / 1e9:12.2f}" if sim_ns is not None else f"{'-':>12}"
        lines.append(
            f"{when:<20}{str(entry.get('command', '?')):<28}"
            f"{entry.get('wall_s', 0.0):10.3f}{sim}"
        )
    findings = detect_regressions(entries, window=window)
    lines.append("")
    if findings:
        for finding in findings:
            lines.append(f"regression: {finding.describe()}")
    else:
        lines.append(f"no regressions against the trailing-{window} window")
    return "\n".join(lines)
