#!/usr/bin/env python
"""Crash-safety smoke: SIGKILL each workload mid-flight, resume it, replay it.

The test suite checks resume by truncating a journal
(``tests/evalsuite/test_resume.py``, ``tests/rowhammer/test_campaign.py``,
``tests/fleet/test_orchestrator.py``). This script races a real
``SIGKILL`` against the ``dramdig`` CLI instead, running one flow over
every entry of :data:`WORKLOADS`:

1. *reference*: run uninterrupted, without a journal, with ``--trace``
   and ``--telemetry R`` (its own stream);
2. *victim*: run with ``--resume J``, ``--telemetry S`` and ``--trace``
   (plus ``--knowledge-store K`` where the workload takes one) and with
   ``TMPDIR`` set to a fresh ``victim-tmp`` directory, and kill -9 it
   once ``J`` holds more records than the workload's baseline (the kill
   means its trace is never written);
3. *resumed*: run again over the same ``J``, ``S`` and ``K``, with
   ``--trace``;
4. *replay*: run a fourth time over the completed ``J`` and ``K``, with
   ``--trace``;
5. *refused*: run with ``--resume`` pointed at the reference trace, and
   (fleet) with ``--knowledge-store`` and ``--resume`` swapped over the
   completed ``J`` and ``K``.

Gates, on every workload:

* the resumed and replay stdout, and the ``--out`` file where the
  workload writes one, are byte-identical to the reference;
* the kill left at least one cell record in ``J`` beyond the baseline;
* the victim, killed or not, left no file in its ``TMPDIR``;
* telemetry continuity: an event reached ``S`` before the kill, at most
  one line of ``S`` fails to parse, the last event is a ``run-end``
  with code 0, and the events come from at least two processes;
* ``dramdig trace summary --strict`` accepts the resumed and replay
  traces;
* nothing ran twice: the resumed trace shows exactly as many ``CACHED``
  cells as there were survivors (cell records in ``J`` at the kill);
* ``dramdig obs diff`` finds no regression from reference to resumed;
* the replay trace's metric counters are exactly
  ``{"grid.cells_resumed": N}``, N being the cell records in ``J``;
* the unflagged reference run streams progress: ``R`` holds exactly N
  ``cell`` events, all with status ``ok``;
* every cell is named: no ``cell`` event in ``R`` has a label that
  starts with ``cell#`` (the grid's fallback for a payload without a
  ``name``);
* refusal: each refused run exits 2 and leaves the files it was handed
  (the reference trace; the fleet's ``J`` and ``K``) byte-identical.

The kill is racy. If the victim finishes before it lands, the three
gates that need a kill (the checkpoint, the event before it and the
second process) are skipped and the rest still run. Every workload runs
even after one fails; the script prints one verdict line per workload
and exits 1 if any gate failed.

``--artifacts DIR`` keeps each workload's journal, store, stream,
traces, outputs, summaries and diff in ``DIR/<workload>``
instead of a throwaway directory, so CI can upload them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
CLI = (sys.executable, "-m", "repro")
POLL_SECONDS = 0.005  # the whole fleet finishes in a few seconds
TIMEOUT_SECONDS = 600.0


@dataclass(frozen=True)
class Workload:
    """One ``dramdig`` command under test; data only, the flow is shared."""

    name: str  # verdict label and artifact subdirectory
    argv: tuple[str, ...]  # the subcommand and its arguments
    out: bool = False  # writes an --out artifact
    store: bool = False  # takes a --knowledge-store
    baseline: int = 0  # journal records written before the first cell


WORKLOADS = (
    Workload("table1", ("table1",)),
    Workload(
        "campaign",
        ("campaign", "run", "--machines", "No.1", "No.2",
         "--variants", "double_sided", "many_sided_6",
         "--mitigations", "none", "trr", "--tests", "1", "--duration", "120"),
        out=True,
    ),
    # The fleet journals its knowledge-store snapshot before any machine.
    Workload(
        "fleet",
        ("fleet", "run", "--fleet-size", "9", "--families", "3",
         "--profile", "adversarial", "--max-gib", "8", "--wave", "2"),
        out=True, store=True, baseline=1,
    ),
)


def read_jsonl(path: Path) -> tuple[list[dict], int]:
    """The JSON objects of a JSONL file and the count of lines that are not.

    Parsed inline, not through ``repro``, so the gates read the journal,
    the telemetry stream and the trace the way an outside consumer would.
    """
    if not path.exists():
        return [], 0
    records, torn = [], 0
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            torn += 1
    return records, torn


def cell_records(journal: Path) -> int:
    return sum("fingerprint" in record for record in read_jsonl(journal)[0])


def dramdig(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CLI, *argv], cwd=REPO, env=ENV,
        capture_output=True, text=True, timeout=TIMEOUT_SECONDS,
    )


def command(work: Workload, root: Path, role: str, journal: bool = False,
            telemetry: str | None = None, trace: bool = False) -> list[str]:
    """One run's argv; global flags go before the subcommand."""
    argv = ["--telemetry", str(root / telemetry)] if telemetry else []
    argv += work.argv
    argv += ["--out", str(root / f"{role}.out")] if work.out else []
    if journal:
        argv += ["--resume", str(root / "journal.jsonl")]
        argv += ["--knowledge-store", str(root / "store.jsonl")] if work.store else []
    argv += ["--trace", str(root / f"{role}-trace.jsonl")] if trace else []
    return argv


def complete(role: str, argv: list[str]) -> str:
    """Run to completion and return stdout; a failed run aborts the flow."""
    start = time.monotonic()
    result = dramdig(*argv)
    print(f"  {role:<9} {time.monotonic() - start:6.1f} s", flush=True)
    if result.returncode != 0:
        raise RuntimeError(f"{role} run exited {result.returncode}:\n"
                           + result.stderr[-2000:])
    return result.stdout


def refusal(argv: list[str], *files: Path) -> str | None:
    """Run a command handed files of the wrong format; what went wrong,
    if it did not exit 2 with every file byte-identical."""
    before = [path.read_bytes() for path in files]
    result = dramdig(*argv)
    if result.returncode != 2:
        return f"exited {result.returncode}, not 2"
    changed = [path.name for path, data in zip(files, before)
               if path.read_bytes() != data]
    return f"changed {', '.join(changed)}" if changed else None


def kill_once_checkpointed(argv: list[str], journal: Path, baseline: int,
                           tmpdir: Path) -> int:
    """Run the victim, SIGKILL it once it journals a cell; its exit code."""
    start = time.monotonic()
    victim = subprocess.Popen(
        [*CLI, *argv], cwd=REPO, env={**ENV, "TMPDIR": str(tmpdir)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        while victim.poll() is None:
            if cell_records(journal) > baseline:
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=30)
                break
            if time.monotonic() - start > TIMEOUT_SECONDS:
                raise TimeoutError("victim neither checkpointed nor finished")
            time.sleep(POLL_SECONDS)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()
    print(f"  {'victim':<9} {time.monotonic() - start:6.1f} s", flush=True)
    return victim.returncode


def run_workload(work: Workload, root: Path) -> tuple[list[str], str]:
    """Drive one workload through the flow; (failed gates, outcome)."""
    failures: list[str] = []

    def gate(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"  FAIL: {message}", flush=True)

    root.mkdir(parents=True)
    journal, stream = root / "journal.jsonl", root / "telemetry.jsonl"
    reference = complete("reference", command(
        work, root, "reference", telemetry="reference-telemetry.jsonl",
        trace=True))

    victim_tmp = root / "victim-tmp"
    victim_tmp.mkdir()
    code = kill_once_checkpointed(
        command(work, root, "victim", journal=True, telemetry=stream.name,
                trace=True),
        journal, work.baseline, victim_tmp,
    )
    killed = code == -signal.SIGKILL
    leftovers = sorted(str(path.relative_to(victim_tmp))
                       for path in victim_tmp.rglob("*") if path.is_file())
    gate(not leftovers, f"the victim left {len(leftovers)} file(s) in its "
                        f"TMPDIR: {', '.join(leftovers[:5])}")
    survivors = cell_records(journal) - work.baseline
    heartbeats = len(read_jsonl(stream)[0])
    if killed:
        gate(survivors >= 1, "the kill landed before any cell checkpoint")
        gate(heartbeats >= 1, "no telemetry event reached the stream "
                              "before the kill")
    else:
        gate(code == 0, f"the victim exited {code} on its own")

    outputs = {
        "resumed": complete("resumed", command(
            work, root, "resumed", journal=True, telemetry=stream.name,
            trace=True)),
        "replay": complete("replay", command(
            work, root, "replay", journal=True, trace=True)),
    }
    summaries = {}
    for role, stdout in outputs.items():
        gate(stdout == reference, f"{role} stdout differs from the reference")
        if work.out:
            gate((root / f"{role}.out").read_bytes()
                 == (root / "reference.out").read_bytes(),
                 f"{role} --out file differs from the reference")
        summary = dramdig("trace", "summary", "--strict",
                          str(root / f"{role}-trace.jsonl"))
        (root / f"{role}-summary.txt").write_text(summary.stdout + summary.stderr)
        gate(summary.returncode == 0,
             f"trace summary --strict rejected the {role} trace")
        summaries[role] = summary.stdout

    events, torn = read_jsonl(stream)
    last = events[-1] if events else {}
    pids = {event["pid"] for event in events if "pid" in event}
    gate(torn <= 1, f"{torn} telemetry lines fail to parse (one torn line "
                    "from the kill is tolerated)")
    gate(last.get("kind") == "run-end" and last.get("code") == 0,
         "the telemetry stream does not end with a clean run-end")
    if killed:
        gate(len(pids) >= 2, "telemetry events come from one process only")

    cached = summaries["resumed"].count("CACHED")
    gate(cached == survivors, f"{survivors} survivor(s) but {cached} CACHED "
                              "cell(s) in the resumed trace: a cell ran twice")

    diff = dramdig("obs", "diff", str(root / "reference-trace.jsonl"),
                   str(root / "resumed-trace.jsonl"))
    (root / "resumed-vs-reference-diff.txt").write_text(diff.stdout + diff.stderr)
    gate(diff.returncode == 0, "obs diff found a regression from the "
                               "reference to the resumed trace")

    metrics = [record for record in read_jsonl(root / "replay-trace.jsonl")[0]
               if record.get("type") == "metrics"]
    counters = metrics[0].get("counters") if metrics else None
    cells = cell_records(journal) - work.baseline
    expected = {"grid.cells_resumed": cells}
    gate(counters == expected,
         f"replay counters are {counters}, expected {expected}")

    progress = [event for event in
                read_jsonl(root / "reference-telemetry.jsonl")[0]
                if event.get("kind") == "cell"]
    statuses = [event.get("status") for event in progress]
    gate(statuses == ["ok"] * cells,
         f"the reference stream holds {len(statuses)} cell event(s) "
         f"({statuses.count('ok')} ok), expected {cells} ok")
    unnamed = [str(event.get("cell")) for event in progress
               if str(event.get("cell")).startswith("cell#")]
    gate(not unnamed, f"{len(unnamed)} reference cell event(s) carry no name: "
                      f"{', '.join(unnamed[:5])}")

    trace = root / "reference-trace.jsonl"
    problem = refusal([*work.argv, "--resume", str(trace)], trace)
    gate(problem is None, f"--resume naming the reference trace: {problem}")
    if work.store:
        store = root / "store.jsonl"
        problem = refusal([*work.argv, "--resume", str(store),
                           "--knowledge-store", str(journal)], journal, store)
        gate(problem is None, f"--resume and --knowledge-store swapped: {problem}")

    landed = (f"killed mid-flight with {survivors} survivor(s) and "
              f"{heartbeats} event(s) streamed" if killed
              else "victim finished before the kill landed")
    return failures, (f"{landed}; {cached} CACHED on resume; replay counters "
                      f"{json.dumps(counters, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="keep each workload's files in DIR/<workload> (for CI upload)",
    )
    args = parser.parse_args(argv)
    failed, verdicts = False, []
    with tempfile.TemporaryDirectory(prefix="kill-resume-") as scratch:
        base = Path(args.artifacts or scratch)
        for work in WORKLOADS:
            print(f"== {work.name} ==", flush=True)
            try:
                failures, outcome = run_workload(work, base / work.name)
            except Exception as exc:  # one broken workload must not stop the rest
                traceback.print_exc(file=sys.stdout)
                failures, outcome = [repr(exc)], f"aborted by {type(exc).__name__}"
            failed = failed or bool(failures)
            verdict = f"FAIL ({len(failures)} gate(s))" if failures else "PASS"
            verdicts.append(f"{work.name}: {verdict}; {outcome}")
    print("== verdicts ==", *verdicts, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
