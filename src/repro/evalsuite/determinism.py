"""Determinism study: quantify Table I's third column.

The paper writes: "we ran [DRAMA's] code for numerous times and found that
it generated different DRAM mappings most of the time". This module turns
that sentence into a measurement: run a tool N times on one machine,
canonicalise each output (functions as a sorted reduced GF(2) basis, plus
the row-bit set), and report

* distinct outputs observed,
* how often the modal output occurred,
* how often the output was hammer-equivalent to ground truth.

DRAMDig's row reads 1 distinct / 100 % / 100 %; DRAMA's does not — and the
gap is the determinism claim, measured.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis import gf2
from repro.baselines.drama import DramaConfig, DramaTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.belief import BeliefMapping
from repro.dram.presets import preset
from repro.evalsuite.reporting import render_failure_manifest, render_table
from repro.machine.machine import SimulatedMachine
from repro.parallel import CellFailure, CheckpointJournal, GridCell, GridPolicy, run_cells

__all__ = ["DeterminismRow", "run_determinism", "render_determinism"]


@dataclass
class DeterminismRow:
    """One tool's repeated-run statistics on one machine.

    Attributes:
        tool: display name.
        machine: preset label.
        runs: attempts made.
        completed: runs that produced a mapping.
        distinct_outputs: canonicalised distinct mappings among completed.
        modal_fraction: share of completed runs producing the most common
            output.
        correct_fraction: share of completed runs hammer-equivalent to the
            ground truth.
        failures: grid cells that exhausted their attempts.
    """

    tool: str
    machine: str
    runs: int
    completed: int = 0
    distinct_outputs: int = 0
    modal_fraction: float = 0.0
    correct_fraction: float = 0.0
    outputs: Counter = field(default_factory=Counter)
    failures: list[CellFailure] = field(default_factory=list)


def _canonical(belief: BeliefMapping) -> tuple:
    basis = tuple(gf2.reduced_row_echelon(belief.bank_functions))
    return (basis, belief.row_bits)


def dramdig_run_cell(
    name: str, machine_name: str, seed: int, dramdig_config: DramDigConfig | None
) -> dict:
    """One DRAMDig run: canonical output + ground-truth equivalence.

    ``name`` (``DRAMDig/<machine>/run<i>``) labels the cell in traces,
    telemetry and failure manifests.
    """
    truth = preset(machine_name).mapping
    machine = SimulatedMachine.from_preset(preset(machine_name), seed=seed)
    result = DramDig(dramdig_config).run(machine)
    belief = BeliefMapping.from_mapping(result.mapping)
    return {
        "canonical": _canonical(belief),
        "correct": bool(belief.hammer_equivalent(truth)),
    }


def drama_run_cell(
    name: str,
    machine_name: str,
    seed: int,
    tool_seed: int,
    drama_config: DramaConfig | None,
) -> dict | None:
    """One DRAMA run; ``None`` when the run times out without a belief.

    ``name`` (``DRAMA/<machine>/run<i>``) labels the cell like
    :func:`dramdig_run_cell`'s.
    """
    truth = preset(machine_name).mapping
    machine = SimulatedMachine.from_preset(preset(machine_name), seed=seed)
    result = DramaTool(drama_config, seed=tool_seed).run(machine)
    if result.belief is None:
        return None
    return {
        "canonical": _canonical(result.belief),
        "correct": bool(result.belief.hammer_equivalent(truth)),
    }


def _fold_rows(tool: str, machine_name: str, runs: int, records) -> DeterminismRow:
    """Aggregate per-run records in run order (Counter insertion order and
    tie-breaking therefore match the original serial loop exactly).

    DRAMA's timeouts (``None``) and failed grid cells do not count as
    completed; the failures are kept for the renderer's manifest.
    """
    row = DeterminismRow(tool=tool, machine=machine_name, runs=runs)
    for record in records:
        if isinstance(record, CellFailure):
            row.failures.append(record)
            continue
        if record is None:
            continue
        row.completed += 1
        row.outputs[record["canonical"]] += 1
        row.correct_fraction += record["correct"]
    if row.completed:
        row.distinct_outputs = len(row.outputs)
        row.modal_fraction = row.outputs.most_common(1)[0][1] / row.completed
        row.correct_fraction /= row.completed
    return row


def run_determinism(
    machine_name: str = "No.1",
    runs: int = 8,
    seed: int = 1,
    dramdig_config: DramDigConfig | None = None,
    drama_config: DramaConfig | None = None,
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | None = None,
) -> list[DeterminismRow]:
    """Repeated-run study of DRAMDig and DRAMA on one machine.

    Each run uses a *different machine seed* (fresh noise, fresh buffer
    placement) for DRAMDig — its determinism must hold across machine
    randomness — and a different tool seed for DRAMA (its nondeterminism
    is internal). Fresh machine seed per run for both tools: a rerun on a
    real machine sees fresh noise; DRAMDig's output must survive that,
    DRAMA's does not.

    One grid cell per (tool, run), each carrying its tool config;
    ``jobs`` > 1 fans them out to worker processes with bit-identical
    aggregation (records fold in run order). The cells run under
    ``supervision`` (None = default policy) and checkpoint to ``journal``
    when one is given: journalled runs are not repeated, and a failed
    run is left out of its row and listed in the rendered failure
    manifest.
    """
    cells = [
        GridCell(
            "repro.evalsuite.determinism:dramdig_run_cell",
            {
                "name": f"DRAMDig/{machine_name}/run{run}",
                "machine_name": machine_name,
                "seed": seed + run,
                "dramdig_config": dramdig_config,
            },
        )
        for run in range(runs)
    ] + [
        GridCell(
            "repro.evalsuite.determinism:drama_run_cell",
            {
                "name": f"DRAMA/{machine_name}/run{run}",
                "machine_name": machine_name,
                "seed": seed + run,
                "tool_seed": seed * 1000 + run,
                "drama_config": drama_config,
            },
        )
        for run in range(runs)
    ]
    records = run_cells(
        cells, jobs=jobs, policy=supervision, journal=journal
    ).results
    return [
        _fold_rows("DRAMDig", machine_name, runs, records[:runs]),
        _fold_rows("DRAMA", machine_name, runs, records[runs:]),
    ]


def render_determinism(rows: list[DeterminismRow]) -> str:
    """Render the study as a table, plus a manifest of failed runs."""
    headers = [
        "Tool",
        "Machine",
        "Completed",
        "Distinct outputs",
        "Modal output",
        "Correct",
    ]
    body = [
        [
            row.tool,
            row.machine,
            f"{row.completed}/{row.runs}",
            row.distinct_outputs,
            f"{row.modal_fraction:.0%}",
            f"{row.correct_fraction:.0%}",
        ]
        for row in rows
    ]
    table = render_table(headers, body)
    failures = [failure for row in rows for failure in row.failures]
    if failures:
        table += "\n\n" + render_failure_manifest(failures)
    return table
