"""Experiment: Figure 2 — time costs of DRAMDig vs DRAMA on 9 machines.

Simulated wall-clock seconds for both tools on every machine. The paper's
claims this reproduces:

* DRAMDig finishes everywhere, 69 s (best) to 17 min (worst), 7.8 min
  average; the cost is dominated by Algorithm 2 and scales with the
  Algorithm-1 pool size (~16,000 addresses on No.6/No.9, smallest on the
  single-DIMM machines);
* DRAMA takes ~500 s to 2 h and is killed after two fruitless hours on
  No.3 and No.7.

Our absolute seconds come from the shared measurement cost model, so the
*shape* (ordering, ratios, timeouts) is the reproduction target, not the
absolute values; EXPERIMENTS.md records both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.drama import DramaConfig, DramaTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.presets import TABLE2_ORDER, preset
from repro.evalsuite.reporting import format_seconds, render_failure_manifest, render_table
from repro.machine.machine import SimulatedMachine
from repro.parallel import (
    CellFailure,
    CheckpointJournal,
    GridCell,
    GridPolicy,
    run_cells,
)

__all__ = ["Figure2Point", "run_figure2", "render_figure2"]


@dataclass
class Figure2Point:
    """One machine's time costs."""

    machine: str
    dramdig_seconds: float
    drama_seconds: float
    drama_timed_out: bool
    dramdig_pool_size: int


def figure2_machine_cell(
    name: str,
    seed: int,
    dramdig_config: DramDigConfig | None,
    drama_config: DramaConfig | None,
) -> Figure2Point:
    """Both tools on one machine; each gets a fresh machine (fresh clock)
    so costs do not mix. Pure function of its arguments — grid-safe."""
    machine_preset = preset(name)

    dramdig_machine = SimulatedMachine.from_preset(machine_preset, seed=seed)
    dramdig_result = DramDig(dramdig_config).run(dramdig_machine)

    drama_machine = SimulatedMachine.from_preset(machine_preset, seed=seed)
    drama_result = DramaTool(drama_config, seed=seed).run(drama_machine)

    return Figure2Point(
        machine=name,
        dramdig_seconds=dramdig_result.total_seconds,
        drama_seconds=drama_result.seconds,
        drama_timed_out=drama_result.timed_out,
        dramdig_pool_size=dramdig_result.pool_size,
    )


def run_figure2(
    seed: int = 1,
    machines: tuple[str, ...] = TABLE2_ORDER,
    dramdig_config: DramDigConfig | None = None,
    drama_config: DramaConfig | None = None,
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | None = None,
) -> list[Figure2Point | CellFailure]:
    """Measure both tools' simulated time cost on every machine.

    One grid cell per machine; ``jobs`` > 1 fans the cells out to worker
    processes with bit-identical results (ordered reassembly). The cells
    run under ``supervision`` (None = default policy) and checkpoint to
    ``journal`` when one is given; a failed machine's slot holds its
    :class:`~repro.parallel.CellFailure` and the renderer prints it as a
    ``FAILED(reason)`` row.
    """
    cells = [
        GridCell(
            "repro.evalsuite.figure2:figure2_machine_cell",
            {
                "name": name,
                "seed": seed,
                "dramdig_config": dramdig_config,
                "drama_config": drama_config,
            },
        )
        for name in machines
    ]
    return run_cells(
        cells, jobs=jobs, policy=supervision, journal=journal
    ).results


def render_figure2(points: list[Figure2Point | CellFailure]) -> str:
    """Render the comparison as the paper's grouped bars, in text.

    A failed cell hands over its :class:`~repro.parallel.CellFailure`
    marker in place of a point; those render as explicit ``FAILED``
    rows, the averages cover completed machines only, and a failure
    manifest is appended.
    """
    headers = ["Machine", "DRAMDig", "DRAMA", "DRAMA outcome", "DRAMDig pool"]
    rows = []
    failures = []
    completed = []
    for point in points:
        if isinstance(point, CellFailure):
            failures.append(point)
            rows.append([point.label, f"FAILED({point.reason})", "-", "-", "-"])
            continue
        completed.append(point)
        rows.append(
            [
                point.machine,
                format_seconds(point.dramdig_seconds),
                format_seconds(point.drama_seconds),
                "killed (timeout)" if point.drama_timed_out else "finished",
                point.dramdig_pool_size,
            ]
        )
    table = render_table(headers, rows)
    lines = [table, ""]
    finished = [p for p in completed if not p.drama_timed_out]
    if completed:
        average_dramdig = sum(p.dramdig_seconds for p in completed) / len(completed)
        lines.append(
            f"DRAMDig average: {format_seconds(average_dramdig)} "
            f"(paper: 7.8 min average, 69 s best, 17 min worst)"
        )
    if finished:
        average_drama = sum(p.drama_seconds for p in finished) / len(finished)
        lines.append(
            f"DRAMA average over finished runs: {format_seconds(average_drama)} "
            f"(paper: ~500 s to 2 h; killed at ~2 h on No.3, No.7)"
        )
    if failures:
        lines += ["", render_failure_manifest(failures)]
    return "\n".join(lines)
