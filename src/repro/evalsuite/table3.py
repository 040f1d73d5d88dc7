"""Experiment: Table III — double-sided rowhammer, DRAMDig vs DRAMA.

For machines No.1, No.2 and No.5: five timed tests per tool. Before each
test the tool re-derives its mapping (DRAMA's per-test nondeterminism is
the point of the comparison), then the attack driver aims with the
recovered belief and the fault model counts flips. Rendered in the
paper's ``DRAMDig/DRAMA`` per-test layout with a Total column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.drama import DramaConfig, DramaTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.belief import BeliefMapping
from repro.dram.presets import preset
from repro.evalsuite.reporting import render_failure_manifest, render_table
from repro.machine.machine import SimulatedMachine
from repro.parallel import (
    CellFailure,
    CheckpointJournal,
    GridCell,
    GridPolicy,
    run_cells,
)
from repro.rowhammer.hammer import DoubleSidedAttack, HammerConfig

__all__ = ["Table3Row", "run_table3", "render_table3", "TABLE3_MACHINES"]

TABLE3_MACHINES: tuple[str, ...] = ("No.1", "No.2", "No.5")


@dataclass
class Table3Row:
    """Per-machine flip counts for both tools."""

    machine: str
    dramdig_flips: list[int] = field(default_factory=list)
    drama_flips: list[int] = field(default_factory=list)

    @property
    def dramdig_total(self) -> int:
        return sum(self.dramdig_flips)

    @property
    def drama_total(self) -> int:
        return sum(self.drama_flips)


def table3_machine_cell(
    name: str,
    seed: int,
    tests: int,
    hammer_config: HammerConfig | None,
    dramdig_config: DramDigConfig | None,
    drama_config: DramaConfig | None,
) -> Table3Row:
    """Both tools' five-test comparison on one machine.

    DRAMDig's mapping is derived once (it is deterministic — re-running
    changes nothing); DRAMA re-runs before every test, as its
    nondeterminism demands. A DRAMA timeout contributes a zero-flip test
    (no mapping, no aim). Every seed is derived from the arguments, so the
    cell is grid-safe.
    """
    machine_preset = preset(name)
    row = Table3Row(machine=name)

    dramdig_machine = SimulatedMachine.from_preset(machine_preset, seed=seed)
    dramdig_result = DramDig(dramdig_config).run(dramdig_machine)
    dramdig_belief = BeliefMapping.from_mapping(dramdig_result.mapping)
    attack = DoubleSidedAttack(
        dramdig_machine,
        config=hammer_config,
        vulnerability=machine_preset.hammer_vulnerability,
    )
    for test in range(tests):
        report = attack.run(dramdig_belief, seed=seed * 1000 + test)
        row.dramdig_flips.append(report.flips)

    for test in range(tests):
        drama_machine = SimulatedMachine.from_preset(machine_preset, seed=seed)
        drama_result = DramaTool(drama_config, seed=seed * 100 + test * 17).run(
            drama_machine
        )
        if drama_result.belief is None:
            row.drama_flips.append(0)
            continue
        drama_attack = DoubleSidedAttack(
            drama_machine,
            config=hammer_config,
            vulnerability=machine_preset.hammer_vulnerability,
        )
        report = drama_attack.run(
            drama_result.belief, seed=seed * 2000 + test
        )
        row.drama_flips.append(report.flips)
    return row


def run_table3(
    seed: int = 1,
    tests: int = 5,
    machines: tuple[str, ...] = TABLE3_MACHINES,
    hammer_config: HammerConfig | None = None,
    dramdig_config: DramDigConfig | None = None,
    drama_config: DramaConfig | None = None,
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | None = None,
) -> list[Table3Row | CellFailure]:
    """Run the paper's rowhammer comparison.

    One grid cell per machine; ``jobs`` > 1 fans the cells out to worker
    processes with bit-identical results (ordered reassembly). The cells
    run under ``supervision`` (None = default policy) and checkpoint to
    ``journal`` when one is given; a failed machine's slot holds its
    :class:`~repro.parallel.CellFailure` and the renderer prints it as a
    ``FAILED(reason)`` row.
    """
    cells = [
        GridCell(
            "repro.evalsuite.table3:table3_machine_cell",
            {
                "name": name,
                "seed": seed,
                "tests": tests,
                "hammer_config": hammer_config,
                "dramdig_config": dramdig_config,
                "drama_config": drama_config,
            },
        )
        for name in machines
    ]
    return run_cells(
        cells, jobs=jobs, policy=supervision, journal=journal
    ).results


def render_table3(rows: list[Table3Row | CellFailure]) -> str:
    """Render in the paper's T1-T5 DRAMDig/DRAMA layout.

    A failed cell substitutes its :class:`~repro.parallel.CellFailure`
    marker for a row; those render as explicit ``FAILED`` lines and a
    failure manifest is appended.
    """
    completed = [row for row in rows if not isinstance(row, CellFailure)]
    failures = [row for row in rows if isinstance(row, CellFailure)]
    tests = max((len(row.dramdig_flips) for row in completed), default=0)
    headers = ["Machine"] + [f"T{i + 1}" for i in range(tests)] + ["Total"]
    body = []
    for row in rows:
        if isinstance(row, CellFailure):
            body.append([row.label] + ["-"] * tests + [f"FAILED({row.reason})"])
            continue
        cells = [row.machine]
        for index in range(tests):
            dramdig = row.dramdig_flips[index] if index < len(row.dramdig_flips) else 0
            drama = row.drama_flips[index] if index < len(row.drama_flips) else 0
            cells.append(f"{dramdig}/{drama}")
        cells.append(f"{row.dramdig_total}/{row.drama_total}")
        body.append(cells)
    table = render_table(headers, body)
    table += (
        "\n\n(values are DRAMDig/DRAMA bit flips per 5-minute test; "
        "paper totals: No.1 2051/1098, No.2 4863/1875, No.5 57/7)"
    )
    if failures:
        table += "\n\n" + render_failure_manifest(failures)
    return table
