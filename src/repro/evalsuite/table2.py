"""Experiment: Table II — reverse-engineered DRAM mappings on 9 machines.

For every machine preset, run DRAMDig against the simulated machine and
compare the recovered mapping to the ground truth: bank functions as a
GF(2) span, row and column bit sets exactly. The rendered table mirrors
the paper's columns (machine, microarchitecture, DRAM, Config., bank
address functions, row bits, column bits) plus a verification column the
paper implies by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bits import format_mask
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.mapping import _format_bit_ranges
from repro.dram.presets import TABLE2_ORDER, preset
from repro.evalsuite.reporting import render_failure_manifest, render_table
from repro.machine.machine import SimulatedMachine
from repro.parallel import (
    CellFailure,
    CheckpointJournal,
    GridCell,
    GridPolicy,
    run_cells,
)

__all__ = ["Table2Row", "run_table2", "render_table2"]


@dataclass
class Table2Row:
    """One machine's reverse-engineering outcome."""

    machine: str
    microarchitecture: str
    dram: str
    config_quadruple: tuple[int, int, int, int]
    bank_functions: tuple[int, ...]
    row_bits: tuple[int, ...]
    column_bits: tuple[int, ...]
    matches_ground_truth: bool
    seconds: float


def table2_machine_cell(
    name: str, seed: int, config: DramDigConfig | None
) -> Table2Row:
    """DRAMDig on one machine, scored against its ground truth.

    Pure function of its arguments (fresh machine, explicit seed) —
    grid-safe.
    """
    machine_preset = preset(name)
    machine = SimulatedMachine.from_preset(machine_preset, seed=seed)
    result = DramDig(config).run(machine)
    geometry = machine_preset.geometry
    return Table2Row(
        machine=name,
        microarchitecture=machine_preset.microarchitecture,
        dram=f"{geometry.generation}, {geometry.total_bytes // 2**30}GiB",
        config_quadruple=geometry.config_quadruple,
        bank_functions=result.mapping.bank_functions,
        row_bits=result.mapping.row_bits,
        column_bits=result.mapping.column_bits,
        matches_ground_truth=result.mapping.equivalent_to(machine_preset.mapping),
        seconds=result.total_seconds,
    )


def run_table2(
    seed: int = 1,
    machines: tuple[str, ...] = TABLE2_ORDER,
    config: DramDigConfig | None = None,
    jobs: int | None = None,
    supervision: GridPolicy | None = None,
    journal: CheckpointJournal | str | None = None,
) -> list[Table2Row | CellFailure]:
    """Run DRAMDig on every machine and score the recovered mappings.

    One grid cell per machine; ``jobs`` > 1 fans the cells out to worker
    processes with bit-identical results (ordered reassembly). The cells
    run under ``supervision`` (None = default policy) and checkpoint to
    ``journal`` when one is given; a failed machine's slot holds its
    :class:`~repro.parallel.CellFailure` and the renderer prints it as a
    ``FAILED(reason)`` row.
    """
    cells = [
        GridCell(
            "repro.evalsuite.table2:table2_machine_cell",
            {"name": name, "seed": seed, "config": config},
        )
        for name in machines
    ]
    return run_cells(
        cells, jobs=jobs, policy=supervision, journal=journal
    ).results


def render_table2(rows: list[Table2Row | CellFailure]) -> str:
    """Render in the paper's Table II layout.

    A failed cell renders as a ``FAILED(reason)`` row and a failure
    manifest is appended.
    """
    headers = [
        "Machine",
        "Microarch.",
        "DRAM",
        "Config.",
        "Bank Address Functions",
        "Row Bits",
        "Column Bits",
        "Matches truth",
    ]
    body = []
    failures = []
    for row in rows:
        if isinstance(row, CellFailure):
            failures.append(row)
            body.append(
                [row.label] + ["-"] * (len(headers) - 2) + [f"FAILED({row.reason})"]
            )
            continue
        functions = ", ".join(format_mask(mask) for mask in row.bank_functions)
        body.append(
            [
                row.machine,
                row.microarchitecture,
                row.dram,
                str(row.config_quadruple),
                functions,
                _format_bit_ranges(row.row_bits),
                _format_bit_ranges(row.column_bits),
                "yes" if row.matches_ground_truth else "NO",
            ]
        )
    table = render_table(headers, body)
    if failures:
        table += "\n\n" + render_failure_manifest(failures)
    return table
