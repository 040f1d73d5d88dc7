"""One-shot evaluation report: every paper artefact in a single document.

``dramdig report`` (or :func:`generate_report`) runs Table I, Table II,
Figure 2, Table III and the determinism study and renders them into one
markdown document — the reproduction's equivalent of the paper's Section
IV, regenerated from scratch on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.baselines.drama import DramaConfig
from repro.core.dramdig import DramDigConfig
from repro.dram.presets import TABLE2_ORDER
from repro.evalsuite.determinism import render_determinism, run_determinism
from repro.evalsuite.figure2 import render_figure2, run_figure2
from repro.evalsuite.table1 import render_table1, run_table1
from repro.evalsuite.table2 import render_table2, run_table2
from repro.evalsuite.table3 import TABLE3_MACHINES, render_table3, run_table3
from repro.ioutil import atomic_write
from repro.parallel import CheckpointJournal, GridPolicy
from repro.rowhammer.hammer import HammerConfig

__all__ = ["ReportConfig", "generate_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Scope knobs for a report run (defaults = the paper's full scale).

    Attributes:
        seed: machine seed for every experiment.
        machines: panel for Tables I/II and Figure 2.
        hammer_machines: panel for Table III.
        hammer_tests: timed tests per machine in Table III.
        determinism_runs: repeated runs in the determinism study.
        determinism_machine: machine for the determinism study.
        dramdig / drama / hammer: tool configs (None = defaults).
        jobs: worker processes for each experiment grid (None/1 = serial;
            results are bit-identical either way).
        supervision: grid policy for the experiment grids (None =
            :class:`~repro.parallel.GridPolicy` defaults). Failed cells
            render as ``FAILED(reason)`` entries instead of aborting the
            report.
        journal: checkpoint journal (instance or path) shared by the
            experiment grids; completed cells are skipped on ``--resume``.
    """

    seed: int = 1
    machines: tuple[str, ...] = TABLE2_ORDER
    hammer_machines: tuple[str, ...] = TABLE3_MACHINES
    hammer_tests: int = 5
    determinism_runs: int = 8
    determinism_machine: str = "No.1"
    dramdig: DramDigConfig | None = None
    drama: DramaConfig | None = None
    hammer: HammerConfig | None = None
    jobs: int | None = None
    supervision: GridPolicy | None = None
    journal: CheckpointJournal | str | None = None


def generate_report(
    config: ReportConfig | None = None, path: str | Path | None = None
) -> str:
    """Run every experiment and render the combined markdown report.

    Args:
        config: scope configuration (defaults to full paper scale).
        path: when given, the report is also written there.
    """
    config = config if config is not None else ReportConfig()
    # One journal instance shared across the experiment grids: the runs
    # are sequential and fingerprints are task-qualified, so a single
    # file checkpoints the whole report.
    journal = config.journal
    if isinstance(journal, (str, Path)):
        journal = CheckpointJournal(journal)
    sections = ["# DRAMDig reproduction — full evaluation report", ""]

    sections += [
        "## Table I — tool comparison (measured)",
        "",
        "```",
        render_table1(
            run_table1(
                seed=config.seed,
                machines=config.machines,
                drama_config=config.drama,
                jobs=config.jobs,
                supervision=config.supervision,
                journal=journal,
            )
        ),
        "```",
        "",
    ]

    sections += [
        "## Table II — uncovered mappings",
        "",
        "```",
        render_table2(
            run_table2(
                seed=config.seed,
                machines=config.machines,
                config=config.dramdig,
                jobs=config.jobs,
                supervision=config.supervision,
                journal=journal,
            )
        ),
        "```",
        "",
    ]

    sections += [
        "## Figure 2 — time costs",
        "",
        "```",
        render_figure2(
            run_figure2(
                seed=config.seed,
                machines=config.machines,
                dramdig_config=config.dramdig,
                drama_config=config.drama,
                jobs=config.jobs,
                supervision=config.supervision,
                journal=journal,
            )
        ),
        "```",
        "",
    ]

    sections += [
        "## Table III — double-sided rowhammer",
        "",
        "```",
        render_table3(
            run_table3(
                seed=config.seed,
                tests=config.hammer_tests,
                machines=config.hammer_machines,
                hammer_config=config.hammer,
                dramdig_config=config.dramdig,
                drama_config=config.drama,
                jobs=config.jobs,
                supervision=config.supervision,
                journal=journal,
            )
        ),
        "```",
        "",
    ]

    sections += [
        "## Determinism study",
        "",
        "```",
        render_determinism(
            run_determinism(
                machine_name=config.determinism_machine,
                runs=config.determinism_runs,
                seed=config.seed,
                dramdig_config=config.dramdig,
                drama_config=config.drama,
                jobs=config.jobs,
                supervision=config.supervision,
                journal=journal,
            )
        ),
        "```",
        "",
    ]

    report = "\n".join(sections)
    if path is not None:
        atomic_write(path, report)
    return report
