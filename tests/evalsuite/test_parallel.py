"""Tests for the parallel evaluation grid (repro.parallel).

The load-bearing property is **bit-identity**: running any evaluation
grid with ``jobs > 1`` must produce exactly the bytes the serial run
produces. The cross-process regression here renders Table I both ways
(spawn workers, fixed seeds) and compares the rendered strings.
"""

import logging
import os

import numpy as np
import pytest

from repro.evalsuite.figure2 import run_figure2
from repro.evalsuite.table1 import render_table1, run_table1
from repro.parallel import (
    CellExecutionError,
    GridCell,
    execute_cell,
    fingerprint_cell,
    resolve_jobs,
    run_cells,
)


class TestGridCell:
    def test_valid_task(self):
        cell = GridCell("repro.analysis.bits:parity", {"value": 6})
        assert cell.task == "repro.analysis.bits:parity"

    def test_missing_function_rejected(self):
        with pytest.raises(ValueError):
            GridCell("repro.analysis.bits")

    def test_module_outside_package_rejected(self):
        with pytest.raises(ValueError):
            GridCell("os:system", {"command": "true"})

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            GridCell("")

    def test_unpicklable_payload_names_the_offending_key(self):
        with pytest.raises(ValueError, match="payload key 'fn'"):
            GridCell(
                "repro.analysis.bits:parity",
                {"value": 6, "fn": lambda: None},
            )


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_is_serial(self):
        assert resolve_jobs(0) == 1

    def test_positive_passthrough_within_capacity(self):
        assert resolve_jobs(2) == 2

    def test_oversubscription_clamped_to_capacity(self, caplog):
        # Requests beyond the host's CPUs are clamped (floor 2, so a
        # multi-job request still gets a pool on a single-CPU host) and
        # the clamp is logged.
        limit = max(2, os.cpu_count() or 1)
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            assert resolve_jobs(limit + 5) == limit
        assert any("clamping --jobs" in record.message for record in caplog.records)

    def test_within_capacity_not_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            resolve_jobs(2)
        assert not caplog.records

    def test_negative_means_all_cpus(self):
        # -1 asks for the host's capacity: on a single-CPU machine that
        # is serial (1), never an oversubscribed pool.
        assert resolve_jobs(-1) == max(os.cpu_count() or 1, 1)

    def test_other_negatives_rejected(self):
        for bad in (-2, -8):
            with pytest.raises(ValueError, match="jobs must be positive"):
                resolve_jobs(bad)


class TestExecuteCell:
    def test_runs_named_function_with_payload(self):
        assert execute_cell(GridCell("repro.analysis.bits:parity", {"value": 0b111})) == 1

    def test_unknown_function_raises(self):
        with pytest.raises(AttributeError):
            execute_cell(GridCell("repro.analysis.bits:no_such_function"))

    def _raising_cell(self, tmp_path):
        return GridCell(
            "repro.faults.gridfaults:flaky_cell",
            {"scratch": str(tmp_path), "key": "boom", "fail_times": 99},
        )

    def test_cell_error_names_task_and_fingerprint(self, tmp_path):
        cell = self._raising_cell(tmp_path)
        with pytest.raises(CellExecutionError) as excinfo:
            execute_cell(cell)
        message = str(excinfo.value)
        assert cell.task in message
        assert fingerprint_cell(cell)[:12] in message
        assert "GridFaultError" in message

    def test_cell_error_surfaces_through_pool(self, tmp_path):
        cell = self._raising_cell(tmp_path)
        cells = [
            GridCell("repro.analysis.bits:parity", {"value": 1}),
            cell,
        ]
        outcome = run_cells(cells, jobs=2)
        assert outcome.results[0] == 1  # the neighbour's result is intact
        [failure] = outcome.failures
        assert failure.index == 1 and failure.reason == "error"
        assert cell.task in failure.detail
        assert fingerprint_cell(cell)[:12] in failure.detail


class TestRunCells:
    def test_serial_preserves_order(self):
        cells = [
            GridCell("repro.analysis.bits:parity", {"value": value})
            for value in (0b0, 0b1, 0b11, 0b111)
        ]
        assert run_cells(cells).results == [0, 1, 0, 1]

    def test_empty_input(self):
        assert run_cells([]).results == []

    def test_parallel_preserves_order(self):
        cells = [
            GridCell("repro.analysis.bits:parity", {"value": value})
            for value in range(8)
        ]
        assert run_cells(cells, jobs=4).results == [
            execute_cell(cell) for cell in cells
        ]


class TestCrossProcessIdentity:
    """Satellite regression: parallel grids are byte-identical to serial."""

    PANEL = ("No.1", "No.2")

    def test_table1_jobs4_byte_identical_to_serial(self):
        serial = render_table1(
            run_table1(seed=1, machines=self.PANEL, determinism_runs=2, jobs=1)
        )
        parallel = render_table1(
            run_table1(seed=1, machines=self.PANEL, determinism_runs=2, jobs=4)
        )
        assert parallel == serial

    def test_figure2_jobs2_matches_serial_exactly(self):
        serial = run_figure2(seed=1, machines=("No.1",))
        parallel = run_figure2(seed=1, machines=("No.1",), jobs=2)
        assert len(serial) == len(parallel) == 1
        assert serial[0] == parallel[0]
        # float equality is intentional: the cells must be bit-identical,
        # not merely close
        assert np.float64(serial[0].dramdig_seconds) == np.float64(
            parallel[0].dramdig_seconds
        )
