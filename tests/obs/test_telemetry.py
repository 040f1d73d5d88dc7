"""Live telemetry bus: atomic appends, activation, stream determinism.

The determinism contracts pinned here mirror the trace ones in
``test_grid_trace.py``: the canonical view of a telemetry stream —
volatile bookkeeping stripped, events sorted — is identical whether the
cells ran serially or across worker processes, and a journal-resumed
run's cell events fold (cached → ok) to the same set a from-scratch run
emits.
"""

import json
import os

import pytest

from repro.evalsuite.figure2 import run_figure2
from repro.evalsuite.table1 import run_table1
from repro.ioutil import atomic_append
from repro.obs import telemetry
from repro.parallel import GridCell, run_cells


def _parity_cells(count):
    return [
        GridCell("repro.analysis.bits:parity", {"value": value})
        for value in range(count)
    ]


class TestAtomicAppend:
    def test_appends_whole_lines(self, tmp_path):
        target = tmp_path / "stream.jsonl"
        atomic_append(target, json.dumps({"kind": "a"}))
        atomic_append(target, json.dumps({"kind": "b"}))
        lines = target.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["a", "b"]

    def test_rejects_embedded_newlines(self, tmp_path):
        with pytest.raises(ValueError):
            atomic_append(tmp_path / "stream.jsonl", "two\nlines")


class TestBusActivation:
    def test_emit_without_bus_is_a_noop(self):
        assert telemetry.current_bus() is None
        telemetry.emit("cell", cell="x")  # must neither raise nor write

    def test_activation_nests_and_restores(self, tmp_path):
        outer = telemetry.TelemetryBus(tmp_path / "outer.jsonl")
        inner = telemetry.TelemetryBus(tmp_path / "inner.jsonl")
        with telemetry.activate_bus(outer):
            with telemetry.activate_bus(inner):
                assert telemetry.current_bus() is inner
                telemetry.emit("grid", cells=1)
            assert telemetry.current_bus() is outer
        assert telemetry.current_bus() is None
        assert [e["kind"] for e in telemetry.load_events(inner.path)] == ["grid"]
        assert telemetry.load_events(outer.path) == []

    def test_events_carry_bookkeeping_fields(self, tmp_path):
        bus = telemetry.TelemetryBus(tmp_path / "stream.jsonl", source="main")
        with telemetry.activate_bus(bus):
            telemetry.emit("cell", cell="No.1", status="ok")
        (event,) = telemetry.load_events(bus.path)
        assert event["kind"] == "cell"
        assert event["seq"] == 1
        assert event["pid"] == os.getpid()
        assert event["source"] == "main"
        assert event["wall"] > 0


class TestLoadEvents:
    def test_missing_file_is_empty(self, tmp_path):
        assert telemetry.load_events(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        target = tmp_path / "stream.jsonl"
        atomic_append(target, json.dumps({"kind": "ok"}))
        with open(target, "a", encoding="utf-8") as stream:
            stream.write('{"kind": "torn"')  # writer died mid-append
        assert [e["kind"] for e in telemetry.load_events(target)] == ["ok"]


class TestEta:
    def test_no_estimate_before_first_completion(self):
        assert telemetry.estimate_eta_s(10.0, 0, 5) is None

    def test_rate_extrapolation(self):
        assert telemetry.estimate_eta_s(10.0, 2, 6) == pytest.approx(20.0)

    def test_done_means_zero(self):
        assert telemetry.estimate_eta_s(10.0, 6, 6) == 0.0


class TestCanonicalEvents:
    def test_strips_volatile_fields_and_sorts(self):
        one = [
            {"kind": "cell", "cell": "b", "status": "ok", "total": 2,
             "seq": 1, "wall": 5.0, "pid": 1, "source": "main",
             "done": 1, "eta_s": 3.0},
            {"kind": "cell", "cell": "a", "status": "ok", "total": 2,
             "seq": 2, "wall": 9.0, "pid": 1, "source": "worker",
             "done": 2, "eta_s": 0.0},
        ]
        two = [
            {**event, "pid": 77, "seq": 9, "wall": 1.0, "done": 0}
            for event in reversed(one)
        ]
        assert telemetry.canonical_events(one) == telemetry.canonical_events(two)
        assert all(
            "wall" not in event and "done" not in event
            for event in telemetry.canonical_events(one)
        )

    def test_fold_cached_rewrites_status(self):
        events = [{"kind": "cell", "cell": "a", "status": "cached"}]
        (folded,) = telemetry.canonical_events(events, fold_cached=True)
        assert folded["status"] == "ok"
        (unfolded,) = telemetry.canonical_events(events)
        assert unfolded["status"] == "cached"


class TestRenderEvent:
    def test_known_kinds_render_their_fields(self):
        cell = {"kind": "cell", "wall": 0, "source": "main", "cell": "No.1",
                "status": "ok", "done": 1, "total": 4, "failed": 0,
                "cached": 0, "eta_s": 7.5}
        assert "cell No.1 ok (1/4" in telemetry.render_event(cell)
        assert "eta=7.5s" in telemetry.render_event(cell)
        wave = {"kind": "wave", "wall": 0, "source": "main", "wave": 2,
                "waves": 3, "confirmed": 4, "fallback": 1, "cold": 0,
                "failed_machines": 0, "store_entries": 2}
        assert "wave 2/3 folded" in telemetry.render_event(wave)
        generic = {"kind": "run-start", "wall": 0, "source": "main",
                   "command": "table1", "seed": 1}
        assert "run-start" in telemetry.render_event(generic)
        assert "command=table1" in telemetry.render_event(generic)


def _supervised_stream(tmp_path, name, cells, journal=None, jobs=None):
    path = tmp_path / name
    with telemetry.activate_bus(telemetry.TelemetryBus(path)):
        outcome = run_cells(cells, jobs=jobs, journal=journal)
    return path, outcome


def _cell_events(path):
    return [e for e in telemetry.load_events(path) if e["kind"] == "cell"]


class TestSupervisedStream:
    def test_progress_events_cover_every_cell(self, tmp_path):
        path, outcome = _supervised_stream(
            tmp_path, "serial.jsonl", _parity_cells(4)
        )
        assert outcome.complete
        events = telemetry.load_events(path)
        assert [e["kind"] for e in events][0] == "grid-start"
        cells = _cell_events(path)
        assert len(cells) == 4
        assert all(e["status"] == "ok" for e in cells)
        assert cells[-1]["done"] == 4
        assert cells[-1]["eta_s"] == 0.0

    def test_serial_and_pooled_streams_are_equivalent(self, tmp_path):
        serial_path, serial = _supervised_stream(
            tmp_path, "serial.jsonl", _parity_cells(6)
        )
        pooled_path, pooled = _supervised_stream(
            tmp_path, "pooled.jsonl", _parity_cells(6), jobs=2
        )
        assert serial.results == pooled.results
        assert telemetry.canonical_events(
            telemetry.load_events(serial_path)
        ) == telemetry.canonical_events(telemetry.load_events(pooled_path))

    def test_resumed_stream_folds_to_the_fresh_one(self, tmp_path):
        journal = str(tmp_path / "grid.journal")
        fresh_path, fresh = _supervised_stream(
            tmp_path, "fresh.jsonl", _parity_cells(4), journal=journal
        )
        resumed_path, resumed = _supervised_stream(
            tmp_path, "resumed.jsonl", _parity_cells(4), journal=journal
        )
        assert fresh.results == resumed.results
        resumed_cells = _cell_events(resumed_path)
        assert all(e["status"] == "cached" for e in resumed_cells)
        # Modulo the cached→ok fold and volatile fields, the resumed
        # run's cell events are the fresh run's cell events.
        assert telemetry.canonical_events(
            _cell_events(fresh_path), fold_cached=True
        ) == telemetry.canonical_events(resumed_cells, fold_cached=True)


class TestGridTelemetry:
    def test_worker_phase_events_reach_the_stream(self, tmp_path):
        path = tmp_path / "table1.jsonl"
        with telemetry.activate_bus(telemetry.TelemetryBus(path)):
            run_table1(seed=1, machines=("No.1",), determinism_runs=2, jobs=2)
        events = telemetry.load_events(path)
        kinds = {e["kind"] for e in events}
        assert "grid-start" in kinds
        phases = [e for e in events if e["kind"] == "phase"]
        assert phases
        assert all(e["source"] == "worker" for e in phases)
        assert all(e["pid"] != os.getpid() for e in phases)

    def test_unflagged_pooled_grid_streams_progress(self, tmp_path):
        path = tmp_path / "figure2.jsonl"
        machines = ("No.1", "No.4")
        with telemetry.activate_bus(telemetry.TelemetryBus(path)):
            run_figure2(seed=1, machines=machines, jobs=2)
        events = telemetry.load_events(path)
        starts = [e for e in events if e["kind"] == "grid-start"]
        assert [(e["experiment"], e["total"], e["resumed"]) for e in starts] == [
            ("figure2", 2, 0)
        ]
        cells = _cell_events(path)
        assert sorted(e["cell"] for e in cells) == list(machines)
        assert all(e["status"] == "ok" for e in cells)

    def test_streams_equivalent_across_jobs(self, tmp_path):
        def stream(jobs, name):
            path = tmp_path / name
            with telemetry.activate_bus(telemetry.TelemetryBus(path)):
                run_table1(
                    seed=1, machines=("No.1",), determinism_runs=2, jobs=jobs
                )
            return telemetry.load_events(path)

        serial = stream(None, "serial.jsonl")
        pooled = stream(2, "pooled.jsonl")
        assert telemetry.canonical_events(serial) == telemetry.canonical_events(
            pooled
        )

    def test_telemetry_does_not_change_results(self, tmp_path):
        from repro.evalsuite.table1 import render_table1

        plain = render_table1(
            run_table1(seed=1, machines=("No.1",), determinism_runs=2)
        )
        path = tmp_path / "stream.jsonl"
        with telemetry.activate_bus(telemetry.TelemetryBus(path)):
            streamed = render_table1(
                run_table1(seed=1, machines=("No.1",), determinism_runs=2)
            )
        assert streamed == plain
        assert telemetry.load_events(path)
