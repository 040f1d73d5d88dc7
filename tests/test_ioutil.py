"""The JSONL record layer: one reader, one serializer, one bad-line policy
chosen by each caller, and refusal of files of another format."""

import json
import re
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.fleet.spec import family_mapping
from repro.fleet.store import KnowledgeStore
from repro.ioutil import RecordFileError, dump_records, parse_record, read_records
from repro.machine.sysinfo import SystemInfo
from repro.obs import telemetry
from repro.obs import tracing as obs
from repro.obs.export import export_trace, load_trace
from repro.parallel.journal import CheckpointJournal


def _lines(path):
    return path.read_bytes().splitlines()


class TestDumpRecords:
    def test_header_then_sorted_key_lines(self):
        text = dump_records({"version": 1, "format": "f"}, [{"b": 2, "a": 1}, {}])
        assert text == '{"format": "f", "version": 1}\n{"a": 1, "b": 2}\n{}\n'

    def test_round_trips_through_the_reader(self, tmp_path):
        path = tmp_path / "file.jsonl"
        records = [{"n": n, "text": "é "} for n in range(3)]
        path.write_text(dump_records({"format": "f", "version": 1}, records))
        read = list(read_records(path, "f", 1))
        assert [number for number, _ in read] == [1, 2, 3, 4]
        assert [record for _, record in read[1:]] == records


class TestParseRecord:
    @pytest.mark.parametrize(
        "line, reason",
        [('{"torn', "not valid JSON"), ("[1, 2]", "not an object"),
         ("5", "not an object"), ("null", "not an object"), ("", "not valid JSON")],
    )
    def test_names_why_a_line_is_not_a_record(self, line, reason):
        with pytest.raises(ValueError, match=reason):
            parse_record(line)

    def test_objects_parse(self):
        assert parse_record(' {"kind": "x"} ') == {"kind": "x"}


class TestReadRecords:
    def test_bad_lines_go_to_the_callback_in_line_order(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_bytes(b'{"a": 1}\n\n[1, 2]\n\xff\xfe\n{"a": 2}\n{"a"')
        bad = []
        records = list(read_records(path, on_bad_line=lambda *line: bad.append(line)))
        assert records == [(1, {"a": 1}), (5, {"a": 2})]
        assert bad == [(3, "not an object"), (4, "not valid JSON (truncated?)"),
                       (6, "not valid JSON (truncated?)")]

    def test_without_a_callback_bad_lines_are_dropped(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_bytes(b'null\n{"a": 1}\n')
        assert list(read_records(path)) == [(2, {"a": 1})]

    @pytest.mark.parametrize("content", [b"", b"\n  \n"])
    def test_an_empty_file_passes_the_header_rule(self, tmp_path, content):
        path = tmp_path / "file.jsonl"
        path.write_bytes(content)
        assert list(read_records(path, "f", 1)) == []

    @pytest.mark.parametrize(
        "first, message",
        [(b'{"format": "g", "version": 1}', "not a f file"),
         (b'{"format": "f", "version": 99}', "unsupported f version 99"),
         (b'{"version": 1}', "not a f file"),
         (b'{"kind": "run-start"}', "not a f file"),
         (b"hello", "not a f file"),
         (b"[1, 2]", "not a f file"),
         (b"\xff\xfe", "not a f file")],
    )
    def test_a_foreign_first_line_raises_before_any_record(self, tmp_path, first, message):
        path = tmp_path / "file.jsonl"
        path.write_bytes(b"\n" + first + b'\n{"format": "f", "version": 1}\n')
        records = read_records(path, "f", 1)
        with pytest.raises(RecordFileError, match=message):
            next(records)

    def test_a_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            next(read_records(tmp_path / "absent.jsonl"))


# --------------------------------------------------------- the four loaders


@dataclass(frozen=True)
class Loader:
    """One durable file kind: how to write two intact records, and how to
    load the file back as (records kept, degradation events)."""

    name: str
    write: Callable  # path -> None: a valid file with two records
    load: Callable  # path -> (kept, events)
    policy: str  # "lenient", "events" or "raise"


def _write_journal(path):
    journal = CheckpointJournal(path)
    journal.record("fp-1", "repro.x:y", 1)
    journal.record("fp-2", "repro.x:y", 2)


def _load_journal(path):
    journal = CheckpointJournal(path)
    return len(journal), journal.load_events


def _write_store(path):
    store = KnowledgeStore(path)
    for family in (1, 2):
        mapping = family_mapping(family)
        store.add(mapping, SystemInfo.from_geometry(mapping.geometry))
    store.save()


def _load_store(path):
    store = KnowledgeStore(path)
    return len(store), store.events


def _write_trace(path):
    tracer = obs.Tracer()
    with obs.activate(tracer):
        with obs.span("dramdig"):
            obs.inc("probe.pair_measurements", 3)
    export_trace(path, tracer, meta={"command": "run"})


def _load_trace(path):
    trace = load_trace(path)
    return len(trace.spans) + bool(trace.counters), []


def _write_stream(path):
    bus = telemetry.TelemetryBus(path)
    bus.emit("run-start")
    bus.emit("run-end", code=0)


LOADERS = [
    Loader("journal", _write_journal, _load_journal, "events"),
    Loader("store", _write_store, _load_store, "events"),
    Loader("trace", _write_trace, _load_trace, "raise"),
    Loader("telemetry", _write_stream,
           lambda path: (len(telemetry.load_events(path)), []), "lenient"),
]

# name -> (damage lines, whether they go last with no newline)
DAMAGE = {
    "torn-final-line": ([b'{"fingerprint": "fp-3", "res'], True),
    "garbled-bytes": ([b"\xff\xfe"], False),
    "json-array": ([b"[1, 2]"], False),
    "json-number": ([b"5"], False),
    "json-null": ([b"null"], False),
    "blank-lines": ([b"", b"  \t"], False),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.name)
def test_one_bad_line_policy(tmp_path, loader, damage):
    path = tmp_path / f"{loader.name}.jsonl"
    loader.write(path)
    intact, _ = loader.load(path)
    assert intact == 2

    lines = _lines(path)
    bad, last = DAMAGE[damage]
    if last:
        damaged = b"\n".join(lines + bad)  # the writer died mid-line
        first_bad = len(lines) + 1
    else:
        damaged = b"\n".join(lines[:-1] + bad + lines[-1:]) + b"\n"
        first_bad = len(lines)
    path.write_bytes(damaged)
    bad_lines = sum(bool(line.strip()) for line in bad)

    if loader.policy == "raise" and bad_lines:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{first_bad}: "):
            loader.load(path)
        return
    kept, events = loader.load(path)
    assert kept == intact
    if loader.policy == "events":
        assert len(events) == bad_lines
        for event in events:
            assert event.action == "skipped-record"
            assert event.detail.startswith(f"line {first_bad}: ")


# ------------------------------------------------- refusal of foreign files


def _write_header(format, version):
    header = {"format": format, "version": version}
    return lambda path: path.write_text(dump_records(header, []))


# Every kind of file a journal or store path might be handed by mistake.
WRITERS = {loader.name: loader.write for loader in LOADERS}
WRITERS.update({
    "journal-v99": _write_header("dramdig-grid-journal", 99),
    "store-v99": _write_header("dramdig-knowledge-store", 99),
    "text": lambda path: path.write_text("hello\n"),
})


@pytest.mark.parametrize(
    "kind", ["trace", "store", "telemetry", "journal-v99", "text"]
)
def test_journal_refuses_a_file_not_its_own(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    WRITERS[kind](path)
    before = path.read_bytes()
    with pytest.raises(RecordFileError, match="dramdig-grid-journal|journal version"):
        CheckpointJournal(path).record("fp-1", "repro.x:y", 1)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "kind", ["journal", "trace", "telemetry", "store-v99", "text"]
)
def test_store_refuses_a_file_not_its_own(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    WRITERS[kind](path)
    before = path.read_bytes()
    with pytest.raises(RecordFileError, match="dramdig-knowledge-store|store version"):
        KnowledgeStore(path).save()
    assert path.read_bytes() == before


def test_an_unreadable_store_still_starts_cold(tmp_path):
    store = KnowledgeStore(tmp_path)  # a directory: read_bytes raises OSError
    assert len(store) == 0
    assert [event.action for event in store.events] == ["unreadable"]


def test_an_empty_journal_file_is_adopted(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(b"")
    CheckpointJournal(path).record("fp-1", "repro.x:y", 1)
    header = json.loads(_lines(path)[0])
    assert header == {"format": "dramdig-grid-journal", "version": 1}
