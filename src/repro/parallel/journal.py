"""Checkpoint journal: crash-safe record of completed grid cells.

A journal is a JSONL file with one header line followed by one record
per completed cell, keyed by the cell's content fingerprint
(:func:`repro.parallel.grid.fingerprint_cell`). Results are pickled and
base64-encoded so arbitrary cell return values (dataclasses, tuples,
floats) round-trip *exactly* — the resume guarantee is byte-identical
artefacts, not approximately-equal ones.

Every flush rewrites the whole file through
:func:`repro.ioutil.atomic_write`, so a run SIGKILLed mid-write leaves
either the previous journal or the new one, never a torn line; a
journal holds one line per grid cell, so the rewrite costs
microseconds. Loading (:func:`repro.ioutil.read_records`) still drops a
damaged line (a hand edit, a copy taken mid-write), because that only
costs re-computing one cell, and records each drop as a
:class:`~repro.faults.recovery.DegradationEvent` in
:attr:`CheckpointJournal.load_events`, so a journal that shrank is told
apart from one never written. A non-empty file whose first line is not
the version-1 journal header raises :class:`~repro.ioutil.RecordFileError`
and is left untouched: the first checkpoint would otherwise destroy it.
"""

from __future__ import annotations

import base64
import pickle
from pathlib import Path

from repro.faults.recovery import DegradationEvent
from repro.ioutil import atomic_write, dump_records, read_records
from repro.logutil import get_logger

__all__ = ["CheckpointJournal", "JOURNAL_FORMAT", "JOURNAL_VERSION"]

_LOG = get_logger("repro.parallel.journal")

JOURNAL_FORMAT = "dramdig-grid-journal"
JOURNAL_VERSION = 1


class CheckpointJournal:
    """Fingerprint-keyed store of completed cell results.

    Args:
        path: journal file location. A missing file is an empty journal;
            the file is created on the first recorded cell.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self.load_events: list[DegradationEvent] = []
        if self.path.exists():
            self._load()

    def _skip(self, detail: str) -> None:
        """Drop one unusable journal line, loudly: the cell re-computes,
        but the operator can see the journal was damaged."""
        event = DegradationEvent(
            step="journal", action="skipped-record", detail=detail
        )
        self.load_events.append(event)
        _LOG.warning("checkpoint journal %s: %s", self.path, event.describe())

    def _load(self) -> None:
        records = read_records(
            self.path, JOURNAL_FORMAT, JOURNAL_VERSION,
            on_bad_line=lambda number, reason: self._skip(f"line {number}: {reason}"),
        )
        try:
            next(records, None)  # the header
        except OSError as error:
            self._skip(f"unreadable ({error}); starting empty")
            return
        for number, record in records:
            fingerprint = record.get("fingerprint")
            if isinstance(fingerprint, str) and "result" in record:
                self._records[fingerprint] = record
            else:
                self._skip(f"line {number}: missing fingerprint/result")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._records

    def lookup(self, fingerprint: str) -> tuple[bool, object]:
        """Return ``(hit, result)`` for a fingerprint.

        A record whose payload fails to unpickle (e.g. the codebase
        changed the result dataclass between runs) counts as a miss —
        the cell simply re-runs.
        """
        record = self._records.get(fingerprint)
        if record is None:
            return False, None
        try:
            result = pickle.loads(base64.b64decode(record["result"]))
        except Exception:
            return False, None
        return True, result

    def record(self, fingerprint: str, task: str, result: object) -> None:
        """Checkpoint one completed cell and flush the journal to disk."""
        if fingerprint in self._records:
            return
        self._records[fingerprint] = {
            "fingerprint": fingerprint,
            "task": task,
            "result": base64.b64encode(pickle.dumps(result)).decode("ascii"),
        }
        self._flush()

    def _flush(self) -> None:
        header = {"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION}
        atomic_write(self.path, dump_records(header, self._records.values()))
