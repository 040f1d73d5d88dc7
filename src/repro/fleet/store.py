"""The self-healing cross-machine knowledge store.

A JSONL file (one header line + one record per known mapping) holding
everything a fleet run learns: the mapping itself (``dramdig-mapping-v1``
payload), the :class:`~repro.machine.sysinfo.SystemInfo` facts of the
machine it was learned on, and the hypothesis's confirmation track record
(the circuit-breaker state, persisted so quarantine survives restarts).
The compiled GF(2) form is not stored: a consumer compiles the loaded
mapping (``mapping.compiled``). Records written with a ``compiled`` key
by earlier versions still pass their integrity check (it hashes whatever
keys a record holds) and lose the key at the next save.

Every save rewrites the whole file through
:func:`repro.ioutil.atomic_write`, so a SIGKILLed fleet run leaves either
the previous complete store or the new one.

The store is an *input from the outside world* (an operator may rsync
it between machines, hand-edit it, or feed a run a poisoned copy), so
loading (:func:`repro.ioutil.read_records`) trusts nothing: a record
that is torn, garbled or fails its content fingerprint is dropped, a
mapping claim that :func:`repro.dram.serialization.mapping_from_dict`
cannot re-validate into a bijection is dropped, and an unreadable file
degrades to a cold start. Each of these is a
:class:`~repro.faults.recovery.DegradationEvent` in
:attr:`KnowledgeStore.events`, logged, never raised: a corrupt store
must cost re-learning, not the fleet run. A non-empty file whose first
line is not the version-1 store header (a grid journal, a trace) raises
:class:`~repro.ioutil.RecordFileError` instead and is left untouched:
the next save would otherwise overwrite it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.dram.mapping import AddressMapping
from repro.dram.serialization import mapping_from_dict, mapping_to_dict
from repro.dram.spec import DdrGeneration
from repro.faults.recovery import DegradationEvent
from repro.ioutil import atomic_write, dump_records, read_records
from repro.logutil import get_logger
from repro.machine.sysinfo import SystemInfo
from repro.parallel.grid import fingerprint_payload
from repro.service.translation import mapping_fingerprint

__all__ = [
    "KnowledgeStore",
    "StoreEntry",
    "STORE_FORMAT",
    "STORE_VERSION",
    "system_from_facts",
    "system_to_facts",
]

STORE_FORMAT = "dramdig-knowledge-store"
STORE_VERSION = 1

_LOG = get_logger("repro.fleet.store")


def system_to_facts(info: SystemInfo) -> dict:
    """JSON-safe dict of the SystemInfo facts (generation as its name)."""
    return {
        "generation": str(info.generation),
        "total_bytes": info.total_bytes,
        "channels": info.channels,
        "dimms_per_channel": info.dimms_per_channel,
        "ranks_per_dimm": info.ranks_per_dimm,
        "banks_per_rank": info.banks_per_rank,
        "ecc": bool(info.ecc),
    }


def system_from_facts(facts: dict) -> SystemInfo:
    """Rebuild SystemInfo from its stored facts (raises on bad input)."""
    return SystemInfo(
        generation=DdrGeneration(facts["generation"]),
        total_bytes=int(facts["total_bytes"]),
        channels=int(facts["channels"]),
        dimms_per_channel=int(facts["dimms_per_channel"]),
        ranks_per_dimm=int(facts["ranks_per_dimm"]),
        banks_per_rank=int(facts["banks_per_rank"]),
        ecc=bool(facts["ecc"]),
    )


@dataclass
class StoreEntry:
    """One cached hypothesis and its confirmation track record.

    Attributes:
        key: the mapping's content fingerprint (the store's identity).
        mapping: the re-validated mapping claim.
        system: facts of the machine the mapping was learned on.
        confirmations / failures: lifetime confirmation outcomes.
        streak: consecutive confirmation failures (circuit-breaker fuel).
        quarantined: tripped breaker — never offered as a candidate.
        source: machine id that contributed the mapping.
    """

    key: str
    mapping: AddressMapping
    system: SystemInfo
    confirmations: int = 0
    failures: int = 0
    streak: int = 0
    quarantined: bool = False
    source: str = ""

    def to_record(self) -> dict:
        body = {
            "key": self.key,
            "mapping": mapping_to_dict(self.mapping),
            "system": system_to_facts(self.system),
            "confirmations": self.confirmations,
            "failures": self.failures,
            "streak": self.streak,
            "quarantined": self.quarantined,
            "source": self.source,
        }
        body["integrity"] = _integrity(body)
        return body

    @classmethod
    def from_record(cls, record: dict) -> "StoreEntry":
        mapping = mapping_from_dict(record["mapping"])
        return cls(
            key=str(record["key"]),
            mapping=mapping,
            system=system_from_facts(record["system"]),
            confirmations=int(record.get("confirmations", 0)),
            failures=int(record.get("failures", 0)),
            streak=int(record.get("streak", 0)),
            quarantined=bool(record.get("quarantined", False)),
            source=str(record.get("source", "")),
        )


def _integrity(body: dict) -> str:
    """Content fingerprint over a record body (minus the checksum itself)."""
    visible = {key: value for key, value in body.items() if key != "integrity"}
    return fingerprint_payload("repro.fleet:store-entry", visible)


class KnowledgeStore:
    """Fingerprint-keyed hypothesis store with degrade-don't-crash loading.

    Args:
        path: store file; None keeps the store purely in memory (the
            orchestrator's replay-deterministic working copy).
    """

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)
        self.entries: dict[str, StoreEntry] = {}
        self.events: list[DegradationEvent] = []
        self.dropped_records = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -------------------------------------------------------------- loading

    def _degrade(self, action: str, detail: str) -> None:
        self.dropped_records += 1
        event = DegradationEvent(step="knowledge-store", action=action, detail=detail)
        self.events.append(event)
        _LOG.warning("knowledge store: %s", event.describe())

    def _skip(self, number: int, reason: str) -> None:
        self._degrade("skipped-record", f"line {number}: {reason}")

    def _load(self) -> None:
        records = read_records(
            self.path, STORE_FORMAT, STORE_VERSION, on_bad_line=self._skip
        )
        try:
            next(records, None)  # the header
        except OSError as error:
            self._degrade("unreadable", f"{self.path}: {error}; cold start")
            return
        for number, record in records:
            if record.get("integrity") != _integrity(record):
                self._skip(number, "integrity check failed")
                continue
            try:
                entry = StoreEntry.from_record(record)
            except Exception as error:  # revalidation is the whole point
                self._skip(number, f"mapping failed revalidation ({error})")
                continue
            self.entries[entry.key] = entry

    # ----------------------------------------------------------- persistence

    def save(self) -> None:
        """Atomically rewrite the store file (no-op for in-memory stores)."""
        if self.path is None:
            return
        header = {"format": STORE_FORMAT, "version": STORE_VERSION}
        atomic_write(self.path, dump_records(header, self.to_records()))

    def to_records(self) -> list[dict]:
        """All entries as JSON-safe records (the journal baseline form)."""
        return [entry.to_record() for entry in self.entries.values()]

    def reset_from_records(self, records: list[dict]) -> None:
        """Replace the in-memory state with a baseline snapshot.

        Used on resume: the orchestrator journals the store state the
        interrupted run started from, so a replayed run offers byte-wise
        identical candidate lists regardless of what the killed run
        managed to persist. Records that fail validation are dropped
        with an event, same as a file load.
        """
        self.entries.clear()
        for record in records:
            try:
                entry = StoreEntry.from_record(record)
            except Exception as error:
                self._degrade("skipped-record", f"baseline record: {error}")
                continue
            self.entries[entry.key] = entry

    # ------------------------------------------------------------- mutation

    def __len__(self) -> int:
        return len(self.entries)

    def add(
        self,
        mapping: AddressMapping,
        system: SystemInfo,
        source: str = "",
    ) -> StoreEntry:
        """Record a freshly learned mapping (or re-learn an existing one).

        Re-learning a quarantined hypothesis through a *full search*
        rehabilitates it: the search just proved the mapping real on
        some machine, so the quarantine was collateral of lookalikes
        that merely resembled it.
        """
        key = mapping_fingerprint(mapping)
        entry = self.entries.get(key)
        if entry is None:
            entry = StoreEntry(key=key, mapping=mapping, system=system, source=source)
            self.entries[key] = entry
        else:
            entry.streak = 0
            entry.quarantined = False
        entry.confirmations += 1
        return entry

    def record_confirmation(self, key: str) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry.confirmations += 1
            entry.streak = 0

    def record_failure(self, key: str) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry.failures += 1
            entry.streak += 1

    def quarantine(self, key: str) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry.quarantined = True

    # ------------------------------------------------------------ selection

    def candidates_for(
        self,
        system: SystemInfo,
        limit: int = 3,
        min_similarity: float = 0.5,
    ) -> list[StoreEntry]:
        """Best-matching live hypotheses for a machine, most similar first.

        Exact ``total_bytes`` agreement is a hard gate (a mapping for a
        different address width cannot be decoded against this machine);
        quarantined entries are never offered. Ties break on
        confirmation count (success history), then on key, so selection
        is deterministic and replayable.
        """
        from repro.fleet.similarity import system_similarity

        scored = []
        for entry in self.entries.values():
            if entry.quarantined:
                continue
            if entry.system.total_bytes != system.total_bytes:
                continue
            score = system_similarity(entry.system, system)
            if score >= min_similarity:
                scored.append((score, entry))
        scored.sort(key=lambda pair: (-pair[0], -pair[1].confirmations, pair[1].key))
        return [entry for _, entry in scored[:limit]]
