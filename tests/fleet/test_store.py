"""Knowledge store: persistence, self-healing load, candidate ranking."""

import json

import pytest

from repro.fleet.spec import family_mapping
from repro.fleet.store import (
    STORE_FORMAT,
    KnowledgeStore,
    StoreEntry,
    system_from_facts,
    system_to_facts,
)
from repro.ioutil import RecordFileError
from repro.machine.sysinfo import SystemInfo
from repro.service.translation import mapping_fingerprint


@pytest.fixture
def mapping():
    return family_mapping(1)


@pytest.fixture
def system(mapping):
    return SystemInfo.from_geometry(mapping.geometry)


class TestSystemFacts:
    def test_roundtrip(self, system):
        assert system_from_facts(system_to_facts(system)) == system

    def test_json_safe(self, system):
        json.dumps(system_to_facts(system))


class TestPersistence:
    def test_roundtrip(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        entry = store.add(mapping, system, source="m000")
        store.save()

        loaded = KnowledgeStore(path)
        assert len(loaded) == 1
        again = loaded.entries[entry.key]
        assert again.mapping.equivalent_to(mapping)
        assert again.system == system
        assert again.source == "m000"
        assert not loaded.events

    def test_missing_file_is_cold_start(self, tmp_path):
        store = KnowledgeStore(tmp_path / "never.jsonl")
        assert len(store) == 0
        assert not store.events

    def test_breaker_state_persists(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        entry = store.add(mapping, system)
        store.record_failure(entry.key)
        store.record_failure(entry.key)
        store.quarantine(entry.key)
        store.save()

        loaded = KnowledgeStore(path)
        again = loaded.entries[entry.key]
        assert again.streak == 2
        assert again.quarantined


class TestSelfHealingLoad:
    def test_truncated_trailing_line_dropped(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        store.add(mapping, system)
        store.save()
        raw = path.read_bytes()
        path.write_bytes(raw.rstrip(b"\n") + b'\n{"key": "half-a-reco')

        loaded = KnowledgeStore(path)
        assert len(loaded) == 1  # the intact record survives
        assert loaded.dropped_records == 1
        assert any("not valid JSON" in event.detail for event in loaded.events)

    def test_garbled_bytes_do_not_crash(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        store.add(mapping, system)
        store.save()
        path.write_bytes(path.read_bytes() + b"\xff\xfe\x00garbage\n")

        loaded = KnowledgeStore(path)
        assert len(loaded) == 1
        assert loaded.dropped_records >= 1

    def test_tampered_record_fails_integrity(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        store.add(mapping, system)
        store.save()
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["confirmations"] = 9999  # forge the track record
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        loaded = KnowledgeStore(path)
        assert len(loaded) == 0
        assert loaded.dropped_records == 1
        assert any("integrity" in event.detail for event in loaded.events)

    def test_invalid_mapping_claim_dropped(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        store.add(mapping, system)
        store.save()
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        # Break the bijection but keep the integrity fingerprint honest,
        # so only the mapping revalidation can catch it.
        record["mapping"]["bank_functions"][0] = record["mapping"]["bank_functions"][1]
        del record["integrity"]
        from repro.fleet.store import _integrity

        record["integrity"] = _integrity(record)
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        loaded = KnowledgeStore(path)
        assert len(loaded) == 0
        assert any("revalidation" in event.detail for event in loaded.events)

    def test_foreign_format_is_refused_and_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"format": "other-tool", "version": 9}) + "\n")
        before = path.read_bytes()
        with pytest.raises(RecordFileError, match="not a dramdig-knowledge-store"):
            KnowledgeStore(path)
        assert path.read_bytes() == before

    def test_header_format_constant(self, tmp_path, mapping, system):
        path = tmp_path / "store.jsonl"
        store = KnowledgeStore(path)
        store.add(mapping, system)
        store.save()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == STORE_FORMAT


class TestBaselineSnapshot:
    def test_reset_from_records_roundtrip(self, mapping, system):
        store = KnowledgeStore()
        entry = store.add(mapping, system, source="m001")
        records = store.to_records()

        other = KnowledgeStore()
        other.reset_from_records(records)
        assert len(other) == 1
        assert other.entries[entry.key].mapping.equivalent_to(mapping)


class TestMutation:
    def test_add_rehabilitates_quarantined(self, mapping, system):
        store = KnowledgeStore()
        entry = store.add(mapping, system)
        store.record_failure(entry.key)
        store.quarantine(entry.key)
        again = store.add(mapping, system)
        assert again is entry
        assert not entry.quarantined
        assert entry.streak == 0

    def test_confirmation_resets_streak(self, mapping, system):
        store = KnowledgeStore()
        entry = store.add(mapping, system)
        store.record_failure(entry.key)
        assert entry.streak == 1
        store.record_confirmation(entry.key)
        assert entry.streak == 0


class TestCandidates:
    def test_total_bytes_is_a_hard_gate(self, mapping, system):
        store = KnowledgeStore()
        store.add(mapping, system)
        other = family_mapping(2)
        query = SystemInfo.from_geometry(other.geometry)
        if query.total_bytes != system.total_bytes:
            assert store.candidates_for(query) == []

    def test_quarantined_never_offered(self, mapping, system):
        store = KnowledgeStore()
        entry = store.add(mapping, system)
        assert store.candidates_for(system)
        store.quarantine(entry.key)
        assert store.candidates_for(system) == []

    def test_ranking_prefers_similarity_then_confirmations(self, mapping, system):
        store = KnowledgeStore()
        first = store.add(mapping, system, source="a")
        # A second hypothesis with identical facts but a worse record.
        other = family_mapping(3)
        key = mapping_fingerprint(other)
        store.entries[key] = StoreEntry(
            key=key, mapping=other, system=system, confirmations=0
        )
        first.confirmations = 10
        ranked = store.candidates_for(system, limit=2, min_similarity=0.0)
        assert ranked[0] is first
