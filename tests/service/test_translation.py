"""Tests for the caching phys↔DRAM translation service."""

import numpy as np
import pytest

from repro.dram.errors import MappingError
from repro.dram.mapping import DramAddress
from repro.dram.presets import preset
from repro.dram.random_mapping import random_mapping
from repro.obs import tracing as obs
from repro.service.translation import (
    TranslationService,
    default_service,
    mapping_fingerprint,
    reset_default_service,
)


@pytest.fixture()
def service():
    return TranslationService()


class TestCachePlane:
    def test_publish_compiles_once_then_hits(self, service):
        mapping = preset("No.1").mapping
        key = service.publish(mapping)
        assert key == mapping_fingerprint(mapping)
        assert service.stats()["misses"] == 1
        assert service.publish(mapping) == key
        assert service.stats() == {
            "cached_mappings": 1,
            "hits": 1,
            "misses": 1,
            "translations": 0,
            "encodes": 0,
        }

    def test_mapping_fingerprint_is_content_based(self):
        from repro.dram.serialization import mapping_from_dict, mapping_to_dict

        mapping = preset("No.2").mapping
        rebuilt = mapping_from_dict(mapping_to_dict(mapping))
        assert mapping is not rebuilt
        assert mapping_fingerprint(mapping) == mapping_fingerprint(rebuilt)

    def test_different_mappings_get_different_keys(self, service):
        rng = np.random.default_rng(5)
        keys = {service.publish(random_mapping(rng)) for _ in range(5)}
        assert len(keys) == 5
        assert len(service) == 5

    def test_unknown_key_raises_helpful_keyerror(self, service):
        with pytest.raises(KeyError, match="register"):
            service.compiled("0" * 64)

    def test_default_service_is_a_singleton(self):
        reset_default_service()
        try:
            assert default_service() is default_service()
        finally:
            reset_default_service()


class TestQueryPlane:
    def test_translate_and_encode_roundtrip(self, service):
        mapping = preset("No.2").mapping
        key = service.publish(mapping)
        pool = np.random.default_rng(0).integers(
            0, 1 << mapping.geometry.address_bits, 512, dtype=np.uint64
        )
        banks, rows, columns = service.translate(key, pool)
        assert np.array_equal(service.encode(key, banks, rows, columns), pool)
        stats = service.stats()
        assert stats["translations"] == 512
        assert stats["encodes"] == 512

    def test_scalar_queries(self, service):
        mapping = preset("No.1").mapping
        key = service.publish(mapping)
        address = service.translate_one(key, 0x1234567)
        assert address == mapping.dram_address(0x1234567)
        assert service.encode_one(key, address) == 0x1234567
        assert service.stats()["translations"] == 1
        assert service.stats()["encodes"] == 1

    def test_generator_queries_count_as_encodes(self, service):
        key = service.publish(preset("No.1").mapping)
        addrs = service.same_bank_addresses(key, bank=1, count=10)
        assert addrs.size == 10
        victims, above, below = service.adjacent_row_sets(key, bank=1, count=4)
        assert victims.size == above.size == below.size == 4
        assert service.stats()["encodes"] == 10 + 12

    def test_out_of_range_input_refused(self, service):
        """The compiled kernels read only the bits below each limit, so
        the query plane refuses what they would alias."""
        mapping = preset("No.1").mapping
        key = service.publish(mapping)
        compiled = service.compiled(key)
        top = 1 << mapping.geometry.address_bits
        with pytest.raises(MappingError, match="physical address"):
            service.translate(key, np.array([0, top], dtype=np.uint64))
        with pytest.raises(MappingError, match="physical address"):
            service.translate_one(key, top)
        for coordinates in (
            (compiled.banks, 0, 0),
            (0, compiled.rows, 0),
            (0, 0, compiled.columns),
            (0, -1, 0),
        ):
            with pytest.raises(MappingError, match="out of range"):
                service.encode(key, *(np.array([value]) for value in coordinates))
            with pytest.raises(MappingError, match="out of range"):
                service.encode_one(key, DramAddress(*coordinates))
        with pytest.raises(MappingError, match="column"):
            service.same_bank_addresses(key, bank=2, count=1, column=compiled.columns)
        assert service.stats()["translations"] == service.stats()["encodes"] == 0


class TestMetricsDeterminism:
    """Service accounting must be a deterministic function of the query
    stream, independent of how per-worker snapshots merge (jobs=1 vs N)."""

    @staticmethod
    def _query_stream(service, key, chunk):
        banks, rows, columns = service.translate(key, chunk)
        service.encode(key, banks, rows, columns)

    def test_obs_metrics_mirror_counters(self):
        mapping = preset("No.1").mapping
        tracer = obs.Tracer()
        with obs.activate(tracer):
            service = TranslationService()
            key = service.publish(mapping)
            service.publish(mapping)
            pool = np.arange(100, dtype=np.uint64)
            self._query_stream(service, key, pool)
        snapshot = tracer.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["translation.registrations"] == 2
        assert counters["translation.phys_to_dram"] == 100
        assert counters["translation.dram_to_phys"] == 100

    def test_merge_order_independence(self):
        """Per-worker snapshots merged in any order give equal totals —
        the property that makes jobs=1 and jobs=N traces agree."""
        mapping = preset("No.2").mapping
        chunks = [
            np.arange(start, start + 50, dtype=np.uint64) for start in range(0, 200, 50)
        ]

        def worker_snapshot(chunk):
            tracer = obs.Tracer()
            with obs.activate(tracer):
                service = TranslationService()
                key = service.publish(mapping)
                self._query_stream(service, key, chunk)
            return tracer.metrics.snapshot()

        snapshots = [worker_snapshot(chunk) for chunk in chunks]

        def merged(order):
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            for index in order:
                registry.merge_snapshot(snapshots[index])
            return registry.snapshot()

        forward = merged(range(len(snapshots)))
        backward = merged(reversed(range(len(snapshots))))
        assert forward == backward
        assert forward["counters"]["translation.phys_to_dram"] == 200

        # And the serial (jobs=1) equivalent: one service consuming the
        # same stream produces the same query totals.
        tracer = obs.Tracer()
        with obs.activate(tracer):
            service = TranslationService()
            key = service.publish(mapping)
            for chunk in chunks:
                self._query_stream(service, key, chunk)
        serial = tracer.metrics.snapshot()["counters"]
        assert serial["translation.phys_to_dram"] == 200
        assert serial["translation.dram_to_phys"] == 200
        # Compile totals differ (one per worker vs one serial) by design;
        # the query-stream totals are the deterministic contract.
        assert (
            forward["counters"]["translation.dram_to_phys"]
            == serial["translation.dram_to_phys"]
        )

    def test_publish_traces_only_layout_deterministic_counter(self):
        """publish() books hit/miss in stats() but mirrors only
        translation.registrations into obs — the hit/miss split depends
        on process-local cache history, so serial and multi-worker grid
        traces would disagree if it were mirrored."""
        mapping = preset("No.1").mapping
        tracer = obs.Tracer()
        with obs.activate(tracer):
            service = TranslationService()
            first = service.publish(mapping)
            second = service.publish(mapping)
        assert first == second
        assert service.stats()["misses"] == 1
        assert service.stats()["hits"] == 1
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["translation.registrations"] == 2
        for layout_dependent in (
            "translation.cache_hits",
            "translation.cache_misses",
            "translation.compiles",
        ):
            assert layout_dependent not in counters

    def test_untraced_service_still_counts(self):
        service = TranslationService()
        key = service.publish(preset("No.1").mapping)
        service.translate(key, np.arange(10, dtype=np.uint64))
        assert service.stats()["translations"] == 10


class TestPipelineRegistration:
    def test_dramdig_registers_recovered_mapping(self):
        from repro.core.dramdig import DramDig
        from repro.machine.machine import SimulatedMachine

        reset_default_service()
        try:
            machine = SimulatedMachine.from_preset(preset("No.4"), seed=1)
            result = DramDig().run(machine)
            assert result.translation_key
            service = default_service()
            compiled = service.compiled(result.translation_key)
            assert compiled is result.compiled
            assert compiled is result.mapping.compiled
            assert result.translation_key == mapping_fingerprint(result.mapping)
            # keyed by content: a rerun that recovers the same mapping hits
            before = service.stats()["hits"]
            machine2 = SimulatedMachine.from_preset(preset("No.4"), seed=2)
            result2 = DramDig().run(machine2)
            assert result2.translation_key == result.translation_key
            assert service.stats()["hits"] == before + 1
        finally:
            reset_default_service()

    def test_equal_systeminfo_different_mappings_get_their_own_keys(self):
        """Machines that report one SystemInfo but wire different mappings
        (the fleet's adversarial imposters) must not share a cache entry:
        each result's key resolves to its own mapping's compiled form."""
        from repro.core.dramdig import DramDig
        from repro.machine.machine import SimulatedMachine

        geometry = preset("No.1").mapping.geometry
        rng = np.random.default_rng(3)
        first, second = (random_mapping(rng, geometry) for _ in range(2))
        assert not first.equivalent_to(second)
        machines = [SimulatedMachine(mapping, seed=1) for mapping in (first, second)]
        assert machines[0].sysinfo() == machines[1].sysinfo()
        reset_default_service()
        try:
            results = [DramDig().run(machine) for machine in machines]
            assert results[0].translation_key != results[1].translation_key
            service = default_service()
            for result in results:
                compiled = service.compiled(result.translation_key)
                assert compiled == result.mapping.compiled
        finally:
            reset_default_service()
