"""Persistent in-process phys↔DRAM translation service.

The blacksmith production pattern, made a service: once a machine's
mapping is recovered (or loaded from disk), :meth:`TranslationService.publish`
caches its compiled GF(2) matrix pair
(:attr:`AddressMapping.compiled <repro.dram.mapping.AddressMapping.compiled>`,
the one source of a :class:`~repro.dram.compiled.CompiledMapping`) under
the mapping's content fingerprint, and every subsequent query — single
address, million-address batch, "give me N same-bank addresses", "give
me aggressor sets" — is answered from the compiled form.

Keying reuses the checkpoint journal's content-fingerprint scheme
(:func:`repro.parallel.grid.fingerprint_payload`) over the serialised
mapping, so two machines share one cache entry exactly when they wire
the same mapping, and a key always resolves to the matrices of the
mapping published under it.

Accounting is double-booked deliberately: the service keeps its own
monotonic counters (``stats()``, always available, exact per instance)
*and* mirrors service behaviour into :mod:`repro.obs` metrics so traced
runs fold it into the same snapshot the rest of the pipeline uses. The
obs mirror is restricted to counters that are deterministic functions of
the workload regardless of process layout: the query stream
(``translation.phys_to_dram`` / ``translation.dram_to_phys``) and
registrations (``translation.registrations``). A registration's
hit-vs-miss split depends on which worker's process-local cache happened
to serve it — jobs=1 and jobs=N would disagree — so it is booked in
``stats()`` only, preserving the grid trace-determinism contract.

The query plane is where outside input enters, so it refuses addresses
and coordinates out of range with :class:`~repro.dram.errors.MappingError`:
the compiled kernels read only the bits below each limit and would
otherwise alias them silently to some in-range answer.
"""

from __future__ import annotations

import numpy as np

from repro.dram.compiled import CompiledMapping
from repro.dram.errors import MappingError
from repro.dram.mapping import AddressMapping, DramAddress
from repro.obs import tracing as obs
from repro.parallel.grid import fingerprint_payload

__all__ = [
    "TranslationService",
    "default_service",
    "mapping_fingerprint",
    "reset_default_service",
]


def mapping_fingerprint(mapping: AddressMapping) -> str:
    """Content fingerprint of a mapping (the journal scheme).

    Serialisation-stable: two mapping objects with equal geometry,
    functions and bit sets fingerprint identically regardless of how they
    were constructed.
    """
    from repro.dram.serialization import mapping_to_dict

    return fingerprint_payload("repro.service:mapping", mapping_to_dict(mapping))


def _check_range(what: str, values, limit: int, style: str = "d") -> None:
    """Refuse query input outside ``[0, limit)`` with a MappingError."""
    values = np.asarray(values)
    bad = values[(values < 0) | (values >= limit)]
    if bad.size:
        raise MappingError(
            f"{what} {int(bad.flat[0]):{style}} out of range "
            f"(0..{limit - 1:{style}})"
        )


def _check_coordinates(compiled: CompiledMapping, banks, rows, columns) -> None:
    _check_range("bank", banks, compiled.banks)
    _check_range("row", rows, compiled.rows)
    _check_range("column", columns, compiled.columns)


class TranslationService:
    """Caches compiled mappings and answers translation queries.

    One instance is meant to live as long as the process (see
    :func:`default_service`); workers in a grid each hold their own,
    and their :mod:`repro.obs` metric snapshots merge deterministically.
    """

    def __init__(self) -> None:
        self._cache: dict[str, CompiledMapping] = {}
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.encodes = 0

    # ------------------------------------------------------------ cache plane

    def __len__(self) -> int:
        return len(self._cache)

    def keys(self) -> tuple[str, ...]:
        """Fingerprints currently cached, insertion-ordered."""
        return tuple(self._cache)

    def publish(self, mapping: AddressMapping) -> str:
        """Cache ``mapping``'s compiled form; return its content fingerprint.

        Publishing an already-cached mapping is a hit and keeps the
        existing compiled form. Hit and miss are booked in ``stats()``
        only; :mod:`repro.obs` gets ``translation.registrations`` (see
        the module docstring).
        """
        key = mapping_fingerprint(mapping)
        if key in self._cache:
            self.hits += 1
        else:
            self.misses += 1
            self._cache[key] = mapping.compiled
        obs.inc("translation.registrations")
        return key

    def compiled(self, key: str) -> CompiledMapping:
        """The cached compiled mapping under ``key``.

        Raises:
            KeyError: when nothing is published under ``key``.
        """
        try:
            return self._cache[key]
        except KeyError:
            raise KeyError(
                f"no compiled mapping registered under {key[:12]}…; "
                "call publish() first"
            ) from None

    # ------------------------------------------------------------ query plane

    def translate(self, key: str, phys_addrs: np.ndarray):
        """Batched phys → (bank, row, column) under the cached mapping.

        Raises:
            MappingError: for an address outside the mapping's address space.
        """
        compiled = self.compiled(key)
        addrs = np.asarray(phys_addrs, dtype=np.uint64)
        _check_range("physical address", addrs, 1 << compiled.address_bits, "#x")
        self.translations += int(addrs.size)
        obs.inc("translation.phys_to_dram", int(addrs.size))
        return compiled.translate(addrs)

    def translate_one(self, key: str, phys_addr: int) -> DramAddress:
        """Single phys → DRAM translation (range-checked like
        :meth:`translate`)."""
        compiled = self.compiled(key)
        _check_range("physical address", phys_addr, 1 << compiled.address_bits, "#x")
        self.translations += 1
        obs.inc("translation.phys_to_dram")
        return compiled.translate_one(phys_addr)

    def encode(
        self,
        key: str,
        banks: np.ndarray,
        rows: np.ndarray,
        columns: np.ndarray,
    ) -> np.ndarray:
        """Batched (bank, row, column) → phys under the cached mapping.

        Raises:
            MappingError: for a bank, row or column at or above its count.
        """
        compiled = self.compiled(key)
        banks = np.asarray(banks, dtype=np.uint64)
        _check_coordinates(compiled, banks, rows, columns)
        self.encodes += int(banks.size)
        obs.inc("translation.dram_to_phys", int(banks.size))
        return compiled.encode(banks, rows, columns)

    def encode_one(self, key: str, address: DramAddress) -> int:
        """Single DRAM → phys translation (range-checked like
        :meth:`encode`)."""
        compiled = self.compiled(key)
        _check_coordinates(compiled, address.bank, address.row, address.column)
        self.encodes += 1
        obs.inc("translation.dram_to_phys")
        return compiled.encode_one(address)

    def same_bank_addresses(
        self, key: str, bank: int, count: int, column: int = 0
    ) -> np.ndarray:
        """``count`` same-bank physical addresses (see
        :meth:`CompiledMapping.same_bank_addresses`)."""
        addresses = self.compiled(key).same_bank_addresses(bank, count, column)
        self.encodes += int(addresses.size)
        obs.inc("translation.dram_to_phys", int(addresses.size))
        return addresses

    def adjacent_row_sets(
        self, key: str, bank: int, count: int, column: int = 0, stride: int = 3
    ):
        """``count`` double-sided aggressor sets (see
        :meth:`CompiledMapping.adjacent_row_sets`)."""
        sets = self.compiled(key).adjacent_row_sets(bank, count, column, stride)
        emitted = int(sum(part.size for part in sets))
        self.encodes += emitted
        obs.inc("translation.dram_to_phys", emitted)
        return sets

    # ------------------------------------------------------------- accounting

    def stats(self) -> dict:
        """Deterministic counter snapshot (JSON-ready)."""
        return {
            "cached_mappings": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "translations": self.translations,
            "encodes": self.encodes,
        }


_DEFAULT: TranslationService | None = None


def default_service() -> TranslationService:
    """The process-wide long-lived service instance (created lazily)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = TranslationService()
    return _DEFAULT


def reset_default_service() -> None:
    """Drop the process-wide instance (tests; fresh-state subprocesses)."""
    global _DEFAULT
    _DEFAULT = None
