"""Micro-benchmarks of the library's hot primitives.

These are real pytest-benchmark measurements (many rounds), unlike the
table/figure regenerations which run once. They track the simulator's
throughput: address decode, timing-channel batch classification, GF(2)
algebra, and the partition inner loop.
"""

import numpy as np
import pytest

from repro.analysis import gf2
from repro.analysis.arrays import sorted_unique
from repro.analysis.bits import gather_xor, packed_parity_tables, parity_array
from repro.core.partition import partition_pool
from repro.core.probe import LatencyProbe, ProbeConfig
from repro.core.selection import select_addresses
from repro.dram.presets import preset
from repro.machine.machine import SimulatedMachine
from repro.memctrl.timing import NoiseParams


@pytest.fixture(scope="module")
def no1_machine():
    return SimulatedMachine.from_preset(
        preset("No.1"), seed=0, noise=NoiseParams.noiseless()
    )


@pytest.fixture(scope="module")
def address_pool():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**33, 16384, dtype=np.uint64)


def test_bench_bank_decode_batch(benchmark, no1_machine, address_pool):
    mapping = no1_machine.ground_truth
    result = benchmark(mapping.bank_of_array, address_pool)
    assert result.max() < 16


def test_bench_row_decode_batch(benchmark, no1_machine, address_pool):
    mapping = no1_machine.ground_truth
    result = benchmark(mapping.row_of_array, address_pool)
    assert result.max() < 2**16


def test_bench_packed_parity_gather(benchmark, no1_machine, address_pool):
    """The raw LUT primitive: all bank functions in one gather pass."""
    functions = no1_machine.ground_truth.bank_functions
    tables = packed_parity_tables(functions)

    def decode():
        return gather_xor(address_pool, tables)

    result = benchmark(decode)
    assert result.shape == address_pool.shape
    assert result.max() < 1 << len(functions)


def test_bench_packed_parity_table_build(benchmark, no1_machine):
    """Table construction cost (paid once per mapping, then cached)."""
    functions = no1_machine.ground_truth.bank_functions
    tables = benchmark(packed_parity_tables, functions)
    assert tables


def test_bench_parity_array(benchmark, address_pool):
    mask = (1 << 14) | (1 << 17)
    result = benchmark(parity_array, address_pool, mask)
    assert result.shape == address_pool.shape


def test_bench_latency_batch(benchmark, no1_machine, address_pool):
    base = int(address_pool[0])
    latencies = benchmark(
        no1_machine.measure_latency_batch, base, address_pool[:8192]
    )
    assert latencies.shape == (8192,)


def test_bench_gf2_nullspace(benchmark):
    rng = np.random.default_rng(1)
    rows = [int(value) for value in rng.integers(1, 2**14, 200, dtype=np.uint64)]

    def solve():
        return gf2.nullspace_basis(gf2.row_echelon(rows), 14)

    basis = benchmark(solve)
    assert len(basis) == 14 - gf2.rank(rows)


def test_bench_gf2_span_equal(benchmark):
    functions = preset("No.6").mapping.bank_functions

    def check():
        return gf2.span_equal(functions, functions)

    assert benchmark(check)


def test_bench_partition_no8(benchmark):
    """The paper's dominant cost: Algorithm 2 on a 256-address pool."""

    def run():
        machine = SimulatedMachine.from_preset(
            preset("No.8"), seed=0, noise=NoiseParams.noiseless()
        )
        pages = machine.allocate(int(machine.total_bytes * 0.85), "contiguous")
        probe = LatencyProbe(machine, ProbeConfig(rounds=100, calibration_pairs=768))
        probe.calibrate(pages, np.random.default_rng(0))
        selection = select_addresses(
            pages, (6, 13, 14, 15, 16, 17, 18, 19)
        )
        return partition_pool(probe, selection.pool, 16, np.random.default_rng(0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.pile_count >= 13


def test_bench_partition_large_pool(benchmark):
    """Algorithm 2 on a 4096-address pool — the large-pool regime the
    paper hits on No.6/No.9 (~16k addresses) and the workload the
    dedup/decode optimisations target. The pool tiles the No.8 selection
    with column-only offsets (bits 7-10 cleared then ORed back in), which
    multiplies the pool 16x without disturbing any bank or row bit."""
    machine = SimulatedMachine.from_preset(
        preset("No.8"), seed=0, noise=NoiseParams.noiseless()
    )
    pages = machine.allocate(int(machine.total_bytes * 0.85), "contiguous")
    probe = LatencyProbe(machine, ProbeConfig(rounds=100, calibration_pairs=768))
    probe.calibrate(pages, np.random.default_rng(0))
    base_pool = select_addresses(pages, (6, 13, 14, 15, 16, 17, 18, 19)).pool
    cleared = base_pool & np.uint64(~0x780 & (2**64 - 1))
    pool = sorted_unique(
        np.concatenate([cleared | np.uint64(k << 7) for k in range(16)])
    )
    assert pool.size == 4096

    def run():
        return partition_pool(probe, pool, 16, np.random.default_rng(0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.pile_count == 16


def test_bench_sorted_unique_large_pool(benchmark):
    """Pool dedup on an allocator-sized array (the np.unique replacement)."""
    rng = np.random.default_rng(6)
    values = rng.integers(0, 2**24, 1 << 20, dtype=np.uint64)
    result = benchmark(sorted_unique, values)
    assert result.size <= values.size
    assert (np.diff(result.astype(np.int64)) > 0).all()
