"""Fleet-scale reverse engineering with a shared knowledge store.

DRAMDig reverse-engineers one machine at a time; a production deployment
faces thousands of heterogeneous machines at once. This package runs
DRAMDig across large *simulated* fleets (randomized presets +
:mod:`repro.dram.random_mapping`) on top of the existing supervised grid
runner, with a persistent cross-machine knowledge store: mappings
learned on one machine become priors on lookalike machines, which probe
only to *confirm* a cached hypothesis and fall back to the full search
on mismatch.

The robustness core is the **confirm-or-fallback protocol**:

* :mod:`repro.fleet.similarity` ranks cached hypotheses by
  :class:`~repro.machine.sysinfo.SystemInfo` similarity;
* :mod:`repro.fleet.confirm` runs a cheap vectorized probe campaign that
  checks the believed conflict structure against measured latencies;
* :mod:`repro.fleet.breaker` quarantines hypotheses that keep failing
  confirmation, so a poisoned or stale prior stops taxing the fleet;
* :mod:`repro.fleet.store` survives truncated, garbled or hand-edited
  store files by dropping the bad records (with
  :class:`~repro.faults.recovery.DegradationEvent`\\ s) and degrading to
  cold-start instead of crashing the run.

``dramdig fleet run`` on the CLI drives
:func:`repro.fleet.orchestrator.run_fleet`, which also produces the
fleet's scaling curve.
"""

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.confirm import ConfirmConfig, ConfirmOutcome, run_confirmation
from repro.fleet.orchestrator import (
    FleetConfig,
    FleetOutcome,
    render_fleet,
    run_fleet,
)
from repro.fleet.runner import CandidateVerdict, FleetMachineResult, run_fleet_cell
from repro.fleet.similarity import system_similarity
from repro.fleet.spec import (
    MachineSpec,
    adversarial_fleet,
    family_mapping,
    lookalike_fleet,
    materialize_mapping,
)
from repro.fleet.store import KnowledgeStore, StoreEntry

__all__ = [
    "CandidateVerdict",
    "CircuitBreaker",
    "ConfirmConfig",
    "ConfirmOutcome",
    "FleetConfig",
    "FleetMachineResult",
    "FleetOutcome",
    "KnowledgeStore",
    "MachineSpec",
    "StoreEntry",
    "adversarial_fleet",
    "family_mapping",
    "lookalike_fleet",
    "materialize_mapping",
    "render_fleet",
    "run_confirmation",
    "run_fleet",
    "run_fleet_cell",
    "system_similarity",
]
