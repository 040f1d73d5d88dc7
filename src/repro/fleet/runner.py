"""The per-machine fleet worker: confirm a cached hypothesis or fall back.

One grid cell == one machine. The payload carries everything the worker
needs — the machine's display ``name`` (its id), the
:class:`~repro.fleet.spec.MachineSpec` (pure seeds), the shortlisted
knowledge-store candidates (key + mapping payload, as JSON-safe dicts),
and the :class:`~repro.fleet.confirm.ConfirmConfig` — so the cell is a
pure function of its payload: the checkpoint journal can cache it by
content fingerprint, and serial and multi-worker runs produce identical
results and identical ``fleet.*`` metrics.

The protocol per machine:

1. try each candidate in similarity order with a cheap confirmation
   campaign (:func:`~repro.fleet.confirm.run_confirmation`);
2. first confirmed candidate wins;
3. no survivor → full DRAMDig search (outcome ``"fallback"`` when
   candidates were offered and all rejected, ``"cold"`` when the store
   had nothing for this machine).

Correctness is always scored against the machine's ground truth — the
whole point of confirm-or-fallback is that a poisoned prior may cost
probes but can never cost a wrong mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.belief import BeliefMapping
from repro.dram.serialization import mapping_from_dict, mapping_to_dict
from repro.fleet.confirm import ConfirmConfig, run_confirmation
from repro.fleet.spec import MachineSpec, materialize_mapping
from repro.fleet.store import system_to_facts
from repro.machine.machine import SimulatedMachine
from repro.obs import tracing as obs

__all__ = ["CandidateVerdict", "FleetMachineResult", "run_fleet_cell"]


@dataclass(frozen=True)
class CandidateVerdict:
    """One candidate hypothesis's confirmation verdict on one machine.

    Attributes:
        key: the hypothesis's knowledge-store key (mapping fingerprint).
        confirmed: the candidate survived the campaign.
        agreement: ranked agreement achieved (0.0 for invalid claims).
        probes: pair measurements the campaign spent.
        reason: ``"confirmed"``, ``"disagreement"``, ``"plan-failed"`` or
            ``"invalid"`` (the mapping payload failed revalidation).
    """

    key: str
    confirmed: bool
    agreement: float
    probes: int
    reason: str


@dataclass
class FleetMachineResult:
    """Everything the orchestrator needs back from one fleet machine.

    JSON/pickle-safe by construction (dicts, not mapping objects): it
    crosses the worker boundary and is cached by the checkpoint journal.

    Attributes:
        machine_id / kind: echo of the spec.
        outcome: ``"confirmed"``, ``"fallback"`` or ``"cold"``.
        chosen_key: fingerprint of the mapping this machine ended up with.
        correct: recovered mapping is equivalent to the ground truth.
        verdicts: per-candidate confirmation verdicts, in offer order.
        measurements / sim_seconds: total probe cost on this machine
            (confirmation campaigns plus any fallback search).
        mapping: the learned mapping's ``dramdig-mapping-v1`` payload —
            populated only for fallback/cold machines (confirmed machines
            reuse the store's existing entry).
        system: the machine's SystemInfo facts (store entry metadata).
        search_retries / search_degradations: fallback-search health.
    """

    machine_id: str
    kind: str
    outcome: str
    chosen_key: str
    correct: bool
    verdicts: list[CandidateVerdict] = field(default_factory=list)
    measurements: int = 0
    sim_seconds: float = 0.0
    mapping: dict | None = None
    system: dict = field(default_factory=dict)
    search_retries: int = 0
    search_degradations: int = 0


def run_fleet_cell(
    name: str,
    spec: dict,
    candidates: list[dict],
    confirm: ConfirmConfig | None = None,
    resilient: bool = False,
) -> FleetMachineResult:
    """Run the confirm-or-fallback protocol on one simulated machine.

    Args:
        name: the machine id, the cell's label in traces, telemetry and
            failure manifests.
        spec: :meth:`MachineSpec.to_payload` dict.
        candidates: shortlisted store entries, each ``{"key", "mapping"}``
            with the mapping serialised, best similarity first.
        confirm: campaign policy (default :class:`ConfirmConfig`).
        resilient: run any fallback search with the full recovery stack.
    """
    machine_spec = MachineSpec.from_payload(spec)
    confirm = confirm if confirm is not None else ConfirmConfig()
    truth = materialize_mapping(machine_spec)
    machine = SimulatedMachine(truth, seed=machine_spec.machine_seed)

    obs.inc("fleet.machines")
    with obs.span(f"machine:{machine_spec.machine_id}", clock=machine.clock) as span:
        span.set("kind", machine_spec.kind)
        span.set("candidates", len(candidates))

        verdicts: list[CandidateVerdict] = []
        chosen_mapping = None
        chosen_key = ""
        pages = None
        for index, candidate in enumerate(candidates):
            key = str(candidate.get("key", ""))
            try:
                mapping = mapping_from_dict(candidate["mapping"])
            except Exception:
                # A claim that does not survive revalidation cannot even
                # be probed; score it as a rejection so the breaker sees
                # the failure.
                obs.inc("fleet.confirm_rejects")
                verdicts.append(
                    CandidateVerdict(
                        key=key,
                        confirmed=False,
                        agreement=0.0,
                        probes=0,
                        reason="invalid",
                    )
                )
                continue
            if pages is None:
                pages = machine.allocate(
                    int(machine.total_bytes * confirm.alloc_fraction),
                    strategy="fragmented",
                )
            rng = np.random.default_rng(
                [machine_spec.machine_seed, confirm.seed_salt, index]
            )
            belief = BeliefMapping.from_mapping(mapping)
            # Child span so the machine span's measurement total
            # telescopes: confirm probes + any search measurements must
            # sum exactly to machine.stats.measurements, and the trace
            # validator holds us to it.
            with obs.span(f"confirm:{index}", clock=machine.clock) as confirm_span:
                outcome = run_confirmation(machine, pages, belief, rng, confirm)
                confirm_span.set("key", key)
                confirm_span.set("confirmed", outcome.confirmed)
                confirm_span.set("measurements", outcome.probes)
            obs.inc("fleet.confirm_probes", outcome.probes)
            verdicts.append(
                CandidateVerdict(
                    key=key,
                    confirmed=outcome.confirmed,
                    agreement=outcome.agreement,
                    probes=outcome.probes,
                    reason=outcome.reason,
                )
            )
            if outcome.confirmed:
                obs.inc("fleet.confirm_hits")
                chosen_mapping = mapping
                chosen_key = key
                break
            obs.inc("fleet.confirm_rejects")

        learned_mapping_dict = None
        search_retries = 0
        search_degradations = 0
        if chosen_mapping is None:
            if candidates:
                outcome_name = "fallback"
                obs.inc("fleet.fallbacks")
            else:
                outcome_name = "cold"
                obs.inc("fleet.cold_starts")
            config = DramDigConfig.resilient() if resilient else DramDigConfig()
            result = DramDig(config).run(machine)
            chosen_mapping = result.mapping
            chosen_key = result.translation_key
            search_retries = result.retries
            search_degradations = len(result.degradation)
            learned_mapping_dict = mapping_to_dict(result.mapping)
        else:
            outcome_name = "confirmed"

        correct = chosen_mapping.equivalent_to(machine.ground_truth)
        span.set("outcome", outcome_name)
        span.set("correct", correct)
        span.set("measurements", machine.stats.measurements)
        return FleetMachineResult(
            machine_id=machine_spec.machine_id,
            kind=machine_spec.kind,
            outcome=outcome_name,
            chosen_key=chosen_key,
            correct=bool(correct),
            verdicts=verdicts,
            measurements=int(machine.stats.measurements),
            sim_seconds=round(float(machine.elapsed_seconds), 6),
            mapping=learned_mapping_dict,
            system=system_to_facts(machine.sysinfo()),
            search_retries=search_retries,
            search_degradations=search_degradations,
        )
