"""Per-layer attribution for the benchmark's traced runs.

A :class:`LayerProfile` wraps the public functions listed in
:data:`TARGETS` for the length of one timed region and keeps, per
function, an in-memory aggregate: the call count and the self time (the
call's duration minus the time spent in wrapped functions it called).
Nothing is recorded per call, so hot primitives such as
``PhysPages.has_page`` cost two clock reads and a few list operations per
call, and the aggregates are turned into metrics once, at the end.

A module-level function is patched at every loaded ``repro`` module that
binds it (``select_addresses`` lives in ``repro.core.selection`` and is
imported by name into ``repro.core.dramdig``); a method is patched on its
class. Because self times telescope, the self times of all wrapped
functions plus the time spent outside any of them add up to the wall time
of the region, which is what ``unattributed.share`` reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DERIVED",
    "LAYERS",
    "TARGETS",
    "LayerProfile",
    "Target",
    "metric_names",
]


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    Attributes:
        layer: the ``repro`` subpackage the function belongs to.
        label: the function's name in metric names (``gf2.span``,
            ``PhysPages.has_page``).
        module: the module that defines it.
        qualname: its qualified name inside ``module``.
    """

    layer: str
    label: str
    module: str
    qualname: str

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.label}"


def _targets(layer: str, module: str, *qualnames: str, prefix: str = "") -> list[Target]:
    return [Target(layer, prefix + name, module, name) for name in qualnames]


TARGETS: tuple[Target, ...] = tuple(
    _targets("analysis", "repro.analysis.gf2", "span", "nullspace_basis", prefix="gf2.")
    + _targets("analysis", "repro.analysis.arrays", "sorted_unique", prefix="arrays.")
    + _targets("baselines", "repro.baselines.drama", "DramaTool.run")
    + _targets("baselines", "repro.baselines.xiao", "XiaoTool.run")
    + _targets(
        "machine",
        "repro.machine.machine",
        "SimulatedMachine.allocate",
        "SimulatedMachine.measure_latency",
        "SimulatedMachine.measure_latency_batch",
        "SimulatedMachine.measure_latency_sweeps",
        "SimulatedMachine.measure_latency_pairs",
    )
    + _targets(
        "machine",
        "repro.machine.allocator",
        "PageAllocator.allocate_contiguous",
        "PageAllocator.allocate_fragmented",
        "PageAllocator.allocate_hugepages",
        "PhysPages.has_page",
        "PhysPages.has_pages",
        "PhysPages.has_range",
        "PhysPages.sample_addresses",
    )
    + _targets("core", "repro.core.dramdig", "DramDig.run")
    + _targets("core", "repro.core.probe", "LatencyProbe.calibrate")
    + _targets("core", "repro.core.coarse", "CoarseDetector.detect")
    + _targets("core", "repro.core.selection", "select_addresses")
    + _targets("core", "repro.core.partition", "partition_pool")
    + _targets("core", "repro.core.bankfuncs", "detect_bank_functions")
    + _targets("core", "repro.core.fine", "FineDetector.detect")
    + _targets(
        "memctrl",
        "repro.memctrl.controller",
        "MemoryController.classify_pair",
        "MemoryController.classify_pairs",
        "MemoryController.classify_pairwise",
    )
    + _targets(
        "memctrl",
        "repro.memctrl.timing",
        "LatencyModel.sample_pair_ns",
        "LatencyModel.sample_batch_ns",
    )
    + _targets(
        "faults", "repro.faults.injector", "FaultInjector.perturb", "FaultInjector.perturb_one"
    )
    + _targets("dram", "repro.dram.mapping", "AddressMapping.bank_of", "AddressMapping.row_of")
    + _targets("dram", "repro.dram.compiled", "CompiledMapping.translate")
    + _targets(
        "service",
        "repro.service.translation",
        "TranslationService.publish",
        "TranslationService.compiled",
    )
    + _targets("rowhammer", "repro.rowhammer.hammer", "DoubleSidedAttack.run")
    + _targets("rowhammer", "repro.rowhammer.variants", "single_sided_test", "one_location_test")
    + _targets("rowhammer", "repro.rowhammer.aggressors", "CompiledAggressorPlanner.plan")
    + _targets("rowhammer", "repro.rowhammer.faultmodel", "RowhammerFaultModel.hammer")
    + _targets("parallel", "repro.parallel.grid", "run_cells", prefix="grid.")
    + _targets(
        "evalsuite",
        "repro.evalsuite.table1",
        "xiao_machine_cell",
        "drama_machine_cell",
        "dramdig_machine_cell",
        "run_table1",
    )
)

#: Layers in report order; each gets a ``<layer>.share`` metric.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: Metrics derived from the traced run, with their units. The
#: ``parallel.*`` pair comes from the workload (only ``hammer`` runs a
#: pool); the rest from :meth:`LayerProfile.metrics`.
DERIVED: dict[str, str] = {
    "unattributed.share": "share",
    "obs.trace_overhead": "ratio",
    "core.attempts_per_run": "count",
    "core.degradation_events": "count",
    "analysis.gf2.span.elements": "count",
    "parallel.utilization": "share",
    "parallel.dispatch_wait_s": "s",
}


def metric_names() -> dict[str, str]:
    """Every per-layer metric name, in report order, mapped to its unit."""
    names: dict[str, str] = {}
    for target in TARGETS:
        names[f"{target.key}.calls"] = "count"
        names[f"{target.key}.self_s"] = "s"
    for layer in LAYERS:
        names[f"{layer}.share"] = "share"
    names.update(DERIVED)
    return names


def _observe_dramdig(result, derived: Counter) -> None:
    derived["core.runs"] += 1
    derived["core.attempts"] += result.retries + 1
    derived["core.degradation_events"] += len(result.degradation)


def _observe_span(result, derived: Counter) -> None:
    derived["analysis.gf2.span.elements"] += len(result)


# Return-value observers that feed the derived counts.
_OBSERVERS: dict[str, Callable[[object, Counter], None]] = {
    "core.DramDig.run": _observe_dramdig,
    "analysis.gf2.span": _observe_span,
}


class LayerProfile:
    """Call counts and self times of the :data:`TARGETS` over timed regions."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.derived: Counter = Counter()
        # One accumulator of wrapped-children time per open wrapped call;
        # the bottom entry collects top-level calls.
        self._stack: list[float] = [0.0]

    @property
    def attributed_s(self) -> float:
        """Wall time spent inside wrapped functions so far."""
        return self._stack[0]

    def _wrap(self, key: str, function: Callable) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        observe = _OBSERVERS.get(key)
        derived = self.derived
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - children
            if observe is not None:
                observe(result, derived)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the dynamic extent, then restore them."""
        restore: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                owner_name, _, attribute = target.qualname.rpartition(".")
                module = importlib.import_module(target.module)
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attribute]
                    restore.append((owner, attribute, original))
                    setattr(owner, attribute, self._wrap(target.key, original))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(target.key, original)
                for name, loaded in list(sys.modules.items()):
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for binding, value in list(vars(loaded).items()):
                        if value is original:
                            restore.append((loaded, binding, original))
                            setattr(loaded, binding, wrapper)
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a profiled region that took ``wall_s``.

        The ``parallel.*`` and ``obs.trace_overhead`` entries are left to
        the caller.
        """
        out: dict[str, float] = {}
        shares: Counter = Counter()
        for target in TARGETS:
            key = target.key
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
            shares[target.layer] += self.self_s[key]
        for layer in LAYERS:
            out[f"{layer}.share"] = shares[layer] / wall_s
        out["unattributed.share"] = (wall_s - self.attributed_s) / wall_s
        runs = self.derived["core.runs"]
        out["core.attempts_per_run"] = self.derived["core.attempts"] / runs if runs else 0.0
        out["core.degradation_events"] = self.derived["core.degradation_events"]
        out["analysis.gf2.span.elements"] = self.derived["analysis.gf2.span.elements"]
        return out
