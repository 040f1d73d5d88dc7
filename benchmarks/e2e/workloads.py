"""The benchmark's workloads, each run in its own process by ``run.py``.

A workload process builds its inputs from ``--seed``, runs one untimed
warm-up item, then times repeats of a fixed amount of work in a closed
loop: the next item starts only when the last one has finished. It prints
one JSON record as the last line of its standard output. ``run.py``
starts it with the memory limit and environment described in the README;
run it through that script.

With ``--setup-only`` the process stops after the warm-up and reports only
its set-up time, so ``run.py`` can sample set-up more than once per run.
With ``--trace`` it reports per-layer metrics from one repeat run under
:class:`layers.LayerProfile` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Repeats every measured run makes, whatever ``--seconds`` asks for.
MIN_REPEATS = 3

#: Percentile of the per-item latencies reported as ``item_tail_ms``.
TAIL_PERCENTILE = 90

#: Workers of the ``hammer`` pool (the ROADMAP's 2-CPU host).
HAMMER_JOBS = 2

#: Fault profiles the ``uncover-faults`` machines cycle through, in the
#: order ``dramdig run --noise-profile`` lists them. ``spike-bursts`` is
#: left out: see the README.
FAULT_PROFILES = ("drift", "boot-storm", "sticky-misreads", "alloc-pressure", "hostile")

#: Seed of the fixed draw that gives each corpus slot its geometry and
#: bank-hash shape (see :func:`corpus`).
CORPUS_SEED = 0xD16

#: Corpus machines have at most this many banks: the clean pipeline's
#: calibration fails on a few percent of 64-bank machines (see the README).
#: This is a gap in the benchmark, to be closed when calibration is fixed.
MAX_TOTAL_BANKS = 32


def import_repro() -> None:
    """Import the ``repro`` package from this checkout's ``src`` directory."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}, not {package}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Repeat:
    """One repeat of a workload's fixed work.

    ``items`` maps each item (cell or machine) to its latency in seconds;
    the same keys recur in every repeat of a run. ``grid_wall_s`` is the
    wall time of the pool's grid, on ``hammer`` repeats run on the pool.
    """

    wall_s: float = 0.0
    grid_wall_s: float = 0.0
    items: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    events: int = 0
    output: str = ""
    sim: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class Region:
    """The timed part of a repeat; ``wall_s`` is set when it closes."""

    wall_s = 0.0


@contextmanager
def timed(profile=None):
    """Time a region, with ``profile``'s wrappers installed around it only."""
    with profile.installed() if profile is not None else nullcontext():
        region = Region()
        start = time.perf_counter()
        try:
            yield region
        finally:
            region.wall_s = time.perf_counter() - start


@contextmanager
def patched(owner, wrappers: dict):
    """Replace attributes of ``owner`` by ``wrappers[name](original)``."""
    originals = {name: getattr(owner, name) for name in wrappers}
    for name, wrap in wrappers.items():
        setattr(owner, name, wrap(originals[name]))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(owner, name, original)


def _failure(error: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(error), error)).strip()


# ----------------------------------------------------------------- table1


class Table1:
    """``run_table1(seed=S)`` serially: 27 (tool, machine) cells per repeat."""

    name = "table1"
    cells = ("xiao_machine_cell", "drama_machine_cell", "dramdig_machine_cell")

    def __init__(self, seed: int, smoke: bool):
        from repro.dram.presets import TABLE2_ORDER

        self.seed = seed
        self.machines = TABLE2_ORDER[:3] if smoke else TABLE2_ORDER

    def warm_up(self) -> None:
        from repro.evalsuite import table1

        table1.run_table1(seed=self.seed, machines=self.machines[:1], determinism_runs=1)

    def run(self, profile=None) -> Repeat:
        from repro.evalsuite import table1
        from repro.machine.machine import SimulatedMachine

        repeat = Repeat(attempted=len(self.cells) * len(self.machines))
        machines: list = []

        def counted(init):
            def counted_init(machine, *args, **kwargs):
                init(machine, *args, **kwargs)
                machines.append(machine)

            return counted_init

        def timed_cell(function):
            def cell(**kwargs):
                start = time.perf_counter()
                try:
                    return function(**kwargs)
                finally:
                    key = f"{function.__name__}:{kwargs['name']}"
                    repeat.items[key] = time.perf_counter() - start

            return cell

        with patched(SimulatedMachine, {"__init__": counted}):
            with patched(table1, dict.fromkeys(self.cells, timed_cell)):
                try:
                    with timed(profile) as region:
                        verdicts = table1.run_table1(
                            seed=self.seed, machines=self.machines, jobs=1
                        )
                except Exception as error:
                    repeat.failed = repeat.attempted
                    repeat.errors.append(_failure(error))
                    return repeat
        repeat.wall_s = region.wall_s
        repeat.events = sum(machine.stats.measurements for machine in machines)
        repeat.output = table1.render_table1(verdicts)
        # A tool that cannot solve a machine is a result the table reports
        # (DRAMA times out by design), not a failed cell; a cell that raises
        # aborts the serial grid and fails the whole repeat above.
        repeat.sim = {verdict.tool: verdict.median_seconds for verdict in verdicts}
        if len(repeat.items) != repeat.attempted:
            repeat.errors.append(f"timed {len(repeat.items)} of {repeat.attempted} cells")
        return repeat

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- uncover


def _shape(mapping) -> list[int]:
    return sorted(bin(mask).count("1") for mask in mapping.bank_functions)


def corpus(seed: int, count: int) -> list:
    """Mappings of the first ``count`` random machines for ``seed``.

    Each slot's geometry and bank-hash shape (the popcount of each bank
    function) come from a fixed draw, because they set how many probes a
    run needs: a wide channel hash alone multiplies it by four. ``seed``
    draws the rest of each mapping within its slot's shape. Draws with
    more than MAX_TOTAL_BANKS banks are skipped.
    """
    import numpy as np

    from repro.dram.random_mapping import random_mapping

    mappings, draw = [], 0
    while len(mappings) < count:
        template = random_mapping(np.random.default_rng([CORPUS_SEED, draw]))
        draw += 1
        if template.geometry.total_banks > MAX_TOTAL_BANKS:
            continue
        rng = np.random.default_rng([seed, len(mappings)])
        for _ in range(64):
            mapping = random_mapping(rng, template.geometry)
            if _shape(mapping) == _shape(template):
                break
        else:
            mapping = template
        mappings.append(mapping)
    return mappings


def mapping_text(mapping) -> str:
    functions = ",".join(f"{mask:#x}" for mask in sorted(mapping.bank_functions))
    rows = ",".join(map(str, mapping.row_bits))
    columns = ",".join(map(str, mapping.column_bits))
    return f"functions {functions} rows {rows} columns {columns}"


class Uncover:
    """``DramDig().run`` on ``random_mapping`` machines, one machine per item."""

    name = "uncover"
    size, smoke_size = 100, 2

    def __init__(self, seed: int, smoke: bool):
        count = self.smoke_size if smoke else self.size
        self.seed = seed
        # Slot ``count`` is the warm-up machine, outside the timed corpus.
        self.mappings = corpus(seed, count + 1)

    def profile_of(self, slot: int) -> str | None:
        return None

    def config(self):
        return None

    def machine(self, slot: int):
        from repro.faults import FaultInjector, get_profile
        from repro.machine.machine import SimulatedMachine

        machine_seed = self.seed * 1_000_003 + slot
        profile = self.profile_of(slot)
        faults = None if profile is None else FaultInjector(get_profile(profile), seed=machine_seed)
        return SimulatedMachine(mapping=self.mappings[slot], seed=machine_seed, faults=faults)

    def warm_up(self) -> None:
        from repro.core.dramdig import DramDig

        DramDig(self.config()).run(self.machine(len(self.mappings) - 1))

    def run(self, profile=None) -> Repeat:
        from repro.core.dramdig import DramDig

        slots = range(len(self.mappings) - 1)
        repeat = Repeat(attempted=len(slots))
        outcomes = []
        with timed(profile) as region:
            for slot in slots:
                machine = self.machine(slot)
                start = time.perf_counter()
                try:
                    outcome = DramDig(self.config()).run(machine)
                except Exception as error:
                    outcome = error
                repeat.items[str(slot)] = time.perf_counter() - start
                repeat.events += machine.stats.measurements
                outcomes.append(outcome)
        repeat.wall_s = region.wall_s
        lines, seconds, probes = [], [], []
        for slot, outcome in zip(slots, outcomes):
            if isinstance(outcome, Exception):
                repeat.failed += 1
                repeat.errors.append(f"machine {slot}: {_failure(outcome)}")
                lines.append(f"{slot} FAILED {type(outcome).__name__}")
                continue
            if not outcome.mapping.equivalent_to(self.mappings[slot]):
                repeat.failed += 1
                repeat.errors.append(f"machine {slot}: recovered mapping is wrong")
            lines.append(f"{slot} {mapping_text(outcome.mapping)}")
            seconds.append(outcome.total_seconds)
            probes.append(outcome.measurements)
        repeat.output = "\n".join(lines) + "\n"
        if seconds:
            repeat.sim = {
                "sim_s_p50": statistics.median(seconds),
                "sim_s_max": max(seconds),
                "probes_p50": statistics.median(probes),
            }
        return repeat

    def close(self) -> None:
        pass


class UncoverFaults(Uncover):
    """``DramDig(DramDigConfig.resilient()).run`` on machines under fault profiles."""

    name = "uncover-faults"
    size = 10

    def profile_of(self, slot: int) -> str:
        return FAULT_PROFILES[slot % len(FAULT_PROFILES)]

    def config(self):
        from repro.core.dramdig import DramDigConfig

        return DramDigConfig.resilient()


# ----------------------------------------------------------------- hammer


class Hammer:
    """``run_campaign`` over 48 cells on a two-worker pool, one cell per item."""

    name = "hammer"

    def __init__(self, seed: int, smoke: bool):
        from repro.rowhammer.campaign import CampaignSpec

        self.seed = seed
        if smoke:
            self.spec = CampaignSpec(
                machines=("No.1",),
                variants=("double_sided", "single_sided"),
                mitigations=("none", "trr_ecc"),
                tests=1,
                duration_seconds=30.0,
                seed=seed,
            )
        else:
            self.spec = CampaignSpec(tests=1, duration_seconds=30.0, seed=seed)

    def warm_up(self) -> None:
        from repro.rowhammer.campaign import CampaignSpec, run_campaign

        # Two cells, so that the pool of HAMMER_JOBS workers is spawned and
        # parked for the timed repeats.
        spec = CampaignSpec(
            machines=("No.1",),
            variants=("double_sided",),
            mitigations=("none", "trr"),
            tests=1,
            duration_seconds=self.spec.duration_seconds,
            seed=self.seed,
        )
        run_campaign(spec, jobs=HAMMER_JOBS)

    def run(self, profile=None, jobs: int = HAMMER_JOBS) -> Repeat:
        """One campaign on ``jobs`` workers.

        At ``jobs`` > 1 the cells run in pool workers, which the
        benchmark's wrappers do not reach, so a ``repro.obs`` tracer is
        active: the grid then times each cell in its worker and stitches
        the cell spans under the grid span, and those give the items'
        latencies.
        """
        from repro.obs.tracing import Tracer, activate
        from repro.rowhammer.campaign import campaign_artifact, run_campaign

        repeat = Repeat(attempted=self.spec.cell_count)
        tracer = Tracer()
        try:
            with activate(tracer) if jobs > 1 else nullcontext():
                with timed(profile) as region:
                    outcome = run_campaign(self.spec, jobs=jobs)
        except Exception as error:
            repeat.failed = repeat.attempted
            repeat.errors.append(_failure(error))
            return repeat
        repeat.wall_s = region.wall_s
        if jobs > 1:
            grid = next(span for span in tracer.spans if span.name.startswith("grid:"))
            repeat.items = {
                span.name: span.wall_s
                for span in tracer.spans if span.parent_id == grid.span_id
            }
            repeat.grid_wall_s = grid.wall_s
            if len(repeat.items) != repeat.attempted:
                repeat.errors.append(f"timed {len(repeat.items)} of {repeat.attempted} cells")
        repeat.events = outcome.total_trials
        repeat.output = json.dumps(campaign_artifact(outcome), indent=2) + "\n"
        minutes = sum(result.minutes for result in outcome.completed)
        repeat.sim = {"flips_per_sim_min": outcome.total_flips / minutes if minutes else 0.0}
        repeat.failed = len(outcome.failures)
        for failure in outcome.failures:
            repeat.errors.append(f"cell {failure.label}: {failure.reason}")
        for result in outcome.completed:
            if result.flips > result.raw_flips:
                repeat.failed += 1
                repeat.errors.append(
                    f"{result.machine}/{result.variant}/{result.mitigation}: "
                    f"{result.flips} mitigated flips > {result.raw_flips} raw"
                )
        return repeat

    @staticmethod
    def parallel_metrics(repeat: Repeat) -> dict[str, float]:
        """Pool utilisation of a repeat run on the pool.

        Busy time is the sum of the cell times, capacity the grid span's
        wall time times the worker count, and the rest is time a worker
        waited for work.
        """
        busy = sum(repeat.items.values())
        capacity = HAMMER_JOBS * repeat.grid_wall_s
        return {"parallel.utilization": busy / capacity, "parallel.dispatch_wait_s": capacity - busy}

    def close(self) -> None:
        import multiprocessing

        from repro.parallel import get_pool_manager

        get_pool_manager().shutdown_all()
        for child in multiprocessing.active_children():
            child.join()


WORKLOADS = {workload.name: workload for workload in (Table1, Uncover, UncoverFaults, Hammer)}


# ------------------------------------------------------------ measurement


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest waited child's."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def golden_digest(workload: str, seed: int, smoke: bool) -> str | None:
    golden = json.loads(GOLDEN.read_text())
    if smoke or seed != golden["seed"]:
        return None
    return golden["output_digest"].get(workload)


def _deterministic(repeat: Repeat) -> str:
    return json.dumps([repeat.output, repeat.sim, repeat.events], sort_keys=True)


def check_repeats(workload, repeats: list[Repeat], smoke: bool) -> tuple[str, list[str]]:
    """The output digest of ``repeats`` and every check they fail.

    Each repeat's own checks must pass, every repeat must produce the same
    output, simulated statistics and event count, and at the seed
    golden.json pins, full size, the digest must match it.
    """
    errors = [error for repeat in repeats for error in repeat.errors]
    if len({_deterministic(repeat) for repeat in repeats}) > 1:
        errors.append("outputs or simulated statistics differ between repeats")
    digest = sha256(repeats[0].output)
    expected = golden_digest(workload.name, workload.seed, smoke)
    if expected is not None and digest != expected:
        errors.append(f"output digest {digest} does not match golden.json ({expected})")
    return digest, errors


def measure(workload, seconds: float, smoke: bool) -> dict:
    """Timed repeats until ``seconds`` have passed and at least MIN_REPEATS ran.

    Host interference only ever adds time, so each timing is taken from
    its least-disturbed sample: ``wall_s`` is the fastest repeat, and each
    item's latency is its fastest run across the repeats.
    """
    repeats: list[Repeat] = []
    first_item_at = time.monotonic()
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - start < seconds:
        repeats.append(workload.run())
        if repeats[-1].errors:
            break
    workload.close()
    digest, errors = check_repeats(workload, repeats, smoke)
    walls = [repeat.wall_s for repeat in repeats]
    best: dict[str, float] = {}
    for repeat in repeats:
        for item, latency in repeat.items.items():
            best[item] = min(latency, best.get(item, latency))
    latencies = list(best.values()) or [0.0]
    wall = min(walls)
    return {
        "first_item_at": first_item_at,
        "repeats": len(repeats),
        "attempted": sum(repeat.attempted for repeat in repeats),
        "failed": sum(repeat.failed for repeat in repeats),
        "errors": errors,
        "output_digest": digest,
        "sim": repeats[0].sim,
        "wall_s": {"min": wall, "median": statistics.median(walls), "max": max(walls)},
        "items": {
            "count": len(best),
            "p50_ms": percentile(latencies, 50) * 1e3,
            "tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        },
        "events_per_repeat": repeats[0].events,
        "events_per_s": repeats[0].events / wall if wall else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(workload, smoke: bool) -> dict:
    """Per-layer metrics of one repeat under the layer profile.

    Two untraced repeats come first: the second is the baseline of
    ``obs.trace_overhead``, and the first fills the caches the warm-up
    item did not reach, so that neither measured repeat pays for them.
    All repeats are checked as in :func:`measure`.
    """
    from layers import LayerProfile

    # Workers do not see the wrappers, so the hammer's in-cell layers are
    # profiled on a serial pass and compared with a serial baseline.
    serial = {"jobs": 1} if isinstance(workload, Hammer) else {}
    first_item_at = time.monotonic()
    warm = workload.run(**serial)
    baseline = workload.run(**serial)
    profile = LayerProfile()
    traced = workload.run(profile=profile, **serial)
    repeats = [warm, baseline, traced]
    metrics = profile.metrics(traced.wall_s)
    metrics["obs.trace_overhead"] = traced.wall_s / baseline.wall_s
    if isinstance(workload, Hammer):
        repeats.append(workload.run())
        metrics.update(workload.parallel_metrics(repeats[-1]))
    else:
        metrics.update({"parallel.utilization": 0.0, "parallel.dispatch_wait_s": 0.0})
    workload.close()
    digest, errors = check_repeats(workload, repeats, smoke)
    return {
        "first_item_at": first_item_at,
        "repeats": len(repeats),
        "attempted": traced.attempted,
        "failed": traced.failed,
        "errors": errors,
        "output_digest": digest,
        "sim": traced.sim,
        "traced_wall_s": traced.wall_s,
        "layers": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()
    if args.setup_only:
        setup_s = time.monotonic() - args.started
        workload.close()
        record = {"setup_s": setup_s}
    else:
        if args.trace:
            record = trace(workload, args.smoke)
        else:
            record = measure(workload, args.seconds, args.smoke)
        record["setup_s"] = record.pop("first_item_at") - args.started
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
