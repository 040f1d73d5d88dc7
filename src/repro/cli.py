"""Command-line interface: ``dramdig`` / ``python -m repro``.

Subcommands mirror the paper:

* ``dramdig run No.6``        — reverse-engineer one machine with DRAMDig.
* ``dramdig compare No.6``    — run DRAMDig, DRAMA and Xiao on one machine.
* ``dramdig explain No.6``    — the bit-layout diagram of a ground truth.
* ``dramdig hammer No.2``     — reverse-engineer, then run rowhammer tests.
* ``dramdig translate No.2 --phys 0x1ed2f00`` — compiled phys↔DRAM queries.
* ``dramdig table1|table2|figure2|table3`` — regenerate a paper artefact.
* ``dramdig fleet run --fleet-size 16`` — DRAMDig across a simulated fleet
  with a persistent cross-machine knowledge store.
* ``dramdig campaign run`` — rowhammer flip-yield campaign fuzzer
  (variants × mitigations × machines) over the supervised grid.
* ``dramdig campaign leaderboard ART.json`` — render a saved campaign.
* ``dramdig obs tail RUN.stream`` — render a live telemetry stream.
* ``dramdig obs diff A.jsonl B.jsonl`` — attribute a slowdown to a span
  subtree, ``critical-path`` the heaviest chain.
* ``dramdig list``            — show the machine presets.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from repro.baselines.drama import DramaTool
from repro.baselines.xiao import XiaoTool
from repro.core.dramdig import DramDig, DramDigConfig
from repro.dram.belief import BeliefMapping
from repro.dram.errors import ReproError
from repro.dram.explain import explain_mapping
from repro.dram.presets import TABLE2_ORDER, preset
from repro.dram.random_mapping import MIN_GIB
from repro.dram.serialization import save_mapping
from repro.evalsuite import (
    render_figure2,
    render_table1,
    render_table2,
    render_table3,
    run_figure2,
    run_table1,
    run_table2,
    run_table3,
)
from repro.faults import FaultInjector, get_profile, profile_names
from repro.ioutil import RecordFileError, parse_record
from repro.logutil import get_logger, setup_logging
from repro.machine.machine import SimulatedMachine
from repro.parallel import CellFailure, GridPolicy
from repro.rowhammer.assess import assess_vulnerability
from repro.rowhammer.hammer import HammerConfig

__all__ = ["main"]

_LOG = get_logger("repro.cli")


def _checked(cast, rejects, message: str):
    """An argparse ``type=`` that parses with ``cast`` and refuses what
    ``rejects`` flags.

    Bad values fail at the argparse layer with a usage message (``--jobs
    0`` would otherwise surface later as an opaque multiprocessing
    error). ``message`` is formatted with the parsed ``value`` and the
    raw ``text``.
    """

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}"
            ) from None
        if rejects(value):
            raise argparse.ArgumentTypeError(message.format(value=value, text=text))
        return value

    return parse


_jobs_arg = _checked(
    int, lambda jobs: jobs == 0 or jobs < -1,
    "--jobs must be a positive integer or -1 for all CPUs (got {value})",
)
_retries_arg = _checked(
    int, lambda retries: retries < 0,
    "--max-retries must be non-negative (got {value})",
)
_grid_retries_arg = _checked(
    int, lambda retries: retries < 0,
    "--grid-retries must be non-negative (got {value})",
)
# Float bounds are written so that NaN fails them.
_seconds_arg = _checked(
    float, lambda seconds: not seconds > 0,
    "timeout must be a positive number of seconds (got {text})",
)
_tests_arg = _checked(
    int, lambda tests: tests < 1, "--tests must be a positive integer (got {value})"
)
# Simulated test length in seconds; minutes must stay finite once in seconds.
_duration_arg = _checked(
    float, lambda seconds: not 0 < seconds < math.inf,
    "test duration must be positive and finite (got {text})",
)
_minutes_arg = _checked(
    float, lambda minutes: not 0 < minutes * 60 < math.inf,
    "test duration must be positive and finite (got {text} minutes)",
)
_tolerance_arg = _checked(
    float, lambda fraction: not fraction >= 0,
    "--tolerance must be non-negative (got {text})",
)
_decoy_rows_arg = _checked(
    int, lambda decoys: decoys < 0, "--decoy-rows must be non-negative (got {value})"
)
_vulnerability_arg = _checked(
    float, lambda density: not 0.0 <= density <= 1.0,
    "--vulnerability must be within [0, 1] (got {text})",
)
# No random geometry is smaller than MIN_GIB, so a lower cap admits none.
_max_gib_arg = _checked(
    int, lambda gib: gib != 0 and gib < MIN_GIB,
    f"--max-gib must be 0 (uncapped) or at least {MIN_GIB} (got {{value}})",
)


def _at_least(option: str, floor: int):
    """An integer ``type=`` for ``option`` that refuses values below ``floor``."""
    return _checked(
        int, lambda value: value < floor,
        f"{option} must be at least {floor} (got {{value}})",
    )


def _grid_options(args):
    """Fold the crash-safety flags into (supervision, journal)."""
    supervision = GridPolicy(
        cell_timeout_s=args.cell_timeout,
        run_deadline_s=args.run_deadline,
        retries=args.grid_retries,
    )
    return supervision, args.resume


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dramdig",
        description="DRAMDig reproduction (DAC 2020) on a simulated memory substrate",
    )
    parser.add_argument("--seed", type=int, default=1, help="machine seed (default 1)")
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="threshold for status/diagnostic lines on stderr (default info)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status lines (log only warnings and errors); "
        "artefact output on stdout is unaffected",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="append live progress events (grid cells, fleet waves, "
        "campaign trials, pipeline phases) to this JSONL stream while "
        "the command runs; watch it with 'dramdig obs tail --follow PATH'",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run DRAMDig on one machine preset")
    run_cmd.add_argument("machine", choices=TABLE2_ORDER)
    run_cmd.add_argument(
        "--save", metavar="PATH", help="write the recovered mapping as JSON"
    )
    run_cmd.add_argument(
        "--noise-profile",
        choices=profile_names(),
        default=None,
        metavar="PROFILE",
        help="inject a deterministic fault profile "
        f"({', '.join(profile_names())}) and enable the adaptive "
        "recovery stack",
    )
    run_cmd.add_argument(
        "--max-retries",
        type=_retries_arg,
        default=None,
        metavar="N",
        help="override the whole-pipeline restart budget",
    )
    run_cmd.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL trace (spans + metrics) of the run here",
    )

    compare_cmd = commands.add_parser(
        "compare", help="run DRAMDig, DRAMA and Xiao et al. on one machine"
    )
    compare_cmd.add_argument("machine", choices=TABLE2_ORDER)

    explain_cmd = commands.add_parser(
        "explain", help="show a machine's ground-truth bit layout"
    )
    explain_cmd.add_argument("machine", choices=TABLE2_ORDER)

    hammer_cmd = commands.add_parser(
        "hammer", help="reverse-engineer, then run double-sided rowhammer tests"
    )
    hammer_cmd.add_argument("machine", choices=TABLE2_ORDER)
    hammer_cmd.add_argument(
        "--tests", type=_tests_arg, default=5, help="timed tests (default 5)"
    )
    hammer_cmd.add_argument(
        "--minutes",
        type=_minutes_arg,
        default=5.0,
        help="minutes per test (default 5; must be positive and finite)",
    )
    hammer_cmd.add_argument(
        "--decoy-rows",
        type=_decoy_rows_arg,
        default=0,
        metavar="N",
        help="extra rows hammered per window (TRRespass-style many-sided "
        "pattern; default 0: plain double-sided)",
    )
    hammer_cmd.add_argument(
        "--vulnerability",
        type=_vulnerability_arg,
        default=None,
        metavar="DENSITY",
        help="override the preset's weak-cell density (a value in [0, 1])",
    )

    translate_cmd = commands.add_parser(
        "translate",
        help="query the compiled phys↔DRAM translation service",
        description="Compile a mapping (preset ground truth or a JSON file "
        "saved with 'run --save') into its GF(2) matrix pair and answer "
        "translation queries through the cached service.",
    )
    translate_cmd.add_argument(
        "machine",
        nargs="?",
        choices=TABLE2_ORDER,
        help="preset whose ground-truth mapping to compile "
        "(or use --mapping PATH)",
    )
    translate_cmd.add_argument(
        "--mapping",
        metavar="PATH",
        default=None,
        help="compile a mapping JSON written by 'run --save' instead of a preset",
    )
    translate_cmd.add_argument(
        "--phys",
        nargs="+",
        metavar="ADDR",
        default=None,
        help="physical addresses (decimal or 0x-hex) to translate to "
        "bank/row/column",
    )
    translate_cmd.add_argument(
        "--dram",
        nargs="+",
        metavar="BANK,ROW,COL",
        default=None,
        help="DRAM coordinates to encode back to physical addresses",
    )
    translate_cmd.add_argument(
        "--same-bank",
        type=int,
        metavar="BANK",
        default=None,
        dest="same_bank",
        help="emit --count physical addresses that all map to this bank",
    )
    translate_cmd.add_argument(
        "--aggressors",
        type=int,
        metavar="BANK",
        default=None,
        help="emit --count double-sided aggressor sets (victim, above, "
        "below) in this bank",
    )
    translate_cmd.add_argument(
        "--count", type=int, default=4, help="set size for generator queries"
    )
    translate_cmd.add_argument(
        "--column", type=int, default=0, help="column for generator queries"
    )
    translate_cmd.add_argument(
        "--stride",
        type=int,
        default=3,
        help="victim-row spacing for --aggressors (default 3: disjoint sets)",
    )
    translate_cmd.add_argument(
        "--stats",
        action="store_true",
        help="print the service's cache/counter stats afterwards",
    )

    commands.add_parser("list", help="list machine presets")
    report_cmd = commands.add_parser(
        "report", help="regenerate every artefact into one markdown report"
    )
    report_cmd.add_argument("--out", metavar="PATH", help="write the report here")
    table1_cmd = commands.add_parser("table1", help="regenerate Table I (tool comparison)")
    commands.add_parser("table2", help="regenerate Table II (mappings, 9 machines)")
    figure2_cmd = commands.add_parser("figure2", help="regenerate Figure 2 (time costs)")
    table3_cmd = commands.add_parser(
        "table3", help="regenerate Table III (rowhammer flips)"
    )
    table3_cmd.add_argument(
        "--tests", type=_tests_arg, default=5, help="tests per machine (default 5)"
    )

    from repro.rowhammer.campaign import (
        CAMPAIGN_MACHINES,
        mitigation_names,
        variant_names,
    )

    campaign_cmd = commands.add_parser(
        "campaign",
        help="rowhammer flip-yield campaign fuzzer over the supervised grid",
    )
    campaign_sub = campaign_cmd.add_subparsers(
        dest="campaign_command", required=True
    )
    campaign_run_cmd = campaign_sub.add_parser(
        "run",
        help="sweep hammering variants × mitigation stacks × machines",
        description="Enumerate a deterministic sweep space (hammering "
        "variants × mitigation stacks × machine presets × seeds), run "
        "every trial as a supervised grid cell, and rank configurations "
        "on a bit-flip-yield leaderboard. With --resume the campaign is "
        "crash-safe: completed trials replay from the journal and the "
        "leaderboard artifact is byte-identical to an uninterrupted run.",
    )
    campaign_run_cmd.add_argument(
        "--machines", nargs="+", choices=TABLE2_ORDER,
        default=list(CAMPAIGN_MACHINES), metavar="NAME",
        help="machine presets to sweep "
        f"(default: {' '.join(CAMPAIGN_MACHINES)})",
    )
    campaign_run_cmd.add_argument(
        "--variants", nargs="+", choices=variant_names(),
        default=list(variant_names()), metavar="VARIANT",
        help=f"hammering variants ({', '.join(variant_names())}; "
        "default: all)",
    )
    campaign_run_cmd.add_argument(
        "--mitigations", nargs="+", choices=mitigation_names(),
        default=list(mitigation_names()), metavar="STACK",
        help=f"mitigation stacks ({', '.join(mitigation_names())}; "
        "default: all)",
    )
    campaign_run_cmd.add_argument(
        "--tests", type=_tests_arg, default=2, metavar="N",
        help="timed tests per (machine, variant, mitigation) combination "
        "(default 2)",
    )
    campaign_run_cmd.add_argument(
        "--duration", type=_duration_arg, default=120.0, metavar="SECONDS",
        help="simulated length of each timed test (default 120)",
    )
    campaign_run_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the dramdig-campaign-v1 JSON artifact here",
    )
    campaign_board_cmd = campaign_sub.add_parser(
        "leaderboard",
        help="render the leaderboard of a saved campaign artifact",
    )
    campaign_board_cmd.add_argument("artifact", metavar="PATH")

    for grid_cmd in (
        report_cmd, table1_cmd, figure2_cmd, table3_cmd, campaign_run_cmd
    ):
        grid_cmd.add_argument(
            "--jobs",
            type=_jobs_arg,
            default=None,
            metavar="N",
            help="worker processes for the evaluation grid "
            "(default: serial; -1 = all CPUs; results are bit-identical)",
        )
        grid_cmd.add_argument(
            "--resume",
            metavar="JOURNAL",
            default=None,
            help="checkpoint journal path: completed cells are recorded "
            "there and skipped when the run is restarted (results are "
            "bit-identical to an uninterrupted run)",
        )
        grid_cmd.add_argument(
            "--cell-timeout",
            type=_seconds_arg,
            default=None,
            metavar="SECONDS",
            help="kill and fail any grid cell running longer than this",
        )
        grid_cmd.add_argument(
            "--run-deadline",
            type=_seconds_arg,
            default=None,
            metavar="SECONDS",
            help="salvage whatever finished once the whole grid run "
            "exceeds this budget",
        )
        grid_cmd.add_argument(
            "--grid-retries",
            type=_grid_retries_arg,
            default=0,
            metavar="N",
            help="retry a failed grid cell up to N times with exponential "
            "backoff before recording it as FAILED (default 0)",
        )
        grid_cmd.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write one merged JSONL trace of the whole grid run here "
            "(each cell's spans come back with its result and are stitched "
            "in cell order; journal-resumed cells appear as 'cached' spans)",
        )

    fleet_cmd = commands.add_parser(
        "fleet",
        help="run DRAMDig across a simulated fleet with a shared knowledge store",
    )
    fleet_sub = fleet_cmd.add_subparsers(dest="fleet_command", required=True)
    fleet_run_cmd = fleet_sub.add_parser(
        "run",
        help="confirm-or-fallback over a randomized fleet",
        description="Generate a deterministic fleet of simulated machines "
        "(randomized geometries and mappings grouped into families), run "
        "the confirm-or-fallback protocol over it, and fold what every "
        "machine learned into a persistent cross-machine knowledge store.",
    )
    fleet_run_cmd.add_argument(
        "--fleet-size", type=_at_least("--fleet-size", 1), default=8, metavar="N",
        help="machines in the fleet (default 8)",
    )
    fleet_run_cmd.add_argument(
        "--families", type=_at_least("--families", 1), default=2, metavar="N",
        help="distinct ground-truth mapping families (default 2)",
    )
    fleet_run_cmd.add_argument(
        "--profile", choices=("lookalike", "adversarial"), default="lookalike",
        help="fleet composition: 'lookalike' (every machine matches its "
        "family) or 'adversarial' (imposters report their family's "
        "SystemInfo but wire a different mapping)",
    )
    fleet_run_cmd.add_argument(
        "--mismatch-every", type=_at_least("--mismatch-every", 2), default=3,
        metavar="K",
        help="adversarial profile: every K-th non-exemplar machine is an "
        "imposter (default 3)",
    )
    fleet_run_cmd.add_argument(
        "--max-gib", type=_max_gib_arg, default=8, metavar="G",
        help=f"cap family geometries at G GiB (default 8; 0 = uncapped; "
        f"otherwise at least {MIN_GIB})",
    )
    fleet_run_cmd.add_argument(
        "--knowledge-store", metavar="PATH", default=None,
        help="persistent knowledge-store file shared across fleet runs "
        "(default: in-memory, forgotten after the run)",
    )
    fleet_run_cmd.add_argument(
        "--resume", metavar="JOURNAL", default=None,
        help="checkpoint journal path: completed machines are recorded "
        "there and skipped when the run is restarted (artifacts are "
        "byte-identical to an uninterrupted run)",
    )
    fleet_run_cmd.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="worker processes per dispatch wave (default: serial)",
    )
    fleet_run_cmd.add_argument(
        "--wave", type=_at_least("--wave", 1), default=4, metavar="N",
        help="machines dispatched per wave after the exemplar wave "
        "(store updates land between waves; default 4)",
    )
    fleet_run_cmd.add_argument(
        "--max-candidates", type=_at_least("--max-candidates", 1), default=3,
        metavar="N",
        help="store hypotheses offered to each machine (default 3)",
    )
    fleet_run_cmd.add_argument(
        "--breaker-threshold", type=_at_least("--breaker-threshold", 1), default=3,
        metavar="N",
        help="consecutive confirmation failures that quarantine a "
        "hypothesis (default 3)",
    )
    fleet_run_cmd.add_argument(
        "--resilient", action="store_true",
        help="run fallback searches with the full recovery stack",
    )
    fleet_run_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSON fleet artifact (machines, summary, scaling "
        "curve) here",
    )
    fleet_run_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write one merged JSONL trace of the fleet run here "
        "(per-machine spans are stitched across worker processes)",
    )

    trace_cmd = commands.add_parser(
        "trace", help="inspect a JSONL trace written with --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summary_cmd = trace_sub.add_parser(
        "summary",
        help="render the span tree (text flamegraph) and metrics table, "
        "and verify the trace's accounting consistency",
    )
    trace_summary_cmd.add_argument("path", metavar="TRACE")
    trace_summary_cmd.add_argument(
        "--strict",
        action="store_true",
        help="flag unclosed and orphaned spans as inconsistencies "
        "(default: tolerate them — a trace salvaged from a killed run "
        "renders its in-flight spans as UNCLOSED instead of failing)",
    )

    obs_cmd = commands.add_parser(
        "obs", help="live telemetry streams and cross-run trace analytics"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_tail_cmd = obs_sub.add_parser(
        "tail",
        help="render a telemetry stream written with --telemetry",
        description="Render the events of a --telemetry JSONL stream as "
        "human-readable lines. With --follow the stream is polled for "
        "new complete lines, so an in-flight run can be watched live "
        "from another terminal.",
    )
    obs_tail_cmd.add_argument("stream", metavar="STREAM")
    obs_tail_cmd.add_argument(
        "--follow", "-f", action="store_true",
        help="keep watching the stream for new events (Ctrl-C to stop)",
    )
    obs_tail_cmd.add_argument(
        "--interval", type=_seconds_arg, default=0.5, metavar="SECONDS",
        help="poll interval with --follow (default 0.5)",
    )
    obs_diff_cmd = obs_sub.add_parser(
        "diff",
        help="span-level A/B diff of two traces (exit 1 on regression)",
        description="Aggregate two traces per span path on the simulated "
        "clock, report where the second one got slower, and attribute "
        "the growth to the worst subtree. Subtrees cached or failed on "
        "either side are excluded from both, so a journal-resumed run "
        "diffs as exactly equal to its from-scratch twin.",
    )
    obs_diff_cmd.add_argument("base", metavar="BASE_TRACE")
    obs_diff_cmd.add_argument("other", metavar="OTHER_TRACE")
    obs_diff_cmd.add_argument(
        "--tolerance", type=_tolerance_arg, default=0.01, metavar="FRACTION",
        help="fractional growth of the total simulated time tolerated "
        "before the pair counts as a regression (default 0.01)",
    )
    obs_diff_cmd.add_argument(
        "--limit", type=int, default=15, metavar="N",
        help="span paths shown, largest growth first (default 15; 0 = all)",
    )
    obs_critical_cmd = obs_sub.add_parser(
        "critical-path",
        help="heaviest root-to-leaf chain through a trace's span tree",
    )
    obs_critical_cmd.add_argument("trace_path", metavar="TRACE")
    obs_critical_cmd.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="steps shown from the root (default: the whole chain)",
    )
    return parser


def _command_run(args) -> int:
    machine_preset = preset(args.machine)
    faults = None
    config = DramDigConfig()
    if args.noise_profile is not None:
        faults = FaultInjector(get_profile(args.noise_profile), seed=args.seed)
        config = DramDigConfig.resilient(config)
    if args.max_retries is not None:
        config = dataclasses.replace(config, max_retries=args.max_retries)
    machine = SimulatedMachine.from_preset(
        machine_preset, seed=args.seed, faults=faults
    )
    _LOG.info(
        "Reverse-engineering %s (%s, %s)",
        args.machine,
        machine_preset.microarchitecture,
        machine_preset.geometry.describe(),
    )
    if args.noise_profile is not None:
        _LOG.info(
            "noise profile: %s (adaptive recovery enabled)", args.noise_profile
        )
    result = DramDig(config).run(machine)
    print(result.summary())
    verdict = result.mapping.equivalent_to(machine_preset.mapping)
    print(f"matches ground truth: {'yes' if verdict else 'NO'}")
    if args.save:
        save_mapping(result.mapping, args.save)
        print(f"mapping saved to {args.save}")
    return 0 if verdict else 1


def _command_compare(args) -> int:
    machine_preset = preset(args.machine)
    print(f"== DRAMDig on {args.machine} ==")
    machine = SimulatedMachine.from_preset(machine_preset, seed=args.seed)
    result = DramDig().run(machine)
    print(result.summary())

    print(f"\n== DRAMA on {args.machine} ==")
    machine = SimulatedMachine.from_preset(machine_preset, seed=args.seed)
    drama = DramaTool(seed=args.seed).run(machine)
    if drama.belief is None:
        print(f"timed out after {drama.seconds:.0f} simulated seconds "
              f"({drama.attempts} attempts)")
    else:
        agrees = drama.belief.hammer_equivalent(machine_preset.mapping)
        print(f"finished in {drama.seconds:.0f} s, {drama.attempts} attempts, "
              f"hammer-equivalent to truth: {agrees}")

    print(f"\n== Xiao et al. on {args.machine} ==")
    machine = SimulatedMachine.from_preset(machine_preset, seed=args.seed)
    try:
        xiao = XiaoTool().run(machine)
    except ReproError as error:
        print(f"failed: {error}")
    else:
        agrees = xiao.belief.hammer_equivalent(machine_preset.mapping)
        print(f"finished in {xiao.seconds:.0f} s, "
              f"hammer-equivalent to truth: {agrees}")
    return 0


def _command_explain(args) -> int:
    print(explain_mapping(preset(args.machine).mapping))
    return 0


def _command_hammer(args) -> int:
    machine_preset = preset(args.machine)
    machine = SimulatedMachine.from_preset(machine_preset, seed=args.seed)
    _LOG.info("Reverse-engineering %s with DRAMDig ...", args.machine)
    result = DramDig().run(machine)
    print(f"mapping recovered in {result.total_seconds:.0f} simulated seconds")
    vulnerability = (
        args.vulnerability
        if args.vulnerability is not None
        else machine_preset.hammer_vulnerability
    )
    report = assess_vulnerability(
        machine,
        BeliefMapping.from_mapping(result.mapping),
        vulnerability=vulnerability,
        tests=args.tests,
        config=HammerConfig(duration_seconds=args.minutes * 60.0),
        seed=args.seed,
        decoy_rows=args.decoy_rows,
    )
    print(report.summary())
    return 0


def _command_translate(args) -> int:
    import numpy as np

    from repro.dram.serialization import load_mapping
    from repro.service.translation import default_service

    if (args.machine is None) == (args.mapping is None):
        _LOG.error("provide exactly one of MACHINE or --mapping PATH")
        return 2
    if args.mapping is not None:
        try:
            mapping = load_mapping(args.mapping)
        except (OSError, ValueError, KeyError, ReproError) as error:
            _LOG.error("cannot load mapping %s: %s", args.mapping, error)
            return 1
        label = args.mapping
    else:
        mapping = preset(args.machine).mapping
        label = args.machine

    # Parse every query first: a bad one fails before any output.
    try:
        addrs = (
            None
            if args.phys is None
            else np.array([int(text, 0) for text in args.phys], dtype=np.uint64)
        )
    except (OverflowError, ValueError) as error:
        _LOG.error("bad --phys address: %s", error)
        return 2
    try:
        triples = [
            tuple(int(part, 0) for part in text.split(","))
            for text in args.dram or ()
        ]
        if any(len(triple) != 3 for triple in triples):
            raise ValueError("expected BANK,ROW,COL")
        coordinates = np.array(triples, dtype=np.uint64).reshape(-1, 3)
    except (OverflowError, ValueError) as error:
        _LOG.error("bad --dram coordinate: %s", error)
        return 2

    service = default_service()
    key = service.publish(mapping)
    compiled = service.compiled(key)
    print(
        f"{label}: {compiled.banks} banks × {compiled.rows} rows × "
        f"{compiled.columns} columns, key {key[:16]}…"
    )
    try:
        if addrs is not None:
            banks, rows, columns = service.translate(key, addrs)
            for addr, bank, row, column in zip(addrs, banks, rows, columns):
                print(f"0x{int(addr):012x} -> bank {int(bank)} row {int(row)} "
                      f"col {int(column)}")
        if triples:
            for (bank, row, column), addr in zip(
                triples, service.encode(key, *coordinates.T)
            ):
                print(f"bank {bank} row {row} col {column} -> 0x{int(addr):012x}")
        if args.same_bank is not None:
            addrs = service.same_bank_addresses(
                key, args.same_bank, args.count, args.column
            )
            print(f"bank {args.same_bank}, column {args.column}: "
                  + " ".join(f"0x{int(addr):012x}" for addr in addrs))
        if args.aggressors is not None:
            victims, above, below = service.adjacent_row_sets(
                key, args.aggressors, args.count, args.column, args.stride
            )
            for victim, upper, lower in zip(victims, above, below):
                print(f"victim 0x{int(victim):012x}  above 0x{int(upper):012x}  "
                      f"below 0x{int(lower):012x}")
    except ReproError as error:
        _LOG.error("%s", error)
        return 2
    if args.stats:
        stats = service.stats()
        print("service: " + ", ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _command_list(_args) -> int:
    for name in TABLE2_ORDER:
        machine_preset = preset(name)
        print(f"{name}: {machine_preset.microarchitecture} {machine_preset.cpu}, "
              f"{machine_preset.geometry.describe()}")
    return 0


def _command_fleet(args) -> int:
    from repro.fleet import FleetConfig, render_fleet, run_fleet
    from repro.fleet.orchestrator import save_artifact

    config = FleetConfig(
        size=args.fleet_size,
        families=args.families,
        profile=args.profile,
        seed=args.seed,
        max_gib=args.max_gib if args.max_gib else None,
        mismatch_every=args.mismatch_every,
        store_path=args.knowledge_store,
        journal_path=args.resume,
        jobs=args.jobs,
        wave=args.wave,
        max_candidates=args.max_candidates,
        breaker_threshold=args.breaker_threshold,
        resilient=args.resilient,
    )
    _LOG.info(
        "fleet: %d machines, %d families, profile=%s, store=%s",
        config.size,
        config.families,
        config.profile,
        config.store_path or "(in-memory)",
    )
    outcome = run_fleet(config)
    print(render_fleet(outcome), end="")
    for event in outcome.events:
        _LOG.warning("fleet degradation: %s", event.describe())
    if args.out:
        save_artifact(outcome, args.out)
        _LOG.info("fleet artifact written to %s", args.out)
    # A fleet run is only a success when every machine completed and
    # recovered its true mapping — quarantines and fallbacks are fine,
    # wrong mappings are not.
    return 0 if outcome.all_correct else 1


def _command_campaign(args) -> int:
    from repro.rowhammer.campaign import (
        CampaignSpec,
        load_artifact,
        render_artifact,
        render_campaign,
        run_campaign,
        save_artifact,
    )

    if args.campaign_command == "leaderboard":
        try:
            artifact = load_artifact(args.artifact)
        except (OSError, ValueError) as error:
            _LOG.error("cannot load campaign artifact %s: %s", args.artifact, error)
            return 1
        print(render_artifact(artifact))
        return 1 if artifact.get("failures") else 0

    spec = CampaignSpec(
        machines=tuple(args.machines),
        variants=tuple(args.variants),
        mitigations=tuple(args.mitigations),
        tests=args.tests,
        duration_seconds=args.duration,
        seed=args.seed,
    )
    supervision, journal = _grid_options(args)
    _LOG.info(
        "campaign: %d cells (%d machines × %d variants × %d mitigations "
        "× %d tests), ~%d hammer trials",
        spec.cell_count,
        len(spec.machines),
        len(spec.variants),
        len(spec.mitigations),
        spec.tests,
        spec.cell_count * spec.hammer_trials_per_test(),
    )
    outcome = run_campaign(
        spec,
        jobs=args.jobs,
        supervision=supervision,
        journal=journal,
    )
    print(render_campaign(outcome))
    if args.out:
        save_artifact(outcome, args.out)
        _LOG.info("campaign artifact written to %s", args.out)
    # A campaign with unrecovered cells is a partial sweep; the manifest
    # says so loudly and the exit code must agree.
    return 1 if outcome.failures else 0


def _command_trace(args) -> int:
    from repro.obs.export import load_trace
    from repro.obs.summary import render_summary, validate_trace

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as error:
        _LOG.error("cannot read trace %s: %s", args.path, error)
        return 1
    print(render_summary(trace))
    problems = validate_trace(trace, strict=args.strict)
    for problem in problems:
        _LOG.error("trace inconsistency: %s", problem)
    return 1 if problems else 0


def _command_obs_tail(args) -> int:
    from repro.obs.telemetry import render_event

    path = Path(args.stream)
    if not args.follow and not path.exists():
        _LOG.error("no telemetry stream at %s", path)
        return 1

    offset = 0

    def drain() -> None:
        """Render every *complete* new line; leave a torn tail unread."""
        nonlocal offset
        if not path.exists():
            return
        with open(path, "rb") as stream:
            stream.seek(offset)
            chunk = stream.read()
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        for raw in chunk[: end + 1].splitlines():
            try:
                event = parse_record(raw.decode("utf-8", errors="replace"))
            except ValueError:
                continue
            if "kind" in event:
                print(render_event(event), flush=True)
        offset += end + 1

    drain()
    if not args.follow:
        return 0
    try:
        while True:
            time.sleep(args.interval)
            drain()
    except KeyboardInterrupt:
        return 0


def _command_obs(args) -> int:
    if args.obs_command == "tail":
        return _command_obs_tail(args)
    if args.obs_command == "diff":
        from repro.obs.analytics import diff_traces, render_diff
        from repro.obs.export import load_trace

        try:
            base = load_trace(args.base)
            other = load_trace(args.other)
        except (OSError, ValueError) as error:
            _LOG.error("cannot read trace: %s", error)
            return 1
        diff = diff_traces(base, other, tolerance=args.tolerance)
        print(render_diff(diff, limit=args.limit))
        return 1 if diff.regression else 0
    if args.obs_command == "critical-path":
        from repro.obs.analytics import render_critical_path
        from repro.obs.export import load_trace

        try:
            trace = load_trace(args.trace_path)
        except (OSError, ValueError) as error:
            _LOG.error("cannot read trace %s: %s", args.trace_path, error)
            return 1
        print(render_critical_path(trace, limit=args.limit))
        return 0
    raise AssertionError(
        f"unhandled obs command {args.obs_command}"
    )  # pragma: no cover


def _dispatch_command(args) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "explain":
        return _command_explain(args)
    if args.command == "hammer":
        return _command_hammer(args)
    if args.command == "translate":
        return _command_translate(args)
    if args.command == "list":
        return _command_list(args)
    if args.command == "report":
        from repro.evalsuite.report import ReportConfig, generate_report

        supervision, journal = _grid_options(args)
        report = generate_report(
            ReportConfig(
                seed=args.seed,
                jobs=args.jobs,
                supervision=supervision,
                journal=journal,
            ),
            path=args.out,
        )
        if args.out:
            print(f"report written to {args.out}")
        else:
            print(report)
        # Every section flags unrecovered cells with an explicit
        # manifest; a partial report must not exit 0.
        return 1 if "grid failures (" in report else 0
    if args.command == "table1":
        supervision, journal = _grid_options(args)
        verdicts = run_table1(
            seed=args.seed, jobs=args.jobs, supervision=supervision, journal=journal
        )
        print(render_table1(verdicts))
        return 1 if any(verdict.grid_failed for verdict in verdicts) else 0
    if args.command == "table2":
        rows = run_table2(seed=args.seed)
        print(render_table2(rows))
        return 1 if any(isinstance(row, CellFailure) for row in rows) else 0
    if args.command == "figure2":
        supervision, journal = _grid_options(args)
        points = run_figure2(
            seed=args.seed, jobs=args.jobs, supervision=supervision, journal=journal
        )
        print(render_figure2(points))
        return 1 if any(isinstance(point, CellFailure) for point in points) else 0
    if args.command == "table3":
        supervision, journal = _grid_options(args)
        rows = run_table3(
            seed=args.seed,
            tests=args.tests,
            jobs=args.jobs,
            supervision=supervision,
            journal=journal,
        )
        print(render_table3(rows))
        return 1 if any(isinstance(row, CellFailure) for row in rows) else 0
    if args.command == "fleet":
        return _command_fleet(args)
    if args.command == "campaign":
        return _command_campaign(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "obs":
        return _command_obs(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _execute(args) -> int:
    """Dispatch the command, under a tracer when ``--trace`` was given.

    The trace export sits in a ``finally`` so an interrupted run still
    salvages a partial trace: its in-flight spans come out with status
    ``open`` and ``dramdig trace summary`` renders them as ``UNCLOSED``
    partial accounting.
    """
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return _dispatch_command(args)

    from repro.obs import tracing as obs
    from repro.obs.export import export_trace

    tracer = obs.Tracer()
    try:
        with obs.activate(tracer):
            return _dispatch_command(args)
    finally:
        export_trace(
            trace_path, tracer, meta={"command": args.command, "seed": args.seed}
        )
        _LOG.info("trace written to %s", trace_path)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    With ``--trace PATH`` the whole command runs under an activated
    tracer, and the collected spans and metrics are exported as one
    JSONL file afterwards — grid commands stitch the spans their cells
    return into the same trace. With ``--telemetry PATH`` a live event
    bus is activated for the same extent and progress events stream to
    PATH as they happen. Without the flags both globals stay ``None``
    and every instrumented hot path reduces to a single is-None test.
    A journal or store path naming a file of another format exits 2.
    """
    args = _build_parser().parse_args(argv)
    setup_logging(args.log_level, quiet=args.quiet)
    started = time.perf_counter()
    try:
        if args.telemetry:
            from repro.obs import telemetry

            bus = telemetry.TelemetryBus(args.telemetry, source="main")
            with telemetry.activate_bus(bus):
                telemetry.emit("run-start", command=args.command, seed=args.seed)
                code = _execute(args)
                telemetry.emit(
                    "run-end",
                    command=args.command,
                    code=code,
                    wall_s=round(time.perf_counter() - started, 6),
                )
        else:
            code = _execute(args)
    except RecordFileError as error:
        _LOG.error("refusing %s", error)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
