"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "No.1: Sandy Bridge i5-2400" in out
    assert out.count("No.") >= 9


def test_run_machine(capsys):
    assert main(["run", "No.4"]) == 0
    out = capsys.readouterr().out
    assert "matches ground truth: yes" in out
    assert "(13, 16)" in out


def test_run_rejects_unknown_machine(capsys):
    with pytest.raises(SystemExit):
        main(["run", "No.42"])


def test_compare(capsys):
    assert main(["--seed", "2", "compare", "No.4"]) == 0
    out = capsys.readouterr().out
    assert "== DRAMDig on No.4 ==" in out
    assert "== DRAMA on No.4 ==" in out
    assert "== Xiao et al. on No.4 ==" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_explain(capsys):
    assert main(["explain", "No.2"]) == 0
    out = capsys.readouterr().out
    assert "shared bits" in out
    assert "bank4 = XOR of bits (7, 8, 9, 12, 13, 18, 19)" in out


def test_hammer(capsys):
    assert main(["hammer", "No.4", "--tests", "1", "--minutes", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "mapping recovered" in out
    assert "1 tests" in out


def test_run_save(tmp_path, capsys):
    from repro.dram.serialization import load_mapping
    from repro.dram.presets import preset

    target = tmp_path / "mapping.json"
    assert main(["run", "No.4", "--save", str(target)]) == 0
    assert "mapping saved" in capsys.readouterr().out
    assert load_mapping(target).equivalent_to(preset("No.4").mapping)


def test_jobs_rejects_zero_and_negative(capsys):
    for bad in ("0", "-8"):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", bad])
    err = capsys.readouterr().err
    assert "--jobs must be a positive integer or -1" in err


def test_jobs_rejects_non_integer(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "--jobs", "many"])
    assert "--jobs" in capsys.readouterr().err


def test_max_retries_rejects_negative(capsys):
    with pytest.raises(SystemExit):
        main(["run", "No.4", "--max-retries", "-1"])
    assert "--max-retries must be non-negative" in capsys.readouterr().err


def test_cell_timeout_rejects_non_positive(capsys):
    for bad in ("0", "-3", "abc", "nan"):
        with pytest.raises(SystemExit):
            main(["table1", "--cell-timeout", bad])
    assert "--cell-timeout" in capsys.readouterr().err


def test_run_deadline_rejects_non_positive(capsys):
    for bad in ("0", "nan"):
        with pytest.raises(SystemExit):
            main(["figure2", "--run-deadline", bad])
        assert "positive number of seconds" in capsys.readouterr().err


def test_grid_retries_rejects_negative(capsys):
    with pytest.raises(SystemExit):
        main(["table3", "--grid-retries", "-1"])
    assert "--grid-retries must be non-negative" in capsys.readouterr().err


def test_max_gib_rejects_a_cap_below_every_geometry(monkeypatch, capsys):
    """No random geometry is smaller than 4 GiB, so a lower cap would
    scan family seeds forever; 0 means uncapped."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "_command_fleet", lambda args: 0)
    for bad in ("3", "1", "-1"):
        with pytest.raises(SystemExit):
            main(["fleet", "run", "--max-gib", bad])
        assert "--max-gib must be 0 (uncapped) or at least 4" in (
            capsys.readouterr().err
        )
    for good in ("0", "4"):
        assert main(["fleet", "run", "--max-gib", good]) == 0


@pytest.mark.parametrize(
    "option, floor",
    [("--fleet-size", 1), ("--families", 1), ("--wave", 1), ("--max-candidates", 1),
     ("--breaker-threshold", 1), ("--mismatch-every", 2)],
)
def test_fleet_count_options_reject_values_below_their_floor(
    monkeypatch, capsys, option, floor
):
    """Each bound is the one the fleet layer enforces; a value below it is
    a usage error (exit 2), not a traceback from the fleet layer."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "_command_fleet", lambda args: 0)
    for bad in (str(floor - 1), "-1"):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "run", option, bad])
        assert exit_info.value.code == 2
        assert f"{option} must be at least {floor} (got {bad})" in (
            capsys.readouterr().err
        )
    assert main(["fleet", "run", option, str(floor)]) == 0


def test_grid_flags_build_supervision(monkeypatch, capsys):
    """The crash-safety flags reach run_table1 as a GridPolicy + journal."""
    import repro.cli as cli
    from repro.evalsuite.table1 import ToolVerdict

    seen = {}

    def fake_run_table1(seed, jobs, supervision, journal):
        seen.update(
            seed=seed, jobs=jobs, supervision=supervision, journal=journal
        )
        return [
            ToolVerdict(
                tool="DRAMDig", generic=True, efficient=True,
                deterministic=True, successes=1, panel_size=1,
                median_seconds=1.0,
            )
        ]

    monkeypatch.setattr(cli, "run_table1", fake_run_table1)
    assert main(
        ["table1", "--resume", "j.jsonl", "--cell-timeout", "30",
         "--grid-retries", "2"]
    ) == 0
    assert seen["journal"] == "j.jsonl"
    assert seen["supervision"].cell_timeout_s == 30.0
    assert seen["supervision"].retries == 2
    assert seen["supervision"].run_deadline_s is None


def _capture_table1_grid_args(monkeypatch):
    """Stub run_table1; return the list its (supervision, journal) land in."""
    import repro.cli as cli
    from repro.evalsuite.table1 import ToolVerdict

    seen = []

    def fake_run_table1(seed, jobs, supervision, journal):
        seen.append((supervision, journal))
        return [
            ToolVerdict(
                tool="DRAMDig", generic=True, efficient=True,
                deterministic=True, successes=1, panel_size=1,
                median_seconds=1.0,
            )
        ]

    monkeypatch.setattr(cli, "run_table1", fake_run_table1)
    return seen


def test_resume_alone_enables_supervision(monkeypatch, capsys):
    """--resume alone passes its journal with the default GridPolicy."""
    from repro.parallel import GridPolicy

    seen = _capture_table1_grid_args(monkeypatch)
    assert main(["table1", "--resume", "j.jsonl"]) == 0
    assert seen == [(GridPolicy(), "j.jsonl")]


def test_default_grid_flags_keep_fail_fast_path(monkeypatch, capsys):
    """Unflagged runs get GridPolicy() and no journal.

    The default policy has no retries and no timeouts, so a failing cell
    fails at its first attempt.
    """
    from repro.parallel import GridPolicy

    seen = _capture_table1_grid_args(monkeypatch)
    assert main(["table1"]) == 0
    assert seen == [(GridPolicy(), None)]
    assert seen[0][0].retries == 0
    assert seen[0][0].cell_timeout_s is None
    assert seen[0][0].run_deadline_s is None


def test_unflagged_figure2_renders_a_failed_cell(monkeypatch, capsys):
    """A failing cell renders as FAILED with a manifest, exit 1, no flags."""
    import repro.evalsuite.figure2 as figure2

    def stub_cell(name, seed, dramdig_config, drama_config):
        if name == "No.4":
            raise RuntimeError("injected cell failure")
        return figure2.Figure2Point(
            machine=name, dramdig_seconds=60.0, drama_seconds=600.0,
            drama_timed_out=False, dramdig_pool_size=1000,
        )

    monkeypatch.setattr(figure2, "figure2_machine_cell", stub_cell)
    assert main(["figure2"]) == 1
    out = capsys.readouterr().out
    assert "FAILED(error)" in out
    assert "grid failures (" in out


def test_partial_table1_exits_nonzero(monkeypatch, capsys):
    import repro.cli as cli
    from repro.evalsuite.table1 import ToolVerdict

    def fake_run_table1(seed, jobs, supervision, journal):
        return [
            ToolVerdict(
                tool="DRAMDig", generic=False, efficient=True,
                deterministic=True, successes=0, panel_size=1,
                median_seconds=float("nan"),
                notes="grid FAILED: No.1",
                grid_failed=("No.1",),
            )
        ]

    monkeypatch.setattr(cli, "run_table1", fake_run_table1)
    assert main(["table1", "--grid-retries", "1"]) == 1
    assert "grid FAILED: No.1" in capsys.readouterr().out


def test_run_rejects_unknown_noise_profile(capsys):
    with pytest.raises(SystemExit):
        main(["run", "No.4", "--noise-profile", "imaginary"])


def test_run_with_noise_profile_recovers(capsys):
    assert main(["run", "No.1", "--noise-profile", "drift"]) == 0
    captured = capsys.readouterr()
    # status lines go to stderr (logging); artefact output stays on stdout
    assert "noise profile: drift (adaptive recovery enabled)" in captured.err
    assert "matches ground truth: yes" in captured.out


def test_status_lines_go_to_stderr(capsys):
    assert main(["run", "No.4"]) == 0
    captured = capsys.readouterr()
    assert "Reverse-engineering No.4" in captured.err
    assert "Reverse-engineering" not in captured.out


def test_quiet_suppresses_status_lines(capsys):
    assert main(["--quiet", "run", "No.4"]) == 0
    captured = capsys.readouterr()
    assert "Reverse-engineering" not in captured.err
    assert "matches ground truth: yes" in captured.out


def test_run_trace_roundtrips_through_summary(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(["run", "No.4", "--trace", str(trace_path)]) == 0
    captured = capsys.readouterr()
    assert f"trace written to {trace_path}" in captured.err
    assert trace_path.exists()

    from repro.obs.export import load_trace

    trace = load_trace(trace_path)
    assert trace.header["command"] == "run"
    assert any(span.name == "dramdig" for span in trace.spans)

    assert main(["trace", "summary", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "dramdig" in out
    assert "metrics:" in out
    assert "probe.pair_measurements" in out


def test_trace_summary_rejects_missing_and_garbage(tmp_path, capsys):
    assert main(["trace", "summary", str(tmp_path / "absent.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text('{"format": "something-else", "version": 1}\n')
    assert main(["trace", "summary", str(garbage)]) == 1
    assert "cannot read trace" in capsys.readouterr().err


def test_trace_summary_flags_inconsistent_trace(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        "\n".join(
            [
                json.dumps({"format": "dramdig-trace", "version": 1}),
                json.dumps(
                    {
                        "type": "span", "id": 1, "parent": None,
                        "name": "dramdig", "path": "dramdig",
                        "attrs": {"measurements": 10},
                    }
                ),
                json.dumps(
                    {
                        "type": "span", "id": 2, "parent": 1,
                        "name": "calibrate", "path": "dramdig/calibrate",
                        "attrs": {"measurements": 7},
                    }
                ),
            ]
        )
        + "\n"
    )
    assert main(["trace", "summary", str(bad)]) == 1
    assert "trace inconsistency" in capsys.readouterr().err


class TestTranslate:
    def test_phys_to_dram(self, capsys):
        assert main(["translate", "No.2", "--phys", "0x1ed2f00"]) == 0
        out = capsys.readouterr().out
        assert "32 banks" in out
        assert "0x000001ed2f00 -> bank 31 row 123 col 6016" in out

    def test_dram_to_phys_roundtrip(self, capsys):
        from repro.dram.presets import preset

        assert main(["translate", "No.2", "--dram", "3,17,5"]) == 0
        out = capsys.readouterr().out
        phys = int(out.splitlines()[-1].split("-> ")[1], 16)
        mapping = preset("No.2").mapping
        decoded = mapping.dram_address(phys)
        assert (decoded.bank, decoded.row, decoded.column) == (3, 17, 5)

    def test_generators_and_stats(self, capsys):
        assert main([
            "translate", "No.1", "--same-bank", "2", "--count", "3",
            "--aggressors", "1", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "bank 2, column 0:" in out
        assert out.count("victim 0x") == 3
        assert "service:" in out and "cached_mappings=" in out

    def test_saved_mapping_file(self, tmp_path, capsys):
        target = tmp_path / "mapping.json"
        assert main(["run", "No.4", "--save", str(target)]) == 0
        capsys.readouterr()
        assert main(["translate", "--mapping", str(target), "--phys", "12345"]) == 0
        assert "-> bank" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["translate"]) == 2
        assert main(["translate", "No.1", "--mapping", "x.json"]) == 2

    def test_bad_inputs(self, capsys, tmp_path):
        assert main(["translate", "No.1", "--phys", "zzz"]) == 2
        assert main(["translate", "No.1", "--dram", "1,2"]) == 2
        assert main(["translate", "--mapping", str(tmp_path / "nope.json")]) == 1
        # Out of range for No.1 (8 GiB, 16 banks): refused, never aliased.
        for argv in (
            ["--phys", "0x200000000"],
            ["--phys=-5"],
            ["--dram", "99,0,0"],
            ["--dram=-1,0,0"],
            ["--same-bank", "99"],
            ["--same-bank", "2", "--column", "99999"],
            ["--aggressors", "1", "--count", "-2"],
        ):
            assert main(["translate", "No.1", *argv]) == 2, argv
            assert "->" not in capsys.readouterr().out


class TestHammerValidation:
    """The hammer flags are validated at the argparse layer: bad values
    exit with a usage error before any simulation starts."""

    def test_rejects_zero_and_negative_tests(self, capsys):
        for command in (["hammer", "No.4"], ["table3"]):
            for bad in ("0", "-3"):
                with pytest.raises(SystemExit):
                    main([*command, "--tests", bad])
                assert "--tests must be a positive integer" in (
                    capsys.readouterr().err
                )

    def test_rejects_non_positive_minutes(self, capsys):
        for bad in ("0", "-5", "-0.5", "nan", "inf", "1e308"):
            with pytest.raises(SystemExit):
                main(["hammer", "No.4", "--minutes", bad])
        assert "test duration must be positive" in capsys.readouterr().err

    def test_rejects_negative_decoy_rows(self, capsys):
        with pytest.raises(SystemExit):
            main(["hammer", "No.4", "--decoy-rows", "-1"])
        assert "--decoy-rows must be non-negative" in capsys.readouterr().err

    def test_rejects_vulnerability_outside_unit_interval(self, capsys):
        for bad in ("1.5", "-0.1"):
            with pytest.raises(SystemExit):
                main(["hammer", "No.4", "--vulnerability", bad])
        assert "--vulnerability must be within [0, 1]" in capsys.readouterr().err

    def test_rejects_non_numeric_values(self, capsys):
        for flag, bad in (
            ("--tests", "many"), ("--minutes", "short"),
            ("--decoy-rows", "few"), ("--vulnerability", "high"),
        ):
            with pytest.raises(SystemExit):
                main(["hammer", "No.4", flag, bad])

    def test_decoy_rows_and_vulnerability_accepted(self, capsys):
        assert main([
            "hammer", "No.4", "--tests", "1", "--minutes", "0.5",
            "--decoy-rows", "2", "--vulnerability", "0.3",
        ]) == 0
        assert "1 tests" in capsys.readouterr().out


class TestCampaignCli:
    SWEEP = [
        "campaign", "run", "--machines", "No.1", "--variants",
        "double_sided", "single_sided", "--mitigations", "none",
        "--tests", "1", "--duration", "5",
    ]

    def test_run_renders_the_leaderboard(self, capsys):
        assert main(list(self.SWEEP)) == 0
        out = capsys.readouterr().out
        assert "campaign flip-yield leaderboard" in out
        assert "2/2 tests" in out
        assert "double_sided" in out and "single_sided" in out

    def test_run_saves_a_loadable_artifact(self, tmp_path, capsys):
        from repro.rowhammer.campaign import load_artifact

        out_path = tmp_path / "campaign.json"
        assert main(list(self.SWEEP) + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        artifact = load_artifact(out_path)
        assert artifact["totals"]["tests"] == 2

    def test_leaderboard_rerenders_the_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.json"
        assert main(list(self.SWEEP) + ["--out", str(out_path)]) == 0
        run_out = capsys.readouterr().out
        assert main(["campaign", "leaderboard", str(out_path)]) == 0
        board_out = capsys.readouterr().out
        assert "campaign flip-yield leaderboard" in board_out
        for line in board_out.strip().splitlines():
            assert line in run_out

    def test_leaderboard_rejects_missing_and_foreign_files(self, tmp_path, capsys):
        assert main(["campaign", "leaderboard", str(tmp_path / "no.json")]) == 1
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"format": "other"}')
        assert main(["campaign", "leaderboard", str(foreign)]) == 1

    def test_run_rejects_unknown_axis_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--variants", "quad_sided"])
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--machines", "No.99"])
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--mitigations", "prayer"])

    def test_run_validates_tests_and_duration(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--tests", "0"])
        for bad in ("-1", "nan", "inf"):
            with pytest.raises(SystemExit):
                main(["campaign", "run", "--duration", bad])

    def test_run_resumes_from_a_journal(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        assert main(list(self.SWEEP) + ["--resume", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(list(self.SWEEP) + ["--resume", str(journal)]) == 0
        assert capsys.readouterr().out == first


class TestObsCli:
    """The --telemetry plumbing and the obs subcommand group."""

    @staticmethod
    def _write_trace(path, partition_ns):
        import json

        spans = [
            {"type": "span", "id": 1, "parent": None, "name": "dramdig",
             "path": "dramdig", "sim_start_ns": 0.0,
             "sim_end_ns": partition_ns + 1e9},
            {"type": "span", "id": 2, "parent": 1, "name": "partition",
             "path": "dramdig/partition", "sim_start_ns": 0.0,
             "sim_end_ns": partition_ns},
        ]
        lines = [json.dumps({"format": "dramdig-trace", "version": 1})]
        lines += [json.dumps(span) for span in spans]
        lines.append(json.dumps({"type": "metrics"}))
        path.write_text("\n".join(lines) + "\n")

    def test_telemetry_stream_and_tail(self, tmp_path, capsys):
        stream = tmp_path / "run.stream"
        assert main(["--telemetry", str(stream), "run", "No.4"]) == 0
        capsys.readouterr()

        from repro.obs.telemetry import load_events

        events = load_events(stream)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert "phase" in kinds

        assert main(["obs", "tail", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "run-start" in out
        assert "phase" in out
        assert out.count("\n") == len(events)

    def test_telemetry_off_leaves_no_stream(self, tmp_path, capsys):
        assert main(["run", "No.4"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("wall", ['"x"', "1e300", "NaN"])
    def test_tail_renders_an_unusable_wall_as_unknown(self, tmp_path, capsys, wall):
        stream = tmp_path / "run.stream"
        stream.write_text(
            f'{{"kind": "cell", "wall": {wall}}}\n'
            f'{{"kind": "run-end", "wall": {wall}, "code": 0}}\n'
        )
        assert main(["obs", "tail", str(stream)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("? [?] ") for line in lines)

    def test_tail_rejects_missing_stream(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path / "absent.stream")]) == 1
        assert "no telemetry stream" in capsys.readouterr().err

    def test_obs_diff_equal_traces_exit_zero(self, tmp_path, capsys):
        base, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(base, 3e9)
        self._write_trace(other, 3e9)
        assert main(["obs", "diff", str(base), str(other)]) == 0
        out = capsys.readouterr().out
        assert "delta=+0.000s" in out
        assert "ok" in out

    def test_obs_diff_regression_exits_one(self, tmp_path, capsys):
        base, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(base, 3e9)
        self._write_trace(other, 4e9)
        assert main(["obs", "diff", str(base), str(other)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "attribution: dramdig/partition" in out
        # the same pair within a wide tolerance passes
        assert main([
            "obs", "diff", str(base), str(other), "--tolerance", "0.5",
        ]) == 0

    def test_obs_diff_tolerance_rejects_negative_and_nan(self, tmp_path, capsys):
        base, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(base, 3e9)
        self._write_trace(other, 300e9)
        for bad in ("-0.1", "nan"):
            with pytest.raises(SystemExit):
                main(["obs", "diff", str(base), str(other), "--tolerance", bad])
            assert "--tolerance must be non-negative" in capsys.readouterr().err
        assert main(["obs", "diff", str(base), str(other), "--tolerance", "0"]) == 1

    def test_obs_diff_rejects_missing_trace(self, tmp_path, capsys):
        assert main([
            "obs", "diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_obs_critical_path(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, 3e9)
        assert main(["obs", "critical-path", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dramdig" in out
        assert "partition" in out
        assert main(["obs", "critical-path", str(trace), "--limit", "1"]) == 0
        assert "partition" not in capsys.readouterr().out

    def test_trace_commands_refuse_a_non_object_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, 3e9)
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:2] + ["[1, 2]"] + lines[2:]) + "\n")
        for argv in (["trace", "summary"], ["obs", "critical-path"]):
            assert main([*argv, str(trace)]) == 1
            assert f"cannot read trace {trace}: {trace}:3: not an object" in (
                capsys.readouterr().err
            )

    @pytest.mark.parametrize(
        "metrics",
        [{"type": "metrics", "counters": {"a": [1]}},
         {"type": "metrics", "histograms": {"h": {"count": "x"}}}],
    )
    def test_trace_commands_refuse_a_mistyped_metric(self, tmp_path, capsys, metrics):
        import json

        trace, clean = tmp_path / "trace.jsonl", tmp_path / "clean.jsonl"
        self._write_trace(trace, 3e9)
        self._write_trace(clean, 3e9)
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1] + [json.dumps(metrics)]) + "\n")
        for argv in (
            ["trace", "summary", str(trace)],
            ["obs", "critical-path", str(trace)],
            ["obs", "diff", str(clean), str(trace)],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{trace}:4: metrics" in err and "is not a number" in err

    def test_resume_refuses_a_trace_and_leaves_it_untouched(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, 3e9)
        before = trace.read_bytes()
        assert main(["table1", "--resume", str(trace)]) == 2
        err = capsys.readouterr().err
        assert f"refusing {trace}: not a dramdig-grid-journal file" in err
        assert trace.read_bytes() == before

    @pytest.mark.parametrize(
        "argv", [["--history", "h.jsonl", "run", "No.4"], ["obs", "history"]]
    )
    def test_the_run_history_ledger_is_gone(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as error:
            main(argv)
        assert error.value.code == 2

    def test_trace_summary_strict_flags_open_spans(self, tmp_path, capsys):
        import json

        trace = tmp_path / "killed.jsonl"
        lines = [
            json.dumps({"format": "dramdig-trace", "version": 1}),
            json.dumps({"type": "span", "id": 1, "parent": None,
                        "name": "dramdig", "path": "dramdig",
                        "status": "open"}),
            json.dumps({"type": "span", "id": 3, "parent": 99,
                        "name": "stray", "path": "stray"}),
        ]
        trace.write_text("\n".join(lines) + "\n")
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "UNCLOSED" in out
        assert "(orphan: parent 99 missing from trace)" in out
        assert main(["trace", "summary", str(trace), "--strict"]) == 1
        assert "trace inconsistency" in capsys.readouterr().err

    def test_interrupted_traced_run_salvages_a_partial_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        real_dispatch = cli._dispatch_command

        def boom(args):
            if args.command != "run":
                return real_dispatch(args)
            from repro.obs import tracing

            tracer = tracing.current_tracer()
            scope = tracer.span("dramdig")
            scope.__enter__()  # never closed: the run dies mid-span
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch_command", boom)
        trace = tmp_path / "partial.jsonl"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "No.4", "--trace", str(trace)])
        capsys.readouterr()
        assert trace.exists()
        assert main(["trace", "summary", str(trace)]) == 0
        assert "UNCLOSED" in capsys.readouterr().out


class TestQuietProgressRouting:
    """--quiet must silence fleet/campaign progress while leaving the
    artefact bytes on stdout untouched."""

    def test_quiet_silences_campaign_progress(self, capsys):
        sweep = TestCampaignCli.SWEEP
        assert main(list(sweep)) == 0
        noisy = capsys.readouterr()
        assert "campaign:" in noisy.err
        assert main(["--quiet"] + list(sweep)) == 0
        quiet = capsys.readouterr()
        assert "campaign:" not in quiet.err
        assert quiet.out == noisy.out

    def test_quiet_silences_fleet_wave_progress(self, capsys):
        args = [
            "fleet", "run", "--fleet-size", "3", "--families", "1",
            "--wave", "2",
        ]
        assert main(list(args)) == 0
        noisy = capsys.readouterr()
        assert "wave 1/" in noisy.err
        assert "folded:" in noisy.err
        assert main(["--quiet"] + list(args)) == 0
        quiet = capsys.readouterr()
        assert "wave" not in quiet.err
        assert quiet.out == noisy.out
