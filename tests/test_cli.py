"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSchedule:
    def test_inline_times(self, capsys):
        code = main(["schedule", "--machines", "3", "--times", "27", "19", "19",
                     "15", "12", "8", "8", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "loads" in out

    def test_random_instance(self, capsys):
        code = main(["schedule", "--machines", "4", "--random", "20", "--seed", "1"])
        assert code == 0
        assert "PTAS" in capsys.readouterr().out

    def test_baselines_flag(self, capsys):
        code = main(["schedule", "--machines", "2", "--times", "5", "6", "7",
                     "--baselines"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LPT" in out and "MULTIFIT" in out

    def test_search_choice(self, capsys):
        code = main(["schedule", "--machines", "2", "--times", "5", "6", "7",
                     "--search", "bisection"])
        assert code == 0
        assert "bisection" in capsys.readouterr().out

    def test_missing_input_errors(self, capsys):
        code = main(["schedule", "--machines", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_deterministic_with_seed(self, capsys):
        main(["schedule", "--machines", "3", "--random", "15", "--seed", "9"])
        first = capsys.readouterr().out
        main(["schedule", "--machines", "3", "--random", "15", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestProfiling:
    ARGS = ["schedule", "--machines", "4", "--random", "25", "--seed", "6"]

    def test_profile_prints_phases_and_counters(self, capsys):
        code = main(self.ARGS + ["--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== profile" in out
        assert "probe.dp" in out
        assert "probe.count" in out

    def test_cache_flag_with_profile_prints_stats(self, capsys):
        code = main(self.ARGS + ["--cache", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: CacheStats(" in out
        assert "cache.dp" in out  # cache counters flow into the tracer

    def test_trace_json_writes_one_record_per_probe(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        code = main(self.ARGS + ["--trace-json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload) == {"phases", "counters", "probes"}
        # "N DP probes" printed by the schedule summary must match.
        probes_printed = int(out.split(" DP probes")[0].rsplit(" ", 1)[-1])
        assert len(payload["probes"]) == probes_printed

    def test_cache_does_not_change_output(self, capsys):
        main(self.ARGS)
        plain = capsys.readouterr().out
        main(self.ARGS + ["--cache"])
        cached = capsys.readouterr().out
        assert cached == plain


class TestBackendFlag:
    ARGS = ["schedule", "--machines", "4", "--random", "25", "--seed", "6"]

    def test_simulated_backend_reports_accounting(self, capsys):
        code = main(self.ARGS + ["--backend", "gpu-dim6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend gpu-dim6: simulated" in out
        assert "rounds" in out and "device-streams" in out

    def test_backend_does_not_change_makespan(self, capsys):
        main(self.ARGS)
        default_out = capsys.readouterr().out
        makespan_line = next(
            line for line in default_out.splitlines() if "makespan" in line
        )
        for backend in ("auto", "sweep", "serial", "omp-28", "hybrid"):
            code = main(self.ARGS + ["--backend", backend])
            assert code == 0
            assert makespan_line in capsys.readouterr().out, backend

    def test_family_backend_resolves(self, capsys):
        code = main(self.ARGS + ["--backend", "omp-40"])
        assert code == 0
        assert "backend omp-40" in capsys.readouterr().out

    def test_pure_backend_prints_no_accounting(self, capsys):
        code = main(self.ARGS + ["--backend", "vectorized"])
        assert code == 0
        assert "simulated" not in capsys.readouterr().out

    def test_unknown_backend_exits_2_listing_names(self, capsys):
        removed = ("decision", "dp-decision", "frontier", "dp-frontier",
                   "frontier-decision", "decision-frontier")
        for name in ("tpu-v5", "hostpar-2", *removed):
            code = main(self.ARGS + ["--backend", name])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown backend {name!r}" in err
            # The error must teach the valid vocabulary.
            assert "vectorized" in err and "gpu-dim6" in err

    def test_backend_with_profile_and_cache(self, capsys):
        code = main(self.ARGS + ["--backend", "gpu-dim6", "--profile", "--cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend gpu-dim6: simulated" in out
        assert "== profile" in out


class TestEngines:
    def test_runs_and_agrees(self, capsys):
        code = main(["engines", "--jobs", "25", "--machines", "4", "--seed", "3",
                     "--dims", "3", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "identical across engines" in out
        assert "gpu-dim5" in out

    def test_explicit_target(self, capsys):
        code = main(["engines", "--jobs", "20", "--machines", "4", "--seed", "2",
                     "--target", "150"])
        assert code == 0
        assert "T=150" in capsys.readouterr().out

    def test_iterates_the_registry(self, capsys):
        # Every registered simulated backend appears in the comparison
        # (the gpu-dim family expanded from --dims).
        code = main(["engines", "--jobs", "25", "--machines", "4", "--seed", "3",
                     "--dims", "6"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("serial", "omp-16", "omp-28", "gpu-naive", "gpu-dim6",
                     "hybrid"):
            assert name in out, name


class TestExperiment:
    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "block_level" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert main(["experiment", "tables"]) == 0
        assert "match_dim3" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "partition_dim" in capsys.readouterr().out

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestFileIO:
    def test_from_file_and_save(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        sched_path = tmp_path / "out.txt"
        inst_path.write_text("machines 3\ntimes 27 19 19 15 12 8 8 5\n")
        code = main(["schedule", "--from-file", str(inst_path),
                     "--save-schedule", str(sched_path)])
        assert code == 0
        from repro.core.io import load_schedule

        schedule = load_schedule(sched_path)
        assert schedule.makespan > 0

    def test_machines_required_without_file(self, capsys):
        code = main(["schedule", "--times", "1", "2"])
        assert code == 2
        assert "machines" in capsys.readouterr().err

    def test_census_exhibit(self, capsys):
        assert main(["experiment", "census"]) == 0
        assert "census" in capsys.readouterr().out.lower() or True

    def test_fig1_exhibit(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        assert "core" in capsys.readouterr().out


class TestExitCodes:
    """The documented exit-code taxonomy (docs/RELIABILITY.md)."""

    def test_invalid_instance_is_3(self, capsys):
        code = main(["schedule", "--machines", "0", "--times", "5", "6"])
        assert code == 3
        assert "invalid instance" in capsys.readouterr().err

    def test_memory_budget_exceeded_is_5(self, capsys):
        code = main(["schedule", "--machines", "3", "--times", "5", "7", "3",
                     "9", "4", "6", "2", "--memory-budget", "16"])
        assert code == 5
        assert "memory budget" in capsys.readouterr().err

    def test_backend_failure_is_4(self, capsys):
        # Deterministic oom on every dp fill, no retries to absorb it.
        code = main(["schedule", "--machines", "3", "--times", "5", "7", "3",
                     "9", "4", "6", "2", "--inject-faults",
                     "seed=0,rate=1.0,kinds=oom,sites=dp,max=1000000"])
        assert code == 4
        assert "backend failure" in capsys.readouterr().err

    def test_unknown_backend_stays_usage_error(self, capsys):
        commands = (
            ["schedule", "--machines", "2", "--times", "5", "6"],
            ["batch", "--requests", "1", "--jobs", "6", "--machines", "2",
             "--workers", "1"],
            ["serve", "--requests", "2", "--jobs", "6", "--machines", "2",
             "--time-scale", "0.01"],
        )
        for command in commands:
            for backend in ("no-such-backend", "fallback:auto,no-such-backend"):
                code = main([*command, "--backend", backend])
                assert code == 2, (command[0], backend)

    def test_byte_suffix_parsing(self):
        from repro.cli import parse_bytes

        assert parse_bytes("4096") == 4096
        assert parse_bytes("64KiB") == 64 * 1024
        assert parse_bytes("16MB") == 16 * 10**6
        assert parse_bytes("2gib") == 2 * 2**30
        with pytest.raises(Exception):
            parse_bytes("lots")


class TestResilienceFlags:
    def test_faults_with_retries_still_succeeds(self, capsys):
        code = main(["schedule", "--machines", "3", "--times", "5", "7", "3",
                     "9", "4", "6", "2", "--inject-faults",
                     "seed=3,rate=0.4,kinds=dperror|crash,sites=dp|probe,max=1",
                     "--retries", "5"])
        assert code == 0
        assert "makespan" in capsys.readouterr().out

    def test_fault_injection_is_deterministic(self, capsys):
        args = ["schedule", "--machines", "3", "--times", "5", "7", "3", "9",
                "4", "6", "2", "--inject-faults",
                "seed=11,rate=0.5,kinds=dperror,sites=dp,max=1",
                "--retries", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_fallback_member_fault_steps_down_like_batch(self, capsys):
        # Poison only the chain's head member: the chain steps down,
        # serves the unpoisoned answer, and the fault is counted exactly
        # as `batch` counts it on the same instance.
        spec = "seed=1,rate=1.0,kinds=oom,sites=dp.auto,max=1000000"
        schedule = ["schedule", "--machines", "3", "--random", "10",
                    "--seed", "0", "--backend", "fallback"]
        assert main(schedule) == 0
        clean = capsys.readouterr().out.splitlines()
        assert main(schedule + ["--inject-faults", spec, "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == clean[:3]
        assert "resilience.fallback.recovered" in out
        assert main(["batch", "--requests", "1", "--jobs", "10",
                     "--machines", "3", "--seed", "0", "--backend",
                     "fallback", "--inject-faults", spec]) == 0
        injected = capsys.readouterr().out.splitlines()[-1]
        assert injected.startswith("faults injected: ")
        assert injected in out.splitlines()

    def test_bad_fault_spec_is_usage_error(self, capsys):
        code = main(["schedule", "--machines", "2", "--times", "5", "6",
                     "--inject-faults", "seed=1,bogus=2"])
        assert code == 2


class TestBatchCommand:
    def test_healthy_batch_exits_zero(self, capsys):
        code = main(["batch", "--requests", "2", "--jobs", "8",
                     "--machines", "3", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("makespan") >= 2 and "0 degraded" in out

    def test_degraded_batch_exits_six(self, capsys):
        code = main(["batch", "--requests", "2", "--jobs", "8",
                     "--machines", "3", "--backend", "fallback",
                     "--inject-faults",
                     "seed=1,rate=1.0,kinds=oom,"
                     "sites=dp.auto|dp.sweep|dp.vectorized,max=1000000"])
        assert code == 6
        out = capsys.readouterr().out
        assert "DEGRADED" in out and "2 degraded" in out

    def test_no_degrade_turns_failure_into_exit_four(self, capsys):
        code = main(["batch", "--requests", "2", "--jobs", "8",
                     "--machines", "3", "--backend", "fallback",
                     "--no-degrade", "--inject-faults",
                     "seed=1,rate=1.0,kinds=oom,"
                     "sites=dp.auto|dp.sweep|dp.vectorized,max=1000000"])
        assert code == 4
        assert "backend failure" in capsys.readouterr().err

    def test_batch_memory_budget_degrades(self, capsys):
        code = main(["batch", "--requests", "2", "--jobs", "8",
                     "--machines", "3", "--memory-budget", "1"])
        assert code == 6
        assert "DEGRADED" in capsys.readouterr().out

    def test_bad_request_count_is_usage_error(self, capsys):
        assert main(["batch", "--requests", "0"]) == 2


class TestRemovedProcessPoolSurfaces:
    """No flag or command configures a process pool: they exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "--fill-workers", "2"],
            ["batch", "--fill-min-cells", "1"],
            ["schedule", "--machines", "2", "--times", "5", "6",
             "--fill-workers", "2"],
            ["serve", "--fill-workers", "2"],
            ["health"],
            ["health", "--self-test"],
        ],
    )
    def test_exits_two_as_unknown_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err


class TestServeCommand:
    #: a small, fast workload: 8 requests arriving (nominally) at 200/s,
    #: compressed 10x so the whole run is a few milliseconds of sleeping.
    ARGS = ["serve", "--requests", "8", "--jobs", "10", "--machines", "3",
            "--arrival-rate", "200", "--time-scale", "0.1", "--seed", "5"]

    def test_healthy_run_exits_zero(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "serve: 8 requests" in out
        assert "0 bound-first violations" in out
        # Latency percentiles for both stages.
        assert "bound: p50" in out and "refined: p50" in out

    def test_duplicates_coalesce(self, capsys):
        # Every arrival after the first duplicates an earlier instance
        # and the flood lands faster than the pipeline drains, so at
        # least one must coalesce.
        code = main(["serve", "--requests", "6", "--jobs", "12",
                     "--machines", "3", "--arrival-rate", "5000",
                     "--time-scale", "0.01", "--duplicate-fraction", "1.0",
                     "--workers", "1", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        coalesced = int(out.split(" coalesced")[0].rsplit(" ", 1)[-1])
        assert coalesced >= 1

    def test_stats_json_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "serve.json"
        code = main(self.ARGS + ["--stats-json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["submitted"] == 8
        assert payload["bound_first_violations"] == 0
        latency = payload["stats"]["latency"]
        assert latency["bound"]["count"] == 8
        assert latency["refined"]["count"] == 8

    def test_degraded_service_exits_six(self, capsys):
        code = main(self.ARGS + ["--backend", "fallback", "--inject-faults",
                    "seed=1,rate=1.0,kinds=oom,"
                    "sites=dp.auto|dp.sweep|dp.vectorized,max=1000000"])
        assert code == 6
        assert "degraded" in capsys.readouterr().out

    def test_bad_profile_is_usage_error(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert main(["serve", "--duplicate-fraction", "1.5"]) == 2

    def test_unknown_backend_is_usage_error(self, capsys):
        assert main(self.ARGS + ["--backend", "tpu-v5"]) == 2

    def test_quota_flag_accepted(self, capsys):
        code = main(self.ARGS + ["--quota", "32"])
        assert code == 0

    def test_exit_code_constant_documented_value(self):
        # Exit 7 is wired in the parser/docs; pin the constant so the
        # docs/RELIABILITY.md table cannot silently drift.
        from repro.cli import EXIT_SHUTDOWN_TIMEOUT

        assert EXIT_SHUTDOWN_TIMEOUT == 7

    def test_dirty_shutdown_exits_seven(self, monkeypatch, capsys):
        # The CLI happy path always drains clean (run_load awaits every
        # handle before shutdown), so force the drain to report dirty
        # and assert the exit-code mapping end to end.
        from repro.service.daemon import SchedulingService

        real = SchedulingService.shutdown

        async def dirty(self, *args, **kwargs):
            await real(self, *args, **kwargs)
            return False

        monkeypatch.setattr(SchedulingService, "shutdown", dirty)
        assert main(self.ARGS) == 7
