"""Tests for the top-level command line interface."""

import pytest

from repro.__main__ import ROUTERS, build_parser, main
from repro.experiments.__main__ import main as experiments_main


class TestParser:
    def test_route_defaults(self):
        args = build_parser().parse_args(["route"])
        assert args.command == "route"
        assert args.algorithm == "alg-n-fusion"
        assert args.switches == 50

    def test_all_routers_registered(self):
        assert set(ROUTERS) == {"alg-n-fusion", "q-cast", "q-cast-n", "b1", "mcf"}

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--algorithm", "dijkstra"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "1.0.0" in capsys.readouterr().out

    def test_route_summary(self, capsys):
        code = main([
            "route", "--switches", "20", "--users", "4", "--states", "3",
            "--seed", "5", "--p", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ALG-N-FUSION" in out
        assert "total rate" in out

    def test_route_report(self, capsys):
        code = main([
            "route", "--switches", "20", "--users", "4", "--states", "3",
            "--seed", "5", "--p", "0.5", "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing plan" in out
        assert "busiest switch" in out

    def test_route_save_and_simulate(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        assert main([
            "route", "--switches", "20", "--users", "4", "--states", "3",
            "--seed", "5", "--p", "0.5", "--save", str(instance),
        ]) == 0
        assert instance.exists()
        capsys.readouterr()
        assert main([
            "simulate", str(instance), "--trials", "500", "--p", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "analytic rate" in out
        assert "monte carlo" in out

    def test_route_alternate_algorithm(self, capsys):
        code = main([
            "route", "--switches", "20", "--users", "4", "--states", "3",
            "--seed", "5", "--p", "0.5", "--algorithm", "q-cast",
        ])
        assert code == 0
        assert "Q-CAST" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["route", "--switches", "0"],
        ["route", "--states", "0"],
        ["route", "--seed", "-1"],
        ["route", "--degree", "nan"],
        ["simulate", "missing.json"],
        ["simulate", "not-json.txt"],
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "not-json.txt").write_text("# an instance, not\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_is_a_usage_error(self, trials, tmp_path,
                                                  capsys):
        instance = tmp_path / "instance.json"
        assert main([
            "route", "--switches", "20", "--users", "4", "--states", "3",
            "--seed", "5", "--save", str(instance),
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(instance), "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --trials" in err, err

    @pytest.mark.parametrize("argv", [
        ["serve", "--seed", "-1"],
        ["serve", "--replications", "0"],
        ["serve", "--duration", "-5"],
        ["serve", "--duration", "0"],
        ["serve", "--duration", "nan"],
        ["serve", "--duration", "inf"],
        ["serve", "--warmup", "-1"],
        ["serve", "--warmup", "nan"],
        ["serve", "--warmup", "inf"],
        ["serve", "--workers", "-3"],
    ])
    def test_bad_serve_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            experiments_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "python -m repro.experiments: error: argument"
        ), err

    @pytest.mark.parametrize("argv", [
        ["serve", "--scenario", "waxman:degree=-1"],
        ["serve", "--scenario", "waxman:q=1.5"],
        ["serve", "--scenario", "waxman:switches=0"],
        ["fig7", "--scenario", "waxman:q=1.5"],
        ["serve", "--arrivals", "poisson:rate=inf"],
        ["serve", "--faults", "faults:link_mtbf=inf"],
        ["serve", "--faults", "faults:link_mtbf=30",
         "--repair", "reroute:retries=100000000"],
    ])
    def test_bad_spec_is_a_usage_error(self, argv, capsys):
        """Spec values are range-checked when parsed, so a bad one is
        one usage line, never a traceback from inside the run."""
        with pytest.raises(SystemExit) as exc:
            experiments_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "python -m repro.experiments: error: argument"
        ), err

    @pytest.mark.parametrize("argv", [
        ["serve", "--warmup", "500"],  # past the default horizon, 200
        ["serve", "--duration", "20", "--warmup", "20"],
    ])
    def test_warmup_past_horizon_is_a_usage_error(self, argv, capsys):
        assert experiments_main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: warmup must satisfy"), err

    def test_record_trace_from_a_replay_is_a_usage_error(
        self, tmp_path, capsys
    ):
        argv = [
            "serve", "--record-trace", str(tmp_path / "x.trace"),
            "--arrivals", "trace:file=missing.trace",
            "--duration", "30", "--warmup", "5",
        ]
        assert experiments_main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: cannot --record-trace from a trace replay; it would "
            "copy the input file"
        ], err

    def test_trace_replication_mismatch_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.service.arrivals import write_trace
        from repro.service.faults import write_fault_trace

        arrivals = tmp_path / "arrivals.trace"
        faults = tmp_path / "faults.trace"
        write_trace(arrivals, [[], []])
        write_fault_trace(faults, [[]])
        argv = [
            "serve", "--arrivals", f"trace:file={arrivals}",
            "--faults", f"trace:file={faults}",
            "--duration", "30", "--warmup", "5",
        ]
        assert experiments_main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: fault trace records 1 replication(s) but the arrival "
            "trace records 2"
        ], err
