"""Command line surface: JSON outputs, CSV files, exit codes, determinism."""
from __future__ import annotations

import json

import pytest

from concert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_linear_map_json(self, capsys):
        code, out, err = run_cli(capsys, "certify", "linear-map")
        assert code == 0
        payload = json.loads(out)
        assert payload["system"] == "linear-map"
        assert payload["kind"] == "discrete"
        cert = payload["certificate"]
        assert cert["rate"] == pytest.approx(0.25)
        assert cert["is_global_claim"] is True

    def test_hopf_cpg_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "hopf-cpg")
        assert code == 0
        payload = json.loads(out)
        cert = payload["certificate"]
        assert cert["flow"]["rate"] == -1.0
        assert cert["flow"]["sampled_rate"] == -1.0
        assert cert["flow"]["is_global_claim"] is True
        assert cert["transverse_reset_factor"] == pytest.approx(0.52)
        assert cert["full_reset_factor"] == pytest.approx(1.0)
        assert cert["locking_condition"]["holds"] is True

    def test_print_config(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "linear-map", "--print-config")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "certify"
        assert payload["params"]["rho"] == 0.5

    def test_config_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.8}))
        code, out, _ = run_cli(capsys, "certify", "linear-map",
                               "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["certificate"]["rate"] == pytest.approx(0.64)


class TestBounds:
    def test_standard_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "linear-map")
        assert code == 0
        bound = json.loads(out)["bound"]
        assert bound["mean_square"]["regime"] == "discrete-ms"
        assert bound["mean_square"]["asymptotic_bound"] == pytest.approx(8.0 / 3.0)
        assert bound["mean_distance"]["regime"] == "discrete-distance"
        assert bound["mean_distance"]["asymptotic_bound"] == pytest.approx(4.0)

    def test_noise_free_halves_ms_asymptote(self, capsys):
        _, std_out, _ = run_cli(capsys, "bounds", "linear-map")
        _, nf_out, _ = run_cli(capsys, "bounds", "linear-map", "--noise-free")
        std = json.loads(std_out)["bound"]["mean_square"]
        nf = json.loads(nf_out)["bound"]["mean_square"]
        assert nf["noise_free"] is True
        assert nf["asymptotic_bound"] == pytest.approx(std["asymptotic_bound"] / 2.0)

    def test_both_variants(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "hybrid-linear", "--both")
        assert code == 0
        bound = json.loads(out)["bound"]
        assert bound["standard"]["regime"] == "hybrid-contracting"
        assert bound["noise_free"]["asymptotic_bound"] == pytest.approx(
            bound["standard"]["asymptotic_bound"] / 2.0)

    def test_infinite_bound_serialized_as_null(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "rho": 0.999, "tau": 5.0}))
        code, out, _ = run_cli(capsys, "bounds", "hybrid-linear",
                               "--config", str(cfg))
        assert code == 0
        bound = json.loads(out)["bound"]
        assert bound["finite"] is False
        assert bound["asymptotic_bound"] is None


class TestSimulate:
    def test_discrete_run_with_bound_check(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "simulate", "linear-map",
                               "--ensemble", "64", "--horizon", "12",
                               "--seed", "3", "--out", str(out_csv))
        assert code == 0
        payload = json.loads(out)
        assert payload["system"] == "linear-map"
        assert payload["failures"] == 0
        assert payload["bound_check"]["ok"] is True
        assert payload["bound_check"]["n_checked"] == 13
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "time,side,mean_sq_dist,stderr,n_alive,bound,within_bound"
        assert len(lines) == 14
        assert lines[1].endswith(",True")

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out_a, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "32",
                              "--horizon", "8", "--seed", "5", "--out", str(a_csv))
        _, out_b, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "32",
                              "--horizon", "8", "--seed", "5", "--out", str(b_csv))
        assert out_a.replace(str(a_csv), "X") == out_b.replace(str(b_csv), "X")
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_different_seed_differs(self, capsys):
        _, out_a, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "32",
                              "--horizon", "8", "--seed", "5")
        _, out_b, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "32",
                              "--horizon", "8", "--seed", "6")
        assert json.loads(out_a)["final_mean"] != json.loads(out_b)["final_mean"]

    def test_noise_free_pairing_recorded(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "16",
                               "--horizon", "6", "--noise-free")
        assert code == 0
        payload = json.loads(out)
        assert payload["pairing"] == "noisy-vs-noisefree"
        assert payload["bound"]["mean_square"]["noise_free"] is True

    def test_hybrid_simulate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "hybrid-linear",
                               "--ensemble", "16", "--horizon", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hybrid"
        assert payload["bound"]["regime"] == "hybrid-contracting"
        assert payload["bound_check"]["ok"] is True

    def test_hybrid_horizon_off_the_dwell_grid_names_the_dwell(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": 0.65}), encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "hybrid-linear", "--config", str(config))
        assert code == 2
        assert "horizon 10.0 is not a positive integer multiple of the dwell time 0.65" in err

    def test_print_config_runs_nothing(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, _ = run_cli(capsys, "simulate", "linear-map",
                               "--out", str(out_csv), "--print-config")
        assert code == 0
        assert json.loads(out)["command"] == "simulate"
        assert not out_csv.exists()


class TestCPGCommand:
    def test_tiny_run_writes_all_files(self, capsys, tmp_path):
        out_dir = tmp_path / "ring"
        code, out, _ = run_cli(capsys, "cpg", "--ensemble", "4",
                               "--horizon", "1.0", "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["strong"]["gamma"] == 0.2
        assert payload["weak"]["gamma"] == 0.01
        assert payload["steady_delta_ratio_weak_over_strong"] > 0.0
        for name in ["delta_weak.csv", "delta_strong.csv", "trace_strong.csv",
                     "aligned_strong.csv", "summary.json"]:
            assert (out_dir / name).exists(), name
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary == payload
        trace = (out_dir / "trace_strong.csv").read_text().splitlines()
        assert trace[0] == "time,side,x1x,x1y,x2x,x2y,x3x,x3y"
        aligned = (out_dir / "aligned_strong.csv").read_text().splitlines()
        assert aligned[0] == "time,side,a1x,a1y,a2x,a2y,a3x,a3y"
        assert len(trace) == len(aligned)

    def test_print_config(self, capsys):
        code, out, _ = run_cli(capsys, "cpg", "--print-config")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["gamma_strong"] == 0.2
        assert payload["step_size"] == pytest.approx(0.001)

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.3}))
        code, _, err = run_cli(capsys, "cpg", "--config", str(cfg))
        assert code == 2
        assert "gamma" in err

    def test_non_numeric_config_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "fast"}))
        code, out, err = run_cli(capsys, "cpg", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: parameter 'tau' must be a number, got 'fast'\n"


@pytest.mark.parametrize("argv, config, key", [
    (["certify", "ou1d"], '{"a": Infinity}', "a"),
    (["certify", "hybrid-linear"], '{"sigma_c": NaN}', "sigma_c"),
    (["bounds", "ou1d"], '{"a": NaN}', "a"),
    (["bounds", "hopf-cpg"], '{"omega": NaN}', "omega"),
    (["simulate", "linear-map", "--ensemble", "4"], '{"rho": -Infinity}', "rho"),
    (["cpg", "--ensemble", "2", "--horizon", "0.2"], '{"tau": NaN}', "tau"),
    (["bounds", "linear-map"], '{"sigma": 1' + "0" * 400 + '}', "sigma"),
])
def test_non_finite_config_value_exits_2(capsys, tmp_path, argv, config, key):
    # Python's json reads NaN and Infinity; no output may carry them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: parameter {key!r} must be a finite number, got ")


# commands whose 1e200 parameter makes a hybrid expand past the floats, with
# their exit code: no finite bound is reported, and the simulated pairs all
# leave the finite floats
EXPANDING_PAST_THE_FLOATS = {("certify", "hybrid-linear", "a"): 0,
                             ("bounds", "hybrid-linear", "a"): 0,
                             ("simulate", "hybrid-linear", "a"): 4,
                             ("bounds", "hopf-cpg", "tau"): 0}


class TestExitCodes:
    def test_unknown_system_is_2(self, capsys):
        code, _, err = run_cli(capsys, "certify", "no-such-system")
        assert code == 2
        assert "no-such-system" in err

    def test_missing_config_file_is_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "linear-map",
                               "--config", "/nonexistent/cfg.json")
        assert code == 2

    def test_malformed_config_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(capsys, "bounds", "linear-map", "--config", str(cfg))
        assert code == 2

    def test_non_object_config_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "bounds", "linear-map", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err

    def test_unknown_parameter_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.5, "bogus": 1.0}))
        code, _, err = run_cli(capsys, "bounds", "linear-map", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_bound_precondition_is_3(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 1.5}))
        code, _, err = run_cli(capsys, "bounds", "linear-map", "--config", str(cfg))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("verb, system", [
        (verb, system) for verb in ("certify", "bounds", "simulate")
        for system in ("hybrid-linear", "hopf-cpg")] + [("cpg", None)])
    def test_nonpositive_dwell_is_3_everywhere(self, capsys, tmp_path, verb, system):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": -1.0}))
        argv = {"simulate": [verb, system, "--dt", "0.01"],
                "cpg": [verb, "--ensemble", "2", "--horizon", "0.2",
                        "--out", str(tmp_path / "ring")]}.get(verb, [verb, system])
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "-1.0" in err
        assert "step size" not in err

    @pytest.mark.parametrize("argv, key", [
        ([verb, system], key) for verb in ("certify", "bounds", "simulate")
        for system, key in [("linear-map", "rho"), ("linear-map", "sigma"), ("ou1d", "sigma"),
                            ("brownian", "sigma"), ("hybrid-linear", "rho"),
                            ("hybrid-linear", "a"), ("hybrid-linear", "sigma_c"),
                            ("hybrid-linear", "sigma_d")]
    ] + [([verb, "hopf-cpg"], key) for verb in ("certify", "bounds")
         for key in ("sigma_c", "sigma_d")] + [
        (["bounds", "linear-map"], "init_a"), (["bounds", "hopf-cpg"], "tau"),
        (["cpg", "--ensemble", "2", "--horizon", "0.2"], "sigma_c")])
    def test_huge_finite_parameter_is_3(self, capsys, tmp_path, argv, key):
        # Python's float ** and math.exp overflow before any range check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1e200}))
        if argv[0] == "cpg":
            argv = [*argv, "--out", str(tmp_path / "ring")]
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        expanding = EXPANDING_PAST_THE_FLOATS.get((*argv[:2], key))
        if expanding is not None:
            # the hybrid expands so fast that exp(2|lam|tau) overflows: it has
            # no finite bound, which is an answer, not a precondition
            assert code == expanding
            assert "hybrid-expanding-unbounded" in out and "overflows" not in err
            return
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "overflows the floats" in err

    @pytest.mark.parametrize("system, key", [("hybrid-linear", "a"), ("hopf-cpg", "tau")])
    def test_overflowing_expansion_is_unbounded_and_0(self, capsys, tmp_path, system, key):
        # exp(2 |lam| tau) = exp(1000) overflows; with beta > 0 the per-dwell
        # product r2 is past 1 all the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1000.0}))
        code, out, err = run_cli(capsys, "bounds", system, "--config", str(cfg))
        assert code == 0 and err == ""
        assert "Infinity" not in out and "NaN" not in out
        bound = json.loads(out)["bound"]
        report = bound if system == "hybrid-linear" else bound["per_difference"]
        assert report["regime"] == "hybrid-expanding-unbounded"
        assert report["asymptotic_bound"] is None and report["inputs"]["r2"] is None
        if system == "hopf-cpg":
            assert bound["r2"] is None and bound["pipeline"] is None

    def test_overflowing_expansion_without_reset_gain_is_3(self, capsys, tmp_path):
        # with beta = 0, r2 = 0 * exp(1000) is unknown: the overflow stays an error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1000.0, "rho": 0.0}))
        code, out, err = run_cli(capsys, "bounds", "hybrid-linear", "--config", str(cfg))
        assert code == 3 and out == ""
        assert "overflows the floats" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "ou1d", "--horizon", "inf"],
        ["simulate", "linear-map", "--horizon", "inf"],
        ["simulate", "hybrid-linear", "--horizon", "inf"],
        ["simulate", "ou1d", "--dt", "1e-320"],
        ["simulate", "ou1d", "--horizon", "nan"],
        ["simulate", "linear-map", "--horizon", "nan"],
        ["simulate", "hopf-cpg", "--dt", "1e-320"],
        ["cpg", "--horizon", "inf"],
        ["cpg", "--horizon", "nan"],
        ["cpg", "--dt", "1e-320"],
    ])
    def test_nonfinite_horizon_or_step_is_2(self, capsys, tmp_path, argv):
        value = argv[-1]
        if argv[0] == "cpg":
            argv = [*argv, "--ensemble", "2", "--out", str(tmp_path / "ring")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err and value in err

    def test_dt_on_discrete_is_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "linear-map", "--dt", "0.1")
        assert code == 2
        assert "--dt" in err

    def test_noise_free_with_both_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "linear-map", "--noise-free", "--both"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_noise_free_on_hopf_cpg_bounds_is_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "hopf-cpg", "--noise-free")
        assert code == 2
        assert "hopf-cpg" in err
