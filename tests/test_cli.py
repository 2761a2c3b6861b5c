"""Command line surface: JSON outputs, CSV files, exit codes, determinism."""
from __future__ import annotations

import json
import sys

import pytest

from concert import bounds
from concert.cli import main
from concert.systems import BUILTIN_SYSTEMS


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
        # the planar certificates that the delta bound chains
        assert cert["flow"]["rate"] == -1.0
        assert cert["flow"]["sampled_rate"] == -1.0
        assert cert["flow"]["noise_bound"] == pytest.approx(0.02)
        assert cert["reset"]["rate"] == pytest.approx(0.52)
        assert cert["reset"]["noise_bound"] == pytest.approx(2e-4)
        for part in ("flow", "reset"):
            assert cert[part]["is_global_claim"] is True
            assert cert[part]["metric"]["value"] == [[1.0, 0.0], [0.0, 1.0]]
        assert cert["regime"] == "hybrid-expanding-bounded"
        assert cert["locking_condition"]["holds"] is True

    def test_hopf_cpg_lock_agrees_with_bounds_in_the_critical_band(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.06459568480243587}))
        code, out, _ = run_cli(capsys, "certify", "hopf-cpg", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["certificate"]["locking_condition"]["holds"] is False
        code, out, _ = run_cli(capsys, "bounds", "hopf-cpg", "--config", str(cfg))
        assert code == 0
        bound = json.loads(out)["bound"]
        assert (bound["per_difference"]["regime"], bound["pipeline"]) \
            == ("hybrid-expanding-critical", None)

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
        assert bound["regime"] == "discrete-ms"
        assert bound["asymptotic_bound"] == pytest.approx(8.0 / 3.0)

    def test_noise_free_halves_ms_asymptote(self, capsys):
        _, std_out, _ = run_cli(capsys, "bounds", "linear-map")
        _, nf_out, _ = run_cli(capsys, "bounds", "linear-map", "--noise-free")
        std = json.loads(std_out)["bound"]
        nf = json.loads(nf_out)["bound"]
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
        assert payload["bound_check"]["n_checked"] == payload["bound_check"]["n_finite"] == 13
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
        assert payload["bound"]["regime"] == "discrete-ms"
        assert payload["bound"]["noise_free"] is True

    def test_hybrid_simulate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "hybrid-linear",
                               "--ensemble", "16", "--horizon", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hybrid"
        assert payload["bound"]["regime"] == "hybrid-contracting"
        assert payload["bound_check"]["ok"] is True
        assert payload["bound_check"]["n_finite"] == payload["bound_check"]["n_checked"] == 26

    # hybrids whose pre-reset and interior samples rise above the post-reset
    # sequence: the flow map from the last reset bounds them.  The neutral
    # bound is tight (exact/bound 0.9998), so the seed stays pinned: the
    # family of 3-sigma tests can false-alarm on other seeds
    @pytest.mark.parametrize("config, horizon, regime", [
        ({"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0}, "10",
         "hybrid-neutral"),
        ({"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763, "tau": 0.65}, "6.5",
         "hybrid-expanding-bounded"),
        ({"a": 0.5, "rho": 0.951229424500714, "sigma_c": 0.4, "sigma_d": 1.2, "tau": 0.1,
          "init_low": -0.3, "init_high": 0.3}, "1", "hybrid-expanding-critical"),
    ], ids=["neutral", "expanding", "critical"])
    def test_hybrid_bound_holds_on_every_side(self, capsys, tmp_path, config, horizon, regime):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "simulate", "hybrid-linear", "--config", str(cfg),
                               "--horizon", horizon, "--ensemble", "2000", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"]["regime"] == regime
        check = payload["bound_check"]
        assert check["ok"] is True and check["n_violations"] == 0
        assert check["n_finite"] == check["n_checked"] == 62

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


REPORT_KEYS = sorted(bounds.BoundReport(regime="discrete-ms", asymptotic_bound=1.0,
                                         transient_rate_per_step=0.5, inputs={}).to_json_dict())
SMALL_RUN = ("--ensemble", "4", "--horizon", "1")


class TestOneBoundSchema:
    """Every printed bound is one BoundReport's JSON, and `simulate` builds
    the report it checks and prints once."""

    @pytest.mark.parametrize("system", sorted(BUILTIN_SYSTEMS))
    def test_simulate_chains_each_bound_once(self, capsys, monkeypatch, system):
        original, calls = bounds.certified_bound, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patched = [name for name, module in sorted(sys.modules.items())
                   if name.startswith("concert") and vars(module).get("certified_bound")
                   is original]
        assert {"concert.bounds", "concert.systems", "concert.cpg"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "certified_bound", counted)
        code, _, _ = run_cli(capsys, "simulate", system, *SMALL_RUN)
        assert code == 0
        assert len(calls) == (0 if system == "hopf-cpg" else 1)

    @pytest.mark.parametrize("noise_free", [False, True], ids=["two-noisy", "noise-free"])
    @pytest.mark.parametrize("system", sorted(BUILTIN_SYSTEMS))
    def test_every_printed_bound_has_the_report_keys(self, capsys, system, noise_free):
        flag = ("--noise-free",) if noise_free else ()
        code, out, _ = run_cli(capsys, "simulate", system, *SMALL_RUN, *flag)
        assert code == 0
        checked = json.loads(out)["bound"]
        code, out, _ = run_cli(capsys, "bounds", system, *flag)
        if system == "hopf-cpg":  # no pair bound; the ring has no noise-free variant
            assert checked is None
            assert code == (2 if noise_free else 0)
            if not noise_free:
                assert sorted(json.loads(out)["bound"]["per_difference"]) == REPORT_KEYS
            return
        assert code == 0
        printed = json.loads(out)["bound"]
        assert sorted(checked) == sorted(printed) == REPORT_KEYS
        assert checked == printed and checked["noise_free"] is noise_free


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

    def test_lost_runs_still_print_the_summary_and_exit_4(self, capsys, tmp_path):
        # every run of both rings leaves the floats within the first dwell,
        # and so does the replay of run 0, which removes the traces that an
        # earlier run wrote into the same directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma_c": 1e150}))
        out_dir = tmp_path / "ring"
        code, _, _ = run_cli(capsys, "cpg", "--ensemble", "2", "--horizon", "0.3",
                             "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "trace_strong.csv").exists()
        assert (out_dir / "aligned_strong.csv").exists()
        code, out, err = run_cli(capsys, "cpg", "--ensemble", "4", "--horizon", "0.3",
                                 "--config", str(cfg), "--out", str(out_dir))
        assert code == 4
        assert err == "every run of one configuration left the finite floats\n"
        payload = json.loads(out)
        assert json.loads((out_dir / "summary.json").read_text()) == payload
        assert payload["files"]["trace_strong"] is None
        assert payload["files"]["aligned_strong"] is None
        assert not (out_dir / "trace_strong.csv").exists()
        assert not (out_dir / "aligned_strong.csv").exists()
        for ring in ("weak", "strong"):
            assert (payload[ring]["failures"], payload[ring]["run_count"]) == (4, 4)
            assert payload[ring]["steady_mean"] is None
            rows = [line.split(",") for line in
                    (out_dir / f"delta_{ring}.csv").read_text().splitlines()[1:]]
            assert [row[4] for row in rows[:2]] == ["4", "4"]
            assert all(row[4] == "0" for row in rows[2:]) and len(rows) > 2

    def test_delta_csvs_take_the_simulate_header(self, capsys, tmp_path):
        out_dir, csv = tmp_path / "ring", tmp_path / "pairs.csv"
        code, _, _ = run_cli(capsys, "cpg", "--ensemble", "2", "--horizon", "0.2",
                             "--out", str(out_dir))
        assert code == 0
        code, _, _ = run_cli(capsys, "simulate", "hopf-cpg", *SMALL_RUN, "--out", str(csv))
        assert code == 0
        header = csv.read_text().splitlines()[0]
        assert header == "time,side,mean_sq_dist,stderr,n_alive"
        for ring in ("weak", "strong"):
            assert (out_dir / f"delta_{ring}.csv").read_text().splitlines()[0] == header

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
def strict_json(text):
    """json.loads for RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """A float that is not finite prints as null, on stdout and in files."""

    @pytest.mark.parametrize("a, exit_code", [(2.0, 0), (1e200, 4)])
    def test_slack_with_no_finite_bound_is_null(self, capsys, tmp_path, a, exit_code):
        # hybrid-expanding-unbounded: every bound value is inf, so none of the
        # 122 points is checked against a finite bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": a}))
        code, out, _ = run_cli(capsys, "simulate", "hybrid-linear", "--config", str(cfg))
        assert code == exit_code
        check = strict_json(out)["bound_check"]
        assert check["worst_slack"] is None
        assert (check["n_checked"], check["n_finite"]) == (122, 0)
        assert check["ok"] is False

    def test_stderr_of_a_lone_pair_is_null(self, capsys):
        # one pair measures a mean but no stderr, so no point is judged
        code, out, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "1")
        assert code == 0
        summary = strict_json(out)
        assert isinstance(summary["final_mean"], float)
        assert isinstance(summary["steady_mean"], float)
        assert summary["final_stderr"] is None and summary["steady_stderr"] is None
        check = summary["bound_check"]
        assert (check["ok"], check["n_finite"], check["n_violations"]) == (False, 0, 61)
        assert check["worst_slack"] is None

    def test_stderr_of_a_lone_ring_run_is_null(self, capsys, tmp_path):
        out_dir = tmp_path / "ring"
        code, out, _ = run_cli(capsys, "cpg", "--ensemble", "1", "--horizon", "1",
                               "--out", str(out_dir))
        assert code == 0
        for text in (out, (out_dir / "summary.json").read_text()):
            summary = strict_json(text)
            assert summary["weak"]["steady_stderr"] is None
            assert summary["strong"]["steady_stderr"] is None
            assert isinstance(summary["strong"]["steady_mean"], float)


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

    @pytest.mark.parametrize("low, high", [(1.0, -1.0), (0.0, -0.0)])
    def test_inverted_start_box_is_2_in_bounds_and_simulate(self, capsys, tmp_path, low,
                                                            high):
        # a box that cannot be sampled has no initial mean square either
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init_low": low, "init_high": high}))
        for verb in ("bounds", "simulate"):
            code, out, err = run_cli(capsys, verb, "hybrid-linear", "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err == f"error: initial box coordinate 0 has high {high!r} below its " \
                          f"low {low!r}\n"

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

    def test_means_over_no_alive_pair_are_null(self, capsys, tmp_path):
        # every pair leaves the floats in the first dwell: no final or steady
        # value measures anything
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1e200}))
        code, out, err = run_cli(capsys, "simulate", "hybrid-linear", "--ensemble", "20",
                                 "--config", str(cfg))
        assert code == 4
        assert err == "every trajectory pair left the finite floats\n"
        summary = json.loads(out)
        assert summary["failures"] == 20
        for key in ("final_mean", "final_stderr", "steady_mean", "steady_stderr"):
            assert summary[key] is None, key

    def test_means_over_alive_pairs_are_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "linear-map", "--ensemble", "20")
        assert code == 0
        summary = json.loads(out)
        for key in ("final_mean", "final_stderr", "steady_mean", "steady_stderr"):
            assert isinstance(summary[key], float) and summary[key] > 0, key

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
            assert sorted(bound) == ["per_difference", "pipeline"]
            assert bound["per_difference"]["inputs"]["r2"] is None and bound["pipeline"] is None

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

    @pytest.mark.parametrize("argv", [["simulate", "linear-map"], ["cpg"]])
    def test_negative_seed_names_the_flag_and_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: expected a non-negative integer, got '-1'" in captured.err

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
