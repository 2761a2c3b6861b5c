"""Digest every output of a fixed list of `concert` CLI commands.

Usage: python3 scripts/cli_digest.py SRC_DIR

Runs each command as `python -m concert.cli` with SRC_DIR first on
PYTHONPATH, inside a fresh temporary directory, and prints one line
`sha256  name/part` per stdout, stderr, exit code and output file.  Run it
on two source trees and `diff` the outputs to check that a change keeps the
CLI byte-identical; every path a command sees is relative to the temporary
directory, so the digests do not depend on where it ran.

Exits 1 when a command ends in an uncaught exception (exit code 1, which the
CLI never returns on purpose), or when its non-empty stdout (other than the
text of --help) or a `.json` file it writes is not strict JSON (RFC 8259 has
no NaN or Infinity), naming the command and the output; 0 otherwise.  Help
and usage text are wrapped at 80 columns whatever the terminal.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BUILTINS = ("linear-map", "ou1d", "brownian", "hybrid-linear", "hopf-cpg")

# hybrid-linear outside its contracting default, with a horizon that is a
# whole number of dwells: neutral, expanding-bounded and critical
# configurations whose pre-reset and interior samples rise above the
# post-reset sequence (each bounded there by the flow map from its last
# reset), and an expanding configuration with no finite bound
HYBRID_CONFIGS = {
    "neutral": ({"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0}, "10"),
    "expanding": ({"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763,
                   "tau": 0.65}, "6.5"),
    "critical": ({"a": 0.5, "rho": 0.951229424500714, "sigma_c": 0.4, "sigma_d": 1.2,
                  "tau": 0.1, "init_low": -0.3, "init_high": 0.3}, "1"),
    "unbounded": ({"a": 1.0, "rho": 0.999, "tau": 5.0}, "10"),
}

# a neutral and an expanding flow without resets: the bound is finite at
# every sample
NEUTRAL_FLOW = {"a": 0.0}
EXPANDING_FLOW = {"a": -0.5}
# a flow rate so small that C_c / lam overflows: the bound is inf after
# t = 0 and the initial mean square at t = 0, where the closed form reads
# inf * 0 = NaN, a bound that would fail its point
TINY_RATE = {"a": 1e-320}

BAD_DWELL = {"tau": -1.0}

# start boxes whose high lies below the low, -0.0 over 0.0 too, which NumPy's
# uniform rejects: the bound's initial mean square and the engine reject them
# alike, naming the coordinate and both bounds
INVERTED_BOXES = {"inverted-box": {"init_low": 1.0, "init_high": -1.0},
                  "inverted-zero-box": {"init_low": 0.0, "init_high": -0.0}}

# bounds off the builtins' defaults, each chained from its certificate: a
# neutral and an expanding flow, a point pair whose squared separation
# (a - b)^2 rounds (simulate's t = 0 check sees the mean of equal squares
# drift by rounding), and an asymmetric hybrid start box
CHAIN_CONFIGS = {
    "bounds-ou1d-neutral-both": (["bounds", "ou1d", "--both"], NEUTRAL_FLOW),
    "bounds-ou1d-expanding-both": (["bounds", "ou1d", "--both"], EXPANDING_FLOW),
    "bounds-linear-map-inexact-start-both": (["bounds", "linear-map", "--both"],
                                             {"init_a": 2.3, "init_b": 0.1}),
    "bounds-hybrid-linear-box-both": (["bounds", "hybrid-linear", "--both"],
                                      {"init_low": -0.3, "init_high": 0.7}),
}

# certificates off the builtins' defaults, each stated once by its recipe: a
# neutral and an expanding flow, a map with another gain and noise, and the
# ring's reduced certificates at a weak coupling that does not lock and at
# other noise scales and dwell time (hybrid-linear's are digested at
# HYBRID_CONFIGS)
CERTIFY_CONFIGS = {
    "certify-ou1d-neutral": (["certify", "ou1d"], NEUTRAL_FLOW),
    "certify-ou1d-expanding": (["certify", "ou1d"], EXPANDING_FLOW),
    "certify-linear-map-off-default": (["certify", "linear-map"], {"rho": 0.8, "sigma": 0.3}),
    "certify-hopf-cpg-weak": (["certify", "hopf-cpg"], {"gamma": 0.01}),
    "certify-hopf-cpg-noisy": (["certify", "hopf-cpg"],
                               {"sigma_c": 0.3, "sigma_d": 0.2, "tau": 0.05}),
}

# coefficient signs the builtins carry into their systems and certificates: a
# map gain and a reset gain below zero (the certificate squares them), and a
# neutral flow (NEUTRAL_FLOW) whose drift coefficient is a zero
SIGN_CONFIGS = {
    "linear-map-negative-gain": ("linear-map", {"rho": -0.5}),
    "hybrid-linear-negative-reset": ("hybrid-linear", {"rho": -0.5}),
}

# a ring coupling whose per-dwell product r2 = 0.999999999999997 lies in the
# critical band of 1: `certify` must not report a lock that `bounds` does not
# bound
CRITICAL_RING = {"gamma": 0.06459568480243587}

# a horizon or a step count that is not finite is a configuration error
NONFINITE = {
    "simulate-ou1d-horizon-inf": ["simulate", "ou1d", "--horizon", "inf"],
    "simulate-linear-map-horizon-inf": ["simulate", "linear-map", "--horizon", "inf"],
    "simulate-hybrid-linear-horizon-inf": ["simulate", "hybrid-linear", "--horizon", "inf"],
    "simulate-ou1d-dt-1e-320": ["simulate", "ou1d", "--dt", "1e-320"],
    "simulate-ou1d-horizon-nan": ["simulate", "ou1d", "--horizon", "nan"],
    "cpg-horizon-inf": ["cpg", "--horizon", "inf", "--out", "cpg-out"],
}

CPG_SMALL = ["--ensemble", "40", "--horizon", "3", "--seed", "1"]

# a config value that is not a finite number (json writes NaN and Infinity)
# is a configuration error
NONFINITE_CONFIGS = {
    "certify-ou1d-config-inf": (["certify", "ou1d"], {"a": math.inf}),
    "certify-hybrid-linear-config-nan": (["certify", "hybrid-linear"], {"sigma_c": math.nan}),
    "bounds-ou1d-config-nan": (["bounds", "ou1d"], {"a": math.nan}),
    "bounds-hopf-cpg-config-nan": (["bounds", "hopf-cpg"], {"omega": math.nan}),
    "simulate-linear-map-config-inf": (["simulate", "linear-map"], {"rho": -math.inf}),
    "cpg-config-nan": (["cpg", *CPG_SMALL, "--out", "cpg-out"], {"tau": math.nan}),
}
# a finite config value so large that a closed form overflows the floats
# (Python's float ** and math.exp) is a bound precondition
HUGE_CONFIGS = {
    "simulate-linear-map-config-huge": (["simulate", "linear-map"], {"rho": 1e200}),
}
# an expanding hybrid whose blow-up factor exp(2|lam|tau) overflows the floats
# has no finite bound, which is reported, not an error
OVERFLOWING_EXPANSION = {
    "bounds-hybrid-linear-config-huge": (["bounds", "hybrid-linear"], {"a": 1e200}),
    "bounds-hybrid-linear-config-a-1000": (["bounds", "hybrid-linear"], {"a": 1000.0}),
    "bounds-hopf-cpg-config-tau-1000": (["bounds", "hopf-cpg"], {"tau": 1000.0}),
}
# every simulated pair leaves the finite floats (exit 4): the means over no
# alive pair are printed as null
ALL_PAIRS_LOST = {
    "simulate-hybrid-linear-config-huge": (["simulate", "hybrid-linear"], {"a": 1e200}),
}
# every run of both rings leaves the finite floats, and so does the replay of
# run 0 (exit 4): the summary is printed all the same, with null trace files,
# and the delta CSVs count the live runs in n_alive
RING_RUNS_LOST = {"sigma_c": 1e150}
# a ring noise under which each ring of three runs ends with one run alive:
# the delta CSVs hold a NaN stderr where one run is alive next to a finite
# one where two are, and the steady stderr prints as null
RING_ONE_RUN_ALIVE = {"sigma_c": 300.0}
# runs whose noise takes more than one member's draw buffer
# (simulate._DRAW_VALUES standard normals) and is drawn in several calls: map
# steps, flow steps, and the ring's resets and dwells
SLICED_DRAWS = {
    "simulate-linear-map-sliced": ["simulate", "linear-map", "--horizon", "600",
                                   "--ensemble", "1100"],
    "simulate-brownian-sliced": ["simulate", "brownian", "--horizon", "20",
                                 "--ensemble", "1500"],
    "simulate-hopf-cpg-sliced": ["simulate", "hopf-cpg", "--ensemble", "600",
                                 "--horizon", "0.5"],
}
# lone runs: a block holding a single pair (the last of 1,025), a single pair,
# a single noise-free pair and a single ring run
LONE_RUNS = {
    "simulate-hopf-cpg-last-block-lone": ["simulate", "hopf-cpg", "--ensemble", "1025",
                                          "--horizon", "0.1"],
    "simulate-linear-map-lone": ["simulate", "linear-map", "--ensemble", "1"],
    "simulate-hybrid-linear-lone-noise-free": ["simulate", "hybrid-linear", "--ensemble", "1",
                                               "--noise-free"],
}
# plans drawn in one call per member run, whose last block is partial: a
# third block of one pair, and a second block of one noise-free pair
PARTIAL_LAST_BLOCK = {
    "simulate-linear-map-partial-last-block": ["simulate", "linear-map", "--ensemble", "2049"],
    "simulate-brownian-partial-last-block-noise-free": ["simulate", "brownian", "--ensemble",
                                                        "1025", "--noise-free"],
}
CPG_FILES = ("delta_weak.csv", "delta_strong.csv", "trace_strong.csv",
             "aligned_strong.csv", "summary.json")


def commands() -> list[tuple[str, list[str], dict | None, tuple[str, ...]]]:
    """(name, argv, config or None, output files) for every digested command."""
    out = []
    for system in BUILTINS:
        out.append((f"certify-{system}", ["certify", system], None, ()))
        out.append((f"bounds-{system}", ["bounds", system], None, ()))
        if system != "hopf-cpg":
            out.append((f"bounds-{system}-both", ["bounds", system, "--both"], None, ()))
        out.append((f"simulate-{system}", ["simulate", system, "--out", "run.csv"],
                    None, ("run.csv",)))
    for system in ("linear-map", "ou1d", "hybrid-linear"):
        out.append((f"simulate-{system}-noise-free",
                    ["simulate", system, "--noise-free", "--out", "run.csv"],
                    None, ("run.csv",)))
    for tag, (config, horizon) in HYBRID_CONFIGS.items():
        out.append((f"certify-hybrid-linear-{tag}", ["certify", "hybrid-linear"],
                    config, ()))
        out.append((f"bounds-hybrid-linear-{tag}",
                    ["bounds", "hybrid-linear", "--both"], config, ()))
        out.append((f"simulate-hybrid-linear-{tag}",
                    ["simulate", "hybrid-linear", "--ensemble", "200", "--horizon", horizon,
                     "--out", "run.csv"],
                    config, ("run.csv",)))
    out.append(("simulate-ou1d-expanding", ["simulate", "ou1d", "--out", "run.csv"],
                EXPANDING_FLOW, ("run.csv",)))
    out.append(("simulate-ou1d-tiny-rate", ["simulate", "ou1d", "--out", "run.csv"],
                TINY_RATE, ("run.csv",)))
    for tag, (system, config) in SIGN_CONFIGS.items():
        out.append((f"certify-{tag}", ["certify", system], config, ()))
        out.append((f"bounds-{tag}-both", ["bounds", system, "--both"], config, ()))
        out.append((f"simulate-{tag}", ["simulate", system, "--out", "run.csv"],
                    config, ("run.csv",)))
    out.append(("simulate-ou1d-neutral", ["simulate", "ou1d", "--out", "run.csv"],
                NEUTRAL_FLOW, ("run.csv",)))
    out += [(name, argv, config, ())
            for name, (argv, config) in {**CHAIN_CONFIGS, **CERTIFY_CONFIGS}.items()]
    out.append(("simulate-linear-map-inexact-start",
                ["simulate", "linear-map", "--out", "run.csv"],
                CHAIN_CONFIGS["bounds-linear-map-inexact-start-both"][1], ("run.csv",)))
    # the last uint32 seed over a partial third chunk of 1,024 pair seeds, and
    # a seed past uint32, whose streams come from default_rng on the key
    for seed, ensemble in (("4294967295", "2049"), ("4294967296", "8")):
        out.append((f"simulate-linear-map-seed-{seed}",
                    ["simulate", "linear-map", "--seed", seed, "--ensemble", ensemble,
                     "--out", "run.csv"], None, ("run.csv",)))
    out += [(name, [*argv, "--out", "run.csv"], None, ("run.csv",))
            for name, argv in {**SLICED_DRAWS, **LONE_RUNS, **PARTIAL_LAST_BLOCK}.items()]
    # the ring at an angular frequency other than its default
    out.append(("simulate-hopf-cpg-omega-2.5",
                ["simulate", "hopf-cpg", "--ensemble", "40", "--horizon", "1",
                 "--out", "run.csv"], {"omega": 2.5}, ("run.csv",)))
    for verb in ("certify", "bounds"):
        out.append((f"{verb}-hopf-cpg-critical", [verb, "hopf-cpg"], CRITICAL_RING, ()))
    # a negative seed is a usage error that names the flag
    out.append(("simulate-linear-map-seed-negative",
                ["simulate", "linear-map", "--seed", "-1"], None, ()))
    out.append(("simulate-hopf-cpg-print-config",
                ["simulate", "hopf-cpg", "--print-config"], None, ()))
    out.append(("cpg-print-config", ["cpg", "--print-config"], None, ()))
    out.append(("certify-linear-map-print-config",
                ["certify", "linear-map", "--print-config"], None, ()))
    out.append(("bounds-hybrid-linear-both-print-config",
                ["bounds", "hybrid-linear", "--both", "--print-config"], None, ()))
    # the usage and help text of the parser and of every subcommand
    out.append(("help", ["--help"], None, ()))
    out += [(f"{verb}-help", [verb, "--help"], None, ())
            for verb in ("certify", "bounds", "simulate", "cpg")]
    out.append(("cpg", ["cpg", *CPG_SMALL, "--out", "cpg-out"], None,
                tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    out.append(("cpg-lone", ["cpg", "--ensemble", "1", "--horizon", "1", "--out", "cpg-out"],
                None, tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    # the smallest ensembles with a steady standard error, which both commands
    # take by one rule; their lone cases above print it as null
    out.append(("simulate-linear-map-pairs-2", ["simulate", "linear-map", "--ensemble", "2"],
                None, ()))
    out.append(("cpg-runs-2", ["cpg", "--ensemble", "2", "--horizon", "1", "--out", "cpg-out"],
                None, tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    out.append(("cpg-runs-lost", ["cpg", "--ensemble", "4", "--horizon", "0.3",
                                  "--out", "cpg-out"],
                RING_RUNS_LOST, tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    out.append(("cpg-one-run-alive", ["cpg", "--ensemble", "3", "--horizon", "0.3",
                                      "--out", "cpg-out"],
                RING_ONE_RUN_ALIVE, tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    # a non-positive dwell time is a bound precondition in every subcommand
    for system in ("hybrid-linear", "hopf-cpg"):
        for verb in ("certify", "bounds", "simulate"):
            argv = [verb, system]
            if verb == "simulate":
                argv += ["--dt", "0.01"]
            out.append((f"{verb}-{system}-bad-dwell", argv, BAD_DWELL, ()))
    out.append(("cpg-bad-dwell", ["cpg", *CPG_SMALL, "--out", "cpg-out"], BAD_DWELL, ()))
    for tag, config in INVERTED_BOXES.items():
        for verb in ("bounds", "simulate"):
            out.append((f"{verb}-hybrid-linear-{tag}", [verb, "hybrid-linear"], config, ()))
    out += [(name, argv, None, ()) for name, argv in NONFINITE.items()]
    out += [(name, argv, config, ())
            for name, (argv, config)
            in {**NONFINITE_CONFIGS, **HUGE_CONFIGS, **OVERFLOWING_EXPANSION,
                **ALL_PAIRS_LOST}.items()]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strict_json(data: bytes) -> bool:
    """Whether data parses as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    try:
        json.loads(data, parse_constant=reject)
    except ValueError:
        return False
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["COLUMNS"] = "80"  # argparse wraps usage and help to COLUMNS
    crashed, not_json = [], []
    for name, args, config, files in commands():
        with tempfile.TemporaryDirectory() as work:
            if config is not None:
                Path(work, "config.json").write_text(json.dumps(config), encoding="utf-8")
                args = [*args, "--config", "config.json"]
            proc = subprocess.run([sys.executable, "-m", "concert.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            print(f"{_sha(proc.stdout)}  {name}/stdout")
            print(f"{_sha(proc.stderr)}  {name}/stderr")
            print(f"{_sha(str(proc.returncode).encode())}  {name}/exit={proc.returncode}")
            json_outputs = {"stdout": proc.stdout} \
                if proc.stdout.strip() and "--help" not in args else {}
            for rel in files:
                path = Path(work, rel)
                data = path.read_bytes() if path.exists() else None
                print(f"{'missing' if data is None else _sha(data)}  {name}/{rel}")
                if data is not None and rel.endswith(".json"):
                    json_outputs[rel] = data
            if proc.returncode == 1:
                crashed.append(name)
            not_json += [f"{name}/{part}" for part, data in json_outputs.items()
                         if not _strict_json(data)]
    if crashed:
        print(f"uncaught exception in: {', '.join(crashed)}", file=sys.stderr)
    if not_json:
        print(f"not strict JSON: {', '.join(not_json)}", file=sys.stderr)
    return 1 if crashed or not_json else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
