"""Digest every output of a fixed list of `concert` CLI commands.

Usage: python3 scripts/cli_digest.py SRC_DIR

Runs each command as `python -m concert.cli` with SRC_DIR first on
PYTHONPATH, inside a fresh temporary directory, and prints one line
`sha256  name/part` per stdout, stderr, exit code and output file.  Run it
on two source trees and `diff` the outputs to check that a change keeps the
CLI byte-identical; every path a command sees is relative to the temporary
directory, so the digests do not depend on where it ran.

Exits 1 when a command ends in an uncaught exception (exit code 1, which the
CLI never returns on purpose), 0 otherwise.
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
# whole number of dwells: the neutral and expanding-bounded reproducers of the
# open side-awareness defect, and an expanding configuration with no finite
# bound
HYBRID_CONFIGS = {
    "neutral": ({"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0}, "10"),
    "expanding": ({"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763,
                   "tau": 0.65}, "6.5"),
    "unbounded": ({"a": 1.0, "rho": 0.999, "tau": 5.0}, "10"),
}

BAD_DWELL = {"tau": -1.0}

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
# segments whose noise takes more than one member's draw buffer
# (simulate._DRAW_VALUES standard normals) and is drawn in slices: map steps,
# flow steps and the flow steps of the ring's dwells
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
    # the last uint32 seed over a partial third chunk of 1,024 pair seeds, and
    # a seed past uint32, whose streams come from default_rng on the key
    for seed, ensemble in (("4294967295", "2049"), ("4294967296", "8")):
        out.append((f"simulate-linear-map-seed-{seed}",
                    ["simulate", "linear-map", "--seed", seed, "--ensemble", ensemble,
                     "--out", "run.csv"], None, ("run.csv",)))
    out += [(name, [*argv, "--out", "run.csv"], None, ("run.csv",))
            for name, argv in {**SLICED_DRAWS, **LONE_RUNS}.items()]
    out.append(("simulate-hopf-cpg-print-config",
                ["simulate", "hopf-cpg", "--print-config"], None, ()))
    out.append(("cpg-print-config", ["cpg", "--print-config"], None, ()))
    out.append(("cpg", ["cpg", *CPG_SMALL, "--out", "cpg-out"], None,
                tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    out.append(("cpg-lone", ["cpg", "--ensemble", "1", "--horizon", "1", "--out", "cpg-out"],
                None, tuple(f"cpg-out/{name}" for name in CPG_FILES)))
    # a non-positive dwell time is a bound precondition in every subcommand
    for system in ("hybrid-linear", "hopf-cpg"):
        for verb in ("certify", "bounds", "simulate"):
            argv = [verb, system]
            if verb == "simulate":
                argv += ["--dt", "0.01"]
            out.append((f"{verb}-{system}-bad-dwell", argv, BAD_DWELL, ()))
    out.append(("cpg-bad-dwell", ["cpg", *CPG_SMALL, "--out", "cpg-out"], BAD_DWELL, ()))
    out += [(name, argv, None, ()) for name, argv in NONFINITE.items()]
    out += [(name, argv, config, ())
            for name, (argv, config)
            in {**NONFINITE_CONFIGS, **HUGE_CONFIGS, **OVERFLOWING_EXPANSION}.items()]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    crashed = []
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
            for rel in files:
                path = Path(work, rel)
                digest = _sha(path.read_bytes()) if path.exists() else "missing"
                print(f"{digest}  {name}/{rel}")
            if proc.returncode == 1:
                crashed.append(name)
    if crashed:
        print(f"uncaught exception in: {', '.join(crashed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
