"""Command line front end.

Subcommands: `certify` prints a system's contraction certificate, `bounds`
prints its closed-form noise bound, `simulate` runs a pair ensemble and checks
it against the bound, and `cpg` runs the oscillator-ring locking comparison.
stdout carries data only (JSON, or CSV written to --out); diagnostics go to
stderr.  All outputs are byte-deterministic given the same arguments and seed.

Exit codes: 0 success; 2 usage or configuration error; 3 a certificate or
bound precondition failed (rate or gain out of range, singular metric, a
parameter so large that a closed form overflows the floats); 4 a simulation
left the finite floats entirely.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import BetaOutOfRange, ParameterRange, _finite_or_none
from .certify import SingularFactor
from .cpg import (RING_START, STRONG_COUPLING, WEAK_COUPLING, CPGParams, build_cpg_system,
                  phase_aligned_components, run_locking_comparison)
from .simulate import (STEPS_PER_DWELL, EnsembleConfig, NonFiniteState, _write_csv,
                       check_bound_respect, derive_stream, initial_ms, run_pair_ensemble,
                       sample_path)
from .statespace import MetricSpec, NotPositiveDefinite
from .systems import (SystemNotFound, UnknownParameter, _merge_params, dwell_step_default,
                      get_recipe, resolve_params)

_CPG_SHARED = ("sigma_d", "sigma_c", "tau", "omega")
_CPG_DEFAULTS = {"gamma_weak": WEAK_COUPLING.gamma, "gamma_strong": STRONG_COUPLING.gamma,
                 **{key: getattr(STRONG_COUPLING, key) for key in _CPG_SHARED}}


def _json(payload: dict) -> str:
    """payload as strict JSON text: a float that is not finite, such as a mean
    over no alive pair or a slack with no finite bound, is written as null."""
    return json.dumps(_finite_or_none(payload), sort_keys=True, indent=2, allow_nan=False)


def _emit(payload: dict) -> None:
    print(_json(payload))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return loaded


def _seed(text: str) -> int:
    """The value of --seed: a non-negative integer, as every stream key is."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concert",
        description="contraction certificates and noise bounds for discrete, "
                    "continuous, and hybrid resetting systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, system: bool = True,
                config: str = "JSON file with parameter overrides") -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=summary)
        if system:
            cmd.add_argument("system", help="registry name, e.g. linear-map or hopf-cpg")
        cmd.add_argument("--config", help=config)
        return cmd

    command("certify", "print a system's contraction certificate")
    variant = command("bounds", "print a system's closed-form noise bound"
                      ).add_mutually_exclusive_group()
    variant.add_argument("--noise-free", action="store_true",
                         help="compare one noisy copy against a noise-free one")
    variant.add_argument("--both", action="store_true",
                         help="print the standard and noise-free variants together")

    simulate = command("simulate", "run a pair ensemble against the bound")
    simulate.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    simulate.add_argument("--ensemble", type=int, default=None,
                          help="number of trajectory pairs")
    simulate.add_argument("--dt", type=float, default=None,
                          help="integrator step (continuous and hybrid systems)")
    simulate.add_argument("--horizon", type=float, default=None,
                          help="steps (discrete) or time span (otherwise)")
    simulate.add_argument("--out", help="write the per-time CSV here")
    simulate.add_argument("--noise-free", action="store_true",
                          help="pair each noisy trajectory with a noise-free one")

    cpg = command("cpg", "oscillator-ring locking comparison", system=False,
                  config="JSON overrides: gamma_weak, gamma_strong, sigma_d, sigma_c, tau, omega")
    cpg.add_argument("--seed", type=_seed, default=0)
    cpg.add_argument("--ensemble", type=int, default=200, help="runs per configuration")
    cpg.add_argument("--horizon", type=float, default=50.0)
    cpg.add_argument("--dt", type=float, default=None, help="integrator step (default tau/100)")
    cpg.add_argument("--out", default="cpg-out", help="output directory (default cpg-out)")
    # added last, so that it ends every usage line
    for cmd in sub.choices.values():
        cmd.add_argument("--print-config", action="store_true",
                         help="print the resolved configuration and exit")
    return parser


def _cmd_certify(args) -> int:
    recipe = get_recipe(args.system)
    params = resolve_params(recipe, _load_config(args.config))
    if args.print_config:
        _emit({"command": "certify", "system": recipe.name, "params": params})
        return 0
    _emit({"system": recipe.name, "kind": recipe.kind,
           "certificate": recipe.certificate_json(params)})
    return 0


def _cmd_bounds(args) -> int:
    recipe = get_recipe(args.system)
    params = resolve_params(recipe, _load_config(args.config))
    if args.print_config:
        _emit({"command": "bounds", "system": recipe.name, "params": params,
               "noise_free": bool(args.noise_free), "both": bool(args.both)})
        return 0
    _emit({"system": recipe.name, "kind": recipe.kind,
           "bound": {"standard": recipe.bound_json(params, False),
                     "noise_free": recipe.bound_json(params, True)} if args.both
           else recipe.bound_json(params, args.noise_free)})
    return 0


def _cmd_simulate(args) -> int:
    recipe = get_recipe(args.system)
    params = resolve_params(recipe, _load_config(args.config))
    if recipe.kind == "discrete" and args.dt is not None:
        raise ValueError("--dt does not apply to discrete systems")
    step = args.dt if args.dt is not None else dwell_step_default(recipe, params)
    horizon = args.horizon if args.horizon is not None else recipe.sim_defaults["horizon"]
    pair_count = args.ensemble if args.ensemble is not None \
        else recipe.sim_defaults["pair_count"]
    pairing = "noisy-vs-noisefree" if args.noise_free else "two-noisy"
    resolved = {"system": recipe.name, "params": params, "seed": args.seed,
                "pair_count": pair_count, "horizon": horizon, "step_size": step,
                "pairing": pairing, "record_every": recipe.sim_defaults["record_every"],
                "out": args.out}
    if args.print_config:
        _emit({"command": "simulate", **resolved})
        return 0
    # the bound's preconditions fail before any pair is run
    bound_obj = recipe.bound_report(params, args.noise_free)
    system = recipe.build(params)
    config = EnsembleConfig(pair_count=pair_count, horizon=horizon,
                            master_seed=args.seed, initial=recipe.initial(params),
                            step_size=step, pairing_mode=pairing,
                            record_every=recipe.sim_defaults["record_every"])
    stats = run_pair_ensemble(system, config)
    check = None if bound_obj is None else check_bound_respect(stats, bound_obj)
    if args.out:
        stats.to_csv(args.out, extra_columns=None if check is None else
                     {"bound": check.bounds, "within_bound": check.passed})
    _emit({
        **resolved, "kind": recipe.kind,
        "initial_ms": initial_ms(config.initial, MetricSpec.identity(system.dimension)),
        "failures": stats.failures,
        "final_time": float(stats.times[-1]),
        "final_mean": float(stats.mean_sq[-1]),
        "final_stderr": float(stats.stderr[-1]),
        "steady_mean": stats.steady_mean,
        "steady_stderr": stats.steady_stderr,
        "bound": None if bound_obj is None else bound_obj.to_json_dict(),
        "bound_check": None if check is None else {
            "ok": bool(check.ok), "n_checked": check.n_checked, "n_finite": check.n_finite,
            "n_violations": check.n_violations, "worst_slack": check.worst_slack},
    })
    if stats.failures >= stats.n_pairs:
        print("every trajectory pair left the finite floats", file=sys.stderr)
        return 4
    return 0


def _cmd_cpg(args) -> int:
    settings = _merge_params("cpg", _CPG_DEFAULTS, _load_config(args.config))
    step = args.dt if args.dt is not None else settings["tau"] / STEPS_PER_DWELL
    resolved = {"params": settings, "seed": args.seed, "run_count": args.ensemble,
                "horizon": args.horizon, "step_size": step, "out": args.out}
    if args.print_config:
        _emit({"command": "cpg", **resolved})
        return 0
    shared = {key: settings[key] for key in _CPG_SHARED}
    weak, strong = (CPGParams(gamma=settings[key], **shared)
                    for key in ("gamma_weak", "gamma_strong"))
    comparison = run_locking_comparison(weak, strong, run_count=args.ensemble,
                                        horizon=args.horizon, master_seed=args.seed,
                                        step_size=step)

    os.makedirs(args.out, exist_ok=True)
    comparison.weak.to_csv(os.path.join(args.out, "delta_weak.csv"))
    comparison.strong.to_csv(os.path.join(args.out, "delta_strong.csv"))

    files = {"delta_weak": "delta_weak.csv", "delta_strong": "delta_strong.csv",
             "trace_strong": "trace_strong.csv", "aligned_strong": "aligned_strong.csv",
             "summary": "summary.json"}
    # short sample path of the strong ring: run 0 of the ensemble, replayed;
    # a replay that leaves the finite floats writes neither trace, and removes
    # any that an earlier run left in --out
    trace_horizon = min(args.horizon, 20.0 * settings["tau"])
    try:
        path = sample_path(build_cpg_system(strong), RING_START, trace_horizon, step,
                           derive_stream(args.seed, 0, 0))
    except NonFiniteState:
        for key in ("trace_strong", "aligned_strong"):
            stale = os.path.join(args.out, files[key])
            if os.path.exists(stale):
                os.remove(stale)
            files[key] = None
    else:
        for name, prefix, states in (("trace_strong.csv", "x", path.states),
                                     ("aligned_strong.csv", "a",
                                      phase_aligned_components(path.states))):
            names = [f"{prefix}{i}{c}" for i in (1, 2, 3) for c in "xy"]
            _write_csv(os.path.join(args.out, name),
                       {"time": path.times, "side": path.sides, **dict(zip(names, states.T))})

    text = _json({**resolved, **comparison.to_json_dict(), "files": files})
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)
    if any(result.failures >= result.n_pairs for result in (comparison.weak, comparison.strong)):
        print("every run of one configuration left the finite floats", file=sys.stderr)
        return 4
    return 0


_DISPATCH = {"certify": _cmd_certify, "bounds": _cmd_bounds,
             "simulate": _cmd_simulate, "cpg": _cmd_cpg}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (BetaOutOfRange, ParameterRange, NotPositiveDefinite, SingularFactor) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OverflowError as err:
        # Python's float ** and math.exp raise, before any range check, where
        # a certificate's or bound's closed form leaves the floats
        print(f"error: a parameter is out of range: a closed form overflows the floats "
              f"({err})", file=sys.stderr)
        return 3
    except (SystemNotFound, UnknownParameter) as err:
        # KeyError reprs its message; print the bare text
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
