"""End-to-end acceptance criteria.

Each test exercises one headline guarantee at full ensemble size and prints a
single PASS/FAIL line with the measured numbers.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they appear.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from concert import (
    ContinuousSDESystem,
    DiscreteMapSystem,
    EnsembleConfig,
    GaussianNoiseSpec,
    HybridSystem,
    InitialBox,
    InitialPointPair,
    ROTATION_THIRD,
    STRONG_COUPLING,
    check_bound_respect,
    classify_regime,
    coupling_contraction_factor,
    coupling_matrix,
    discrete_ms_bound,
    hybrid_bound,
    phase_locking_delta,
    run_locking_comparison,
    run_pair_ensemble,
    theoretical_delta_bound,
)
from helpers import build_projections, fit_geometric_decay


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def make_linear_map(rho=0.5, sigma=1.0):
    # scale maps broadcast over batches, so mark them vectorized
    return DiscreteMapSystem(
        dimension=1,
        map=lambda x, k: rho * np.asarray(x, dtype=float),
        noise_gain=lambda x, k: sigma * np.eye(1),
        noise=GaussianNoiseSpec(1),
        vectorized=True)


def make_hybrid(a, rho, sigma_c, sigma_d, tau):
    # drift a x; the flow contracts at rate -a, the reset at squared gain rho^2
    return HybridSystem(
        continuous=ContinuousSDESystem(
            dimension=1,
            drift=lambda x, t: a * np.asarray(x, dtype=float),
            diffusion=lambda x, t: sigma_c * np.eye(1),
            noise_dim=1,
            vectorized=True),
        reset=DiscreteMapSystem(
            dimension=1,
            map=lambda x, k: rho * np.asarray(x, dtype=float),
            noise_gain=lambda x, k: sigma_d * np.eye(1),
            noise=GaussianNoiseSpec(1),
            vectorized=True),
        dwell_time=tau)


def test_criterion_1_discrete_stationary():
    # noisy contracting map pair: mean square settles onto 2C/(1-beta) and
    # never exceeds the closed-form trajectory bound
    system = make_linear_map(rho=0.5, sigma=1.0)
    config = EnsembleConfig(pair_count=10_000, horizon=60, master_seed=0,
                            initial=InitialPointPair(np.array([1.0]), np.array([-1.0])))
    stats = run_pair_ensemble(system, config)
    report = discrete_ms_bound(0.25, 1.0, 4.0, point_mass=True)
    target = 8.0 / 3.0
    steady, _ = stats.steady_state()
    rel = abs(steady - target) / target
    check = check_bound_respect(stats, report)
    ok = rel <= 0.05 and check.ok and stats.failures == 0
    _report(1, "discrete-stationary", ok,
            f"steady {steady:.4f} vs {target:.4f} (rel {rel:.3%}, tol 5%); "
            f"bound respected at {check.n_checked - check.n_violations}/"
            f"{check.n_checked} grid points, worst slack {check.worst_slack:.4f}")


def test_criterion_2_discrete_transient():
    # a far-apart pair forgets its initial separation at the certified
    # geometric rate beta = rho^2
    system = make_linear_map(rho=0.5, sigma=1.0)
    config = EnsembleConfig(pair_count=10_000, horizon=20, master_seed=1,
                            initial=InitialPointPair(np.array([100.0]), np.array([0.0])))
    stats = run_pair_ensemble(system, config)
    fitted = fit_geometric_decay(stats.mean_sq, 8.0 / 3.0, stderr=stats.stderr)
    rel = abs(fitted - 0.25) / 0.25
    ok = rel <= 0.10
    _report(2, "discrete-transient", ok,
            f"fitted decay factor {fitted:.5f} vs 0.25 (rel {rel:.3%}, tol 10%)")


def test_criterion_3_diffusion_growth():
    # a pure diffusion pair grows linearly: mean square distance = 2 sigma^2 t
    system = ContinuousSDESystem(
        dimension=1,
        drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x, t: np.eye(1),
        noise_dim=1,
        vectorized=True)
    config = EnsembleConfig(pair_count=10_000, horizon=2.0, master_seed=0,
                            initial=InitialPointPair(np.array([0.0]), np.array([0.0])),
                            step_size=0.01, record_every=10)
    stats = run_pair_ensemble(system, config)
    details = []
    ok = True
    for t_query in (0.5, 1.0, 2.0):
        i = int(np.argmin(np.abs(stats.times - t_query)))
        measured = float(stats.mean_sq[i])
        rel = abs(measured - 2.0 * t_query) / (2.0 * t_query)
        ok = ok and rel <= 0.05
        details.append(f"t={t_query}: {measured:.4f} vs {2.0 * t_query:.1f} "
                       f"(rel {rel:.3%})")
    _report(3, "diffusion-growth", ok, "; ".join(details) + "; tol 5%")


def test_criterion_4_hybrid_regimes():
    # contracting, neutral, and expanding-but-bounded flows all respect their
    # closed-form trajectory bounds; past the boundary the pair grows
    e0 = 2.0 / 3.0  # both members uniform on [-1, 1]
    regimes = [
        ("contracting", dict(a=-1.0, rho=0.5, sigma_c=1.0, sigma_d=1.0, tau=0.5)),
        ("neutral", dict(a=0.0, rho=0.5, sigma_c=1.0, sigma_d=1.0, tau=0.2)),
        ("expanding-bounded", dict(a=1.0, rho=math.sqrt(0.5), sigma_c=0.3,
                                   sigma_d=1.0, tau=0.25)),
    ]
    details = []
    ok = True
    for label, p in regimes:
        system = make_hybrid(**p)
        config = EnsembleConfig(
            pair_count=5000, horizon=10.0, master_seed=0,
            initial=InitialBox(np.array([-1.0]), np.array([1.0])),
            step_size=p["tau"] / 100.0)
        stats = run_pair_ensemble(system, config)
        report = hybrid_bound(p["rho"] ** 2, -p["a"], p["sigma_d"] ** 2,
                              p["sigma_c"] ** 2, p["tau"], e0)
        check = check_bound_respect(stats, report)
        peak_ratio = float(np.max(stats.mean_sq / check.bounds))
        ok = ok and check.ok and stats.failures == 0
        details.append(f"{label}: {check.n_checked - check.n_violations}/"
                       f"{check.n_checked} points, peak mean/bound {peak_ratio:.3f}")

    # past the stability boundary the post-reset mean square must grow
    grow = make_hybrid(a=1.0, rho=math.sqrt(0.9), sigma_c=0.1, sigma_d=0.1, tau=0.5)
    config = EnsembleConfig(pair_count=5000, horizon=10.0, master_seed=0,
                            initial=InitialBox(np.array([-1.0]), np.array([1.0])),
                            step_size=0.005)
    stats = run_pair_ensemble(grow, config)
    post = [(float(t), float(m)) for t, side, m
            in zip(stats.times, stats.sides, stats.mean_sq) if side == "post"]
    at = dict(post)
    growth = at[10.0] / at[1.0]
    ok = ok and growth >= 10.0
    details.append(f"unbounded: ms(10)/ms(1) = {growth:.1f} (need >= 10)")
    _report(4, "hybrid-regimes", ok, "; ".join(details))


def test_criterion_5_bound_structure():
    # dwell-time monotonicity of the asymptotes, and the regime classifier
    # against an independent reimplementation
    taus = np.linspace(0.05, 3.0, 60)
    contracting = [hybrid_bound(0.25, 1.0, 1.0, 1.0, float(t), 0.0)
                   .asymptotic_bound for t in taus]
    mono_down = all(a >= b - 1e-12 for a, b in zip(contracting, contracting[1:]))

    bounded_taus = [float(t) for t in np.linspace(0.05, 0.69, 40)]  # r2 < 1 here
    expanding = [hybrid_bound(0.25, -1.0, 1.0, 1.0, t, 0.0)
                 .asymptotic_bound for t in bounded_taus]
    mono_up = all(b >= a - 1e-12 for a, b in zip(expanding, expanding[1:]))
    all_finite = all(math.isfinite(v) for v in expanding)

    def oracle(beta, lam, tau):
        if lam > 0.0:
            return "hybrid-contracting"
        if lam == 0.0:
            return "hybrid-neutral"
        product = beta * math.exp(2.0 * abs(lam) * tau)
        if abs(product - 1.0) <= 1e-12:
            return "hybrid-expanding-critical"
        return "hybrid-expanding-bounded" if product < 1.0 \
            else "hybrid-expanding-unbounded"

    rng = np.random.default_rng(2026)
    mismatches = 0
    total = 0
    for i in range(1000):
        beta = float(rng.uniform(0.0, 0.999))
        lam = 0.0 if i % 10 == 0 else float(rng.uniform(-3.0, 3.0))
        tau = float(rng.uniform(0.05, 2.0))
        total += 1
        if classify_regime(beta, lam, tau) != oracle(beta, lam, tau):
            mismatches += 1
    for _ in range(50):  # exact-critical constructions
        lam = float(rng.uniform(-3.0, -0.1))
        tau = float(rng.uniform(0.05, 2.0))
        beta = math.exp(2.0 * lam * tau)
        total += 1
        if classify_regime(beta, lam, tau) != "hybrid-expanding-critical":
            mismatches += 1
    ok = mono_down and mono_up and all_finite and mismatches == 0
    _report(5, "bound-structure", ok,
            f"contracting asymptote non-increasing in dwell: {mono_down}; "
            f"expanding non-decreasing while bounded: {mono_up}; "
            f"classifier matched oracle on {total - mismatches}/{total} tuples")


def test_criterion_6_ring_identities():
    # exact structural identities of the three-oscillator ring
    r = ROTATION_THIRD
    r_cubed = float(np.abs(r @ r @ r - np.eye(2)).max())

    locked, transverse = build_projections()
    basis = np.hstack([locked, transverse])
    ortho = float(np.abs(basis.T @ basis - np.eye(6)).max())

    rng = np.random.default_rng(0)
    beta_gap = 0.0
    for gamma in [0.01, 0.2, 0.5, 0.77] + list(rng.uniform(0, 1, 8)):
        block = transverse.T @ coupling_matrix(float(gamma)).T \
            @ coupling_matrix(float(gamma)) @ transverse
        eigs = np.linalg.eigvalsh(block)
        closed = coupling_contraction_factor(float(gamma))
        beta_gap = max(beta_gap, float(np.abs(eigs - closed).max()))

    states = rng.standard_normal((256, 6))
    delta_direct = phase_locking_delta(states)
    delta_proj = 3.0 * np.square(states @ transverse).sum(axis=1)
    delta_gap = float(np.abs(delta_direct - delta_proj).max()
                      / np.abs(delta_direct).max())

    summary = theoretical_delta_bound(STRONG_COUPLING)
    frozen = abs(summary.pipeline - 0.18457778538021472)

    ok = (r_cubed <= 1e-12 and ortho <= 1e-12 and beta_gap <= 1e-12
          and delta_gap <= 1e-12 and frozen <= 1e-15)
    _report(6, "ring-identities", ok,
            f"rotation cubed gap {r_cubed:.2e}; projection orthonormality gap "
            f"{ortho:.2e}; coupling factor vs eigenvalues gap {beta_gap:.2e}; "
            f"delta vs projection gap {delta_gap:.2e}; pipeline "
            f"{summary.pipeline:.17f} (frozen gap {frozen:.2e})")


def test_criterion_7_ring_locking():
    # strong coupling locks the ring under the certified bound; weak coupling
    # (past the condition) stays unlocked, far above it
    comparison = run_locking_comparison(run_count=200, horizon=50.0, master_seed=0)
    strong = comparison.strong
    bounds = strong.bounds
    ok = (comparison.ratio >= 5.0
          and strong.steady_mean <= bounds.pipeline
          and strong.failures == 0 and comparison.weak.failures == 0)
    _report(7, "ring-locking", ok,
            f"steady delta weak {comparison.weak.steady_mean:.5f} / strong "
            f"{strong.steady_mean:.5f} = ratio {comparison.ratio:.2f} (need >= 5); "
            f"strong bound pipeline {bounds.pipeline:.17f}")


def test_criterion_8_cli_determinism(tmp_path):
    # the command line is byte-deterministic in the seed; the child runs this
    # checkout's source tree, whatever the working directory or installed copy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(seed):
        csv = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "concert.cli", "simulate", "linear-map",
             "--ensemble", "64", "--horizon", "10", "--seed", str(seed),
             "--out", str(csv)],
            capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, csv.read_bytes()

    out_a, csv_a = run(7)
    out_b, csv_b = run(7)
    out_c, csv_c = run(8)
    identical = out_a == out_b and csv_a == csv_b
    distinct = out_a != out_c and csv_a != csv_c
    final_a = json.loads(out_a)["final_mean"]
    final_c = json.loads(out_c)["final_mean"]
    ok = identical and distinct
    _report(8, "cli-determinism", ok,
            f"same seed byte-identical: {identical}; different seed differs: "
            f"{distinct} (final_mean {final_a:.6f} vs {final_c:.6f})")
