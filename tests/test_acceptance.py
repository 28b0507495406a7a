"""End-to-end acceptance checks.

Each test covers one headline claim, prints a single PASS/FAIL summary line
(visible under pytest -s), and enforces the claim's tolerances and, where
stated, its runtime budget.  Tolerances are never loosened here; the module
tests carry the fine-grained diagnostics.
"""
import time

import numpy as np

from mptraj import (BenchScenario, BoundaryCondition, Demonstration,
                    GaussianSequence, IntegratorSpec, LatentGaussian,
                    TimePairBatch, WeightsDistribution, bayesian_aggregate,
                    combine, evaluate_position, falling_ramp, fit_weights,
                    gaussian_nll, integrate_dmp, marginal, pair_nll,
                    per_time_marginals, run_benchmark, run_chain,
                    sample_trajectories, smoothness_metric,
                    trajectory_distribution)
from mptraj.probops import ActivationProfile
from tests.conftest import random_weights_distribution
from tests.reference import stale_chain

LN_TWO_PI = 1.8378770664093455


def _report(num: int, description: str, checks: dict, runtime: float | None = None):
    failed = [name for name, ok in checks.items() if not ok]
    verdict = "PASS" if not failed else "FAIL"
    timing = f" [{runtime:.1f} s]" if runtime is not None else ""
    print(f"\n[criterion {num}] {verdict} - {description}{timing}")
    assert not failed, f"criterion {num} failed checks: {', '.join(failed)}"


def test_criterion_1_oracle_equivalence(reference_bank, reference_config):
    # 20 random weight vectors; the closed-form bank trajectory must match a
    # fine-step RK4 integration to 1e-3 of each trajectory's amplitude
    start = time.perf_counter()
    cases = 20
    rng = np.random.default_rng(11)
    w = rng.standard_normal(cases * reference_bank.weight_dim) * 5.0
    y0 = rng.standard_normal(cases)
    dy0 = rng.standard_normal(cases)
    times, oracle_pos, _ = integrate_dmp(w, y0, dy0, reference_config,
                                         IntegratorSpec("rk4", 1e-4))
    bc = BoundaryCondition(0.0, y0, dy0)
    closed = evaluate_position(w, bc, times, reference_bank)
    rel_dev = np.max(np.abs(oracle_pos - closed), axis=1) / np.ptp(oracle_pos,
                                                                   axis=1)
    runtime = time.perf_counter() - start
    _report(1, f"basis vs RK4(dt=1e-4), 20 cases, worst {rel_dev.max():.2e} "
               f"of amplitude (limit 1e-3)",
            {"amplitude-relative deviation <= 1e-3": rel_dev.max() <= 1e-3,
             "runtime < 30 s": runtime < 30.0},
            runtime)


def test_criterion_2_boundary_exactness(reference_bank):
    # 100 random boundary/distribution cases; every sampled trajectory must
    # pass through the boundary state
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst_pos = worst_vel = 0.0
    for _ in range(100):
        dofs = int(rng.integers(1, 4))
        t_b = float(rng.uniform(0.0, 2.5))
        bc = BoundaryCondition(t_b, rng.standard_normal(dofs),
                               rng.standard_normal(dofs))
        wdist = random_weights_distribution(dofs, reference_bank.weight_dim, rng)
        times = np.unique(np.concatenate([[t_b], rng.uniform(t_b, 3.0, 20),
                                          [3.0]]))
        pos, vel = sample_trajectories(wdist, bc, times, reference_bank, 5,
                                       seed=rng, with_velocities=True)
        at = int(np.searchsorted(times, t_b))
        worst_pos = max(worst_pos, float(np.max(np.abs(pos[:, :, at] - bc.y_b))))
        worst_vel = max(worst_vel, float(np.max(np.abs(vel[:, :, at] - bc.dy_b))))
    runtime = time.perf_counter() - start
    _report(2, f"sampled boundary adherence, worst pos {worst_pos:.1e} "
               f"(limit 1e-9), worst vel {worst_vel:.1e} (limit 1e-8)",
            {"position adherence <= 1e-9": worst_pos <= 1e-9,
             "velocity adherence <= 1e-8": worst_vel <= 1e-8,
             "runtime < 10 s": runtime < 10.0},
            runtime)


def test_criterion_3_generation_speedup():
    # 2 DoF, 6 s at 1000 Hz, 22-dim weights: bank generation at least 50x
    # faster than per-step Euler; rebuilding the boundary fold per call must
    # cost part of that margin
    start = time.perf_counter()
    stages = run_benchmark(BenchScenario(), repetitions=5)
    runtime = time.perf_counter() - start
    reused, rebuilt = stages["positions"], stages["fold_positions"]
    _report(3, f"speed-up {reused['speedup']:.0f}x (limit >= 50x), with the fold "
               f"rebuilt {rebuilt['speedup']:.0f}x (must be smaller)",
            {"speed-up >= 50x": reused["speedup"] >= 50.0,
             "fold rebuild strictly slower": rebuilt["speedup"] < reused["speedup"],
             "identical trajectories": rebuilt["checksum"] == reused["checksum"],
             "runtime < 60 s": runtime < 60.0},
            runtime)


def test_criterion_4_distribution_matches_monte_carlo(reference_bank):
    # at three probe-time pairs the analytic mean/covariance must agree with
    # 10^4 weight-space samples to 5% relative error
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    wdist = random_weights_distribution(2, reference_bank.weight_dim, rng)
    bc = BoundaryCondition(0.0, rng.standard_normal(2), rng.standard_normal(2))
    checks = {}
    worst_mean = worst_cov = 0.0
    for seed, pair in zip((7, 8, 9), ((0.5, 1.5), (1.0, 2.0), (0.7, 2.9))):
        times = np.asarray(pair)
        dist = trajectory_distribution(wdist, bc, times, reference_bank,
                                       noise_var=0.0)
        pos = sample_trajectories(wdist, bc, times, reference_bank, 10000,
                                  seed=seed)
        flat = pos.reshape(10000, -1)
        mean_err = (np.linalg.norm(flat.mean(axis=0) - dist.mean)
                    / np.sqrt(np.trace(dist.cov)))
        cov_err = (np.linalg.norm(np.cov(flat.T) - dist.cov)
                   / np.linalg.norm(dist.cov))
        worst_mean = max(worst_mean, mean_err)
        worst_cov = max(worst_cov, cov_err)
        checks[f"mean at t={pair} within 5%"] = mean_err <= 0.05
        checks[f"covariance at t={pair} within 5%"] = cov_err <= 0.05
    runtime = time.perf_counter() - start
    checks["runtime < 60 s"] = runtime < 60.0
    _report(4, f"Monte-Carlo (1e4 draws) vs analytic, worst mean "
               f"{worst_mean:.3f}, worst cov {worst_cov:.3f} (limit 0.05)",
            checks, runtime)


def test_criterion_5_pair_nll_coherence(reference_bank):
    # scoring a time pair directly or as a marginal of a larger joint must
    # give the same NLL; a unit-covariance pair at its mean scores ln(2 pi)
    rng = np.random.default_rng(55)
    wdist = random_weights_distribution(2, reference_bank.weight_dim, rng)
    bc = BoundaryCondition(0.0, rng.standard_normal(2), rng.standard_normal(2))
    grid = np.linspace(0.1, 3.0, 12)
    joint = trajectory_distribution(wdist, bc, grid, reference_bank, noise_var=1e-6)
    t_count = grid.size
    worst = 0.0
    for _ in range(100):
        i, j = sorted(rng.choice(t_count, size=2, replace=False))
        direct = trajectory_distribution(wdist, bc, grid[[i, j]], reference_bank,
                                         noise_var=1e-6)
        sub = marginal(joint, [i, j, t_count + i, t_count + j])
        values = direct.mean + 0.3 * rng.standard_normal(4)
        worst = max(worst, abs(gaussian_nll(direct, values)
                               - gaussian_nll(sub, values)))

    dim = reference_bank.weight_dim
    # the factor's G G^T underflows to exactly 0
    flat = WeightsDistribution(np.zeros(dim), 1e-200 * np.eye(dim))
    flat_bc = BoundaryCondition(0.0, np.zeros(1), np.zeros(1))
    batch = TimePairBatch(np.array([[0.4, 1.1], [0.9, 2.3], [1.7, 2.8]]))
    identity_nll = pair_nll(batch.with_values(np.zeros((3, 2))), flat, flat_bc,
                            reference_bank, noise_var=1.0)
    identity_dev = abs(identity_nll - LN_TWO_PI)
    _report(5, f"direct vs marginal pair NLL, worst dev {worst:.1e} (limit "
               f"1e-10); identity case dev {identity_dev:.1e} (limit 1e-12)",
            {"pair NLL coherence <= 1e-10": worst <= 1e-10,
             "identity pair scores ln(2 pi) to 1e-12": identity_dev <= 1e-12})


def test_criterion_6_bayesian_aggregation():
    # batch and sequential fusion agree; the textbook unit example is exact;
    # observation order cannot change a single bit
    rng = np.random.default_rng(66)
    prior = LatentGaussian(rng.standard_normal(50), rng.uniform(0.1, 2.0, 50))
    obs = [LatentGaussian(rng.standard_normal(50), rng.uniform(0.1, 2.0, 50))
           for _ in range(20)]
    batch = bayesian_aggregate(prior, obs)
    state = prior
    for o in obs:
        state = bayesian_aggregate(state, [o])
    seq_dev = max(float(np.max(np.abs(batch.mean - state.mean))),
                  float(np.max(np.abs(batch.var - state.var))))

    unit = bayesian_aggregate(LatentGaussian(np.array([0.0]), np.array([1.0])),
                              [LatentGaussian(np.array([1.0]), np.array([1.0]))])
    unit_dev = max(abs(unit.mean[0] - 0.5), abs(unit.var[0] - 0.5))

    permutation_exact = True
    for _ in range(5):
        shuffled = list(obs)
        rng.shuffle(shuffled)
        redo = bayesian_aggregate(prior, shuffled)
        permutation_exact &= (np.array_equal(redo.mean, batch.mean)
                              and np.array_equal(redo.var, batch.var))
    _report(6, f"batch vs sequential dev {seq_dev:.1e} (limit 1e-10); unit "
               f"example dev {unit_dev:.1e} (limit 1e-15); permutations "
               f"bit-exact: {permutation_exact}",
            {"batch equals sequential to 1e-10": seq_dev <= 1e-10,
             "unit example (0.5, 0.5) to 1e-15": unit_dev <= 1e-15,
             "permutation invariance bit-exact": permutation_exact})


def test_criterion_7_replanning_continuity(reference_bank):
    # a 6-segment chain joins without jumps, the stale-boundary control
    # jumps at least a million times more, and chaining does not inflate the
    # average squared acceleration beyond 2x the unsegmented trace
    rng = np.random.default_rng(77)
    wdist = random_weights_distribution(2, reference_bank.weight_dim, rng)
    initial = BoundaryCondition(0.0, rng.standard_normal(2),
                                rng.standard_normal(2))
    segments = [(wdist, 0.5)] * 6
    plan = run_chain(initial, segments, reference_bank, rate=100.0)
    stale_jumps = stale_chain(initial, segments, reference_bank, rate=100.0)
    single = evaluate_position(wdist.mean, initial, plan.times, reference_bank)
    asa_ratio = (smoothness_metric(plan.positions, 0.01)
                 / smoothness_metric(single, 0.01))
    jump = float(plan.pos_jumps.max())
    stale_jump = float(stale_jumps.max())
    _report(7, f"chain jumps {jump:.1e} (limit 1e-9), stale control "
               f"{stale_jump:.2f} (limit >= 1e-3), ASA ratio {asa_ratio:.3f} "
               f"(limit 2.0)",
            {"position jumps <= 1e-9": jump <= 1e-9,
             "stale-bc jumps >= 1e6 larger": stale_jump >= 1e6 * 1e-9,
             "ASA within 2x of unsegmented": asa_ratio <= 2.0})


def test_criterion_8_combination_identities(reference_bank):
    # combining a distribution with itself halves the covariance; a blend
    # reproduces its inputs exactly at the ramp ends
    rng = np.random.default_rng(88)
    times = np.linspace(0.0, 3.0, 31)
    sequences = []
    for _ in range(2):
        wdist = random_weights_distribution(2, reference_bank.weight_dim, rng)
        bc = BoundaryCondition(0.0, rng.standard_normal(2),
                               rng.standard_normal(2))
        grid, means, covs = per_time_marginals(wdist, bc, times, reference_bank)
        sequences.append(GaussianSequence(times=grid, means=means, covs=covs))

    seq = sequences[0]
    halved = combine([seq, seq], ActivationProfile(times, np.ones((2, 31))))
    half_dev = float(np.max(np.abs(halved.covs - seq.covs / 2.0))
                     / np.max(np.abs(seq.covs)))

    activation = falling_ramp(times, 1.0, 2.0)
    blended = combine(sequences, ActivationProfile(
        times, np.stack([activation, 1.0 - activation])))
    head = activation == 1.0
    tail = activation == 0.0
    scale = max(np.max(np.abs(seq.means)), np.max(np.abs(seq.covs)))
    end_dev = max(
        float(np.max(np.abs(blended.means[head] - sequences[0].means[head]))),
        float(np.max(np.abs(blended.covs[head] - sequences[0].covs[head]))),
        float(np.max(np.abs(blended.means[tail] - sequences[1].means[tail]))),
        float(np.max(np.abs(blended.covs[tail] - sequences[1].covs[tail]))))
    _report(8, f"self-combination halving dev {half_dev:.1e}; blend endpoint "
               f"dev {end_dev:.1e} (limit 1e-12, scale {scale:.1f})",
            {"self-combination halves covariance": half_dev <= 1e-12,
             "blend endpoints reproduce inputs to 1e-12": end_dev <= 1e-12})


def test_criterion_9_fit_round_trip(reference_bank):
    # synthesize -> fit -> resynthesize: essentially lossless on noiseless
    # data, and within 1% amplitude under 0.1% measurement noise
    rng = np.random.default_rng(99)
    w_true = rng.standard_normal(2 * reference_bank.weight_dim) * 5.0
    bc = BoundaryCondition(0.0, rng.standard_normal(2), rng.standard_normal(2))
    times = np.arange(301) / 100.0
    pos = evaluate_position(w_true, bc, times, reference_bank)
    amp = float(np.ptp(pos))

    w_fit = fit_weights(Demonstration(times, pos), reference_bank, ridge=1e-10,
                        bc=bc)
    recon = evaluate_position(w_fit, bc, times, reference_bank)
    clean_rmse = float(np.sqrt(np.mean((recon - pos) ** 2))) / amp

    noisy = pos + 0.001 * amp * rng.standard_normal(pos.shape)
    w_noisy = fit_weights(Demonstration(times, noisy), reference_bank, ridge=1e-10,
                          bc=bc)
    recon_noisy = evaluate_position(w_noisy, bc, times, reference_bank)
    noisy_rmse = float(np.sqrt(np.mean((recon_noisy - pos) ** 2))) / amp
    _report(9, f"round-trip RMSE {clean_rmse:.1e} of amplitude (limit 1e-6); "
               f"with 0.1% noise {noisy_rmse:.1e} (limit 1e-2)",
            {"noiseless round trip <= 1e-6": clean_rmse <= 1e-6,
             "noisy round trip <= 1%": noisy_rmse <= 1e-2})
