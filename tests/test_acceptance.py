"""End-to-end acceptance checks at the study's stated scales.

Each test exercises one acceptance criterion at its full stated size and
tolerance and prints a single [PASS]/[FAIL] line with the measured
quantities, so a run of this module doubles as an acceptance report:

    pytest tests/test_acceptance.py -v -s

The factorial checks simulate at the study dimensions (15x20 predictors,
5x10 responses) and take a few minutes in total.
"""

import numpy as np
import pytest

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitConfig,
    GibbsConfig,
    SimSpec,
    fit,
    gibbs,
    khatri_rao,
    normalize,
    run_cell,
    update_outcome_factor,
    update_predictor_factor,
)
from reference import gram_hadamard, nuclear_balance

IN_DIMS = (15, 20)
OUT_DIMS = (5, 10)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    return ok


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _random_cp(rng, in_dims, out_dims, rank) -> CpCoefficients:
    return CpCoefficients(
        [rng.standard_normal((p, rank)) for p in in_dims],
        [rng.standard_normal((q, rank)) for q in out_dims],
    )


def test_factor_updates_match_augmented_least_squares():
    """Every ridge factor update equals the unpenalized update on data
    augmented with sqrt(lambda) identity predictor rows and zero responses."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n_in = int(rng.integers(1, 3))
        # two modes or more, and rank at most the smallest dimension, keep
        # every skip-one system positive definite
        n_out = int(rng.integers(0, 3)) if n_in == 2 else int(rng.integers(1, 3))
        in_dims = tuple(int(d) for d in rng.integers(2, 7, n_in))
        out_dims = tuple(int(d) for d in rng.integers(2, 7, n_out))
        n = int(rng.integers(8, 21))
        rank = int(rng.integers(1, min(3, min(in_dims + out_dims)) + 1))
        lam = float(rng.choice([0.5, 5.0]))
        x = DenseTensor(rng.standard_normal((n,) + in_dims))
        y = DenseTensor(rng.standard_normal((n,) + out_dims))
        b = _random_cp(rng, in_dims, out_dims, rank)

        p_total = int(np.prod(in_dims))
        aug_x = DenseTensor(np.concatenate([
            x.array,
            np.sqrt(lam) * np.eye(p_total).reshape((p_total,) + in_dims, order="F"),
        ]))
        aug_y = DenseTensor(np.concatenate([
            y.array, np.zeros((p_total,) + out_dims),
        ]))

        for mode in range(n_in):
            direct = update_predictor_factor(x, y, b, mode, lam)
            via_aug = update_predictor_factor(aug_x, aug_y, b, mode, 0.0)
            worst = max(worst, _rel(via_aug, direct))
        for mode in range(n_out):
            direct = update_outcome_factor(x, y, b, mode, lam)
            via_aug = update_outcome_factor(aug_x, aug_y, b, mode, 0.0)
            worst = max(worst, _rel(via_aug, direct))
    ok = worst < 1e-8
    assert _report(
        "factor updates match augmented least squares",
        ok, f"worst relative difference {worst:.3g} over 50 instances",
    )


def test_degenerate_shapes_collapse_to_classical_solutions():
    """Rank-1 single-mode fit equals closed-form ridge regression; a
    full-rank matrix-on-matrix fit without penalty equals OLS."""
    rng = np.random.default_rng(102)
    n, p = 25, 6
    x = DenseTensor(rng.standard_normal((n, p)))
    y = DenseTensor(x.array @ rng.standard_normal(p) + 0.4 * rng.standard_normal(n))
    lam = 1.5
    res = fit(x, y, FitConfig(rank=1, lam=lam, seed=0, center_data=False))
    ridge = np.linalg.solve(x.array.T @ x.array + lam * np.eye(p), x.array.T @ y.array)
    ridge_err = _rel(res.coefficients.materialize().array.ravel(), ridge)

    n, p, q = 40, 5, 4
    x = DenseTensor(rng.standard_normal((n, p)))
    bmat = rng.standard_normal((p, q))
    y = DenseTensor(x.array @ bmat + 0.3 * rng.standard_normal((n, q)))
    res = fit(x, y, FitConfig(rank=q, lam=0.0, seed=0, center_data=False))
    ols = np.linalg.lstsq(x.array, y.array, rcond=None)[0]
    ols_err = _rel(res.coefficients.materialize().array, ols)

    ok = ridge_err < 1e-8 and ols_err < 1e-6
    assert _report(
        "degenerate shapes collapse to classical solutions",
        ok, f"ridge relative error {ridge_err:.3g}, OLS relative error {ols_err:.3g}",
    )


def test_objective_never_increases_between_sub_steps():
    """After the annealing sweeps, each factor update improves the
    penalized objective up to 1e-9 slack, on 20 seeded fits."""
    rng = np.random.default_rng(103)
    lams = [0.0, 0.5, 5.0, 50.0]
    worst = -np.inf
    for seed in range(20):
        x = DenseTensor(rng.standard_normal((14, 4, 3)))
        y = DenseTensor(rng.standard_normal((14, 3, 2)))
        cfg = FitConfig(rank=2, lam=lams[seed % len(lams)], seed=seed)
        res = fit(x, y, cfg)
        sub = np.asarray(res.substep_trace)
        if len(sub) > 1:
            worst = max(worst, float(np.diff(sub).max()))
    ok = worst <= 1e-9
    assert _report(
        "objective never increases between sub-steps",
        ok, f"largest sub-step increase {worst:.3g} over 20 fits",
    )


def test_rank_recovery_grid_matches_reference_behaviour():
    """N=120, power SNR 1, no penalty: fitting at the generating rank gives
    mean RPE in [0.45, 0.60], and the generating rank is the best choice
    in at least 4 of the 5 rows of the rank-by-rank grid."""
    ranks = range(1, 6)
    grid = np.empty((5, 5))
    for true_rank in ranks:
        spec = SimSpec(n=120, in_dims=IN_DIMS, out_dims=OUT_DIMS,
                       rank=true_rank, snr=1.0, seed=400 + true_rank)
        for fit_rank in ranks:
            cell = run_cell(spec, fit_rank, lam=0.0, replicates=10,
                            gibbs_samples=0)
            grid[true_rank - 1, fit_rank - 1] = cell.rpe
    diag = np.diag(grid)
    diag_ok = bool(np.all((0.45 <= diag) & (diag <= 0.60)))
    row_min_hits = int(sum(np.argmin(grid[r]) == r for r in range(5)))
    ok = diag_ok and row_min_hits >= 4
    assert _report(
        "rank recovery grid matches reference behaviour",
        ok,
        f"matched-rank RPE {np.array2string(diag, precision=3)}, "
        f"best-in-row at matched rank {row_min_hits}/5",
    )


def test_high_information_accuracy_and_coverage():
    """N=120, power SNR 25, matched rank: mean RPE in [0.01, 0.07] and 95%
    interval coverage in [0.92, 0.98] for each lambda in {0, 0.5, 1}."""
    spec = SimSpec(n=120, in_dims=IN_DIMS, out_dims=OUT_DIMS,
                   rank=2, snr=25.0, seed=500)
    rpes, coverages = [], []
    for lam in (0.0, 0.5, 1.0):
        cell = run_cell(spec, fit_rank=2, lam=lam, replicates=10,
                        gibbs_samples=1000)
        rpes.append(cell.rpe)
        coverages.append(cell.coverage_rate)
    rpes, coverages = np.array(rpes), np.array(coverages)
    ok = bool(np.all((0.01 <= rpes) & (rpes <= 0.07))
              and np.all((0.92 <= coverages) & (coverages <= 0.98)))
    assert _report(
        "high information accuracy and coverage",
        ok,
        f"mean RPE {np.array2string(rpes, precision=4)}, "
        f"coverage {np.array2string(coverages, precision=4)} "
        "for lambda in (0, 0.5, 1)",
    )


def test_no_signal_marginals_move_the_right_way():
    """Rank-0 truth: marginal mean RPE decreases in lambda over
    {0, 0.5, 5, 50}, increases in assumed rank over {1, 3, 5}, and the
    lambda=50 marginal lands in [1.0, 1.1]."""
    lams = (0.0, 0.5, 5.0, 50.0)
    fit_ranks = (1, 3, 5)
    table = np.empty((2, len(fit_ranks), len(lams)))
    for i, n in enumerate((30, 120)):
        spec = SimSpec(n=n, in_dims=IN_DIMS, out_dims=OUT_DIMS,
                       rank=0, snr=1.0, seed=600 + n)
        for j, fit_rank in enumerate(fit_ranks):
            for k, lam in enumerate(lams):
                cell = run_cell(spec, fit_rank, lam=lam,
                                replicates=10, gibbs_samples=0)
                table[i, j, k] = cell.rpe
    lam_margin = table.mean(axis=(0, 1))
    rank_margin = table.mean(axis=(0, 2))
    ok = (bool(np.all(np.diff(lam_margin) < 0))
          and bool(np.all(np.diff(rank_margin) > 0))
          and 1.0 <= lam_margin[-1] <= 1.1)
    assert _report(
        "no signal marginals move the right way",
        ok,
        f"lambda marginals {np.array2string(lam_margin, precision=3)}, "
        f"rank marginals {np.array2string(rank_margin, precision=3)}",
    )


def test_sampler_matches_conjugate_posterior_mean():
    """Single predictor mode, scalar response, rank 1, lambda 1: the
    sampled posterior mean matches the closed-form ridge posterior mean
    within 3 Monte-Carlo standard errors, per coordinate."""
    rng = np.random.default_rng(107)
    n, p, lam = 40, 6, 1.0
    x = DenseTensor(rng.standard_normal((n, p)))
    y = DenseTensor(x.array @ rng.standard_normal(p) + 0.8 * rng.standard_normal(n))
    draws = gibbs(x, y, GibbsConfig(rank=1, n_samples=5000, lam=lam, seed=11,
                                    center_data=False))
    samples = np.stack([d.materialize().array.ravel() for d in draws.coefficients])
    target = np.linalg.solve(x.array.T @ x.array + lam * np.eye(p),
                             x.array.T @ y.array)
    batches = samples.reshape(25, 200, p).mean(axis=1)
    mcse = batches.std(axis=0, ddof=1) / np.sqrt(batches.shape[0])
    gap = np.abs(samples.mean(axis=0) - target)
    ratio = gap / mcse
    ok = bool(np.all(ratio < 3.0))
    assert _report(
        "sampler matches conjugate posterior mean",
        ok, f"largest |error|/MCSE {ratio.max():.2f} over {p} coordinates",
    )


def test_normalized_factor_norms_balance_the_nuclear_norm():
    """For 20 random normalized order-2 coefficient sets, the summed
    squared factor norms equal twice the nuclear norm within 1e-8."""
    rng = np.random.default_rng(108)
    worst = 0.0
    for trial in range(20):
        rank = int(rng.integers(1, 4))
        if trial % 2 == 0:
            b = _random_cp(rng, (7,), (5,), rank)
        else:
            b = _random_cp(rng, (6, 4), (), rank)
        nb = normalize(b).coefficients
        sum_sq, twice_nuclear = nuclear_balance(nb)
        svals = np.linalg.svd(nb.materialize().array, compute_uv=False)
        explicit = 2.0 * float(svals.sum())
        worst = max(worst, abs(sum_sq - explicit) / explicit,
                    abs(twice_nuclear - explicit) / explicit)
    ok = worst < 1e-8
    assert _report(
        "normalized factor norms balance the nuclear norm",
        ok, f"worst relative gap {worst:.3g} over 20 coefficient sets",
    )


def test_gram_hadamard_equals_explicit_design_gram():
    """The Hadamard product of factor Grams equals the Gram of the
    explicit skip-one Khatri-Rao design, all modes, 50 instances."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        n_in = int(rng.integers(1, 3))
        n_out = int(rng.integers(0, 3)) if n_in > 1 else int(rng.integers(1, 3))
        in_dims = tuple(int(d) for d in rng.integers(2, 6, n_in))
        out_dims = tuple(int(d) for d in rng.integers(2, 6, n_out))
        rank = int(rng.integers(1, 5))
        b = _random_cp(rng, in_dims, out_dims, rank)
        factors = list(b.predictor_factors) + list(b.outcome_factors)
        for skip in range(len(factors)):
            design = khatri_rao([f for j, f in enumerate(factors) if j != skip])
            worst = max(worst, _rel(gram_hadamard(b, skip), design.T @ design))
    ok = worst < 1e-10
    assert _report(
        "gram hadamard equals explicit design gram",
        ok, f"worst relative difference {worst:.3g} over 50 instances",
    )


def test_prediction_error_shrinks_with_sample_size():
    """Matched rank, lambda 0.5: mean RPE strictly decreases across
    N in {30, 120, 480} over 10 replicates each."""
    means = []
    for n in (30, 120, 480):
        spec = SimSpec(n=n, in_dims=IN_DIMS, out_dims=OUT_DIMS,
                       rank=2, snr=1.0, seed=700)
        cell = run_cell(spec, fit_rank=2, lam=0.5, replicates=10,
                        gibbs_samples=0)
        means.append(cell.rpe)
    means = np.array(means)
    ok = bool(np.all(np.diff(means) < 0))
    assert _report(
        "prediction error shrinks with sample size",
        ok, f"mean RPE {np.array2string(means, precision=4)} for N in (30, 120, 480)",
    )
