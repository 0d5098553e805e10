"""Sampler tests.

Conditional means are checked against the fitting updates they share code
with, conditional covariances against explicitly built design matrices,
and the chain against the closed-form posterior of the single-factor
ridge model, where the coefficient posterior mean is available exactly.
"""

import faulthandler
import re
import sys
import threading
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mwreg import (
    CpCoefficients,
    DegeneratePosteriorError,
    DenseTensor,
    FitConfig,
    GibbsConfig,
    PosteriorDraws,
    SimSpec,
    SingularSystemError,
    conditional_factor_params,
    contract,
    credible_intervals,
    dic,
    draw_sigma2,
    fit,
    gibbs,
    khatri_rao,
    objective,
    posterior_predictive,
    predict,
    simulate,
    update_outcome_factor,
    update_predictor_factor,
)
from mwreg.fitting import _SweepState, _Workspace
import mwreg.fitting as fitting
import mwreg.posterior as posterior
from mwreg.posterior import _CHAIN_STREAM, FactorConditional, _predictive_intervals
from reference import (
    build_design_outcome,
    build_design_predictor,
    conditional_covariance,
    gram_hadamard,
    stacked_draws,
)
from test_fitting import _STUDY_CASES, _SWEEP_SHAPES, _per_call_objective, _per_call_sweep


def _point_stack(x_new, draws):
    """Each draw's `predict`, stacked: shape (draws, N, *out_dims)."""
    return np.stack([predict(x_new, replace(draws.mode, coefficients=b)).array
                     for b in draws.coefficients])


def _random_instance(rng, n, in_dims, out_dims, rank, noise=0.5):
    x = DenseTensor(rng.standard_normal((n,) + in_dims))
    b = CpCoefficients(
        [rng.standard_normal((d, rank)) for d in in_dims],
        [rng.standard_normal((d, rank)) for d in out_dims],
    )
    clean = contract(x, b.materialize(), len(in_dims))
    y = DenseTensor(clean.array + noise * rng.standard_normal(clean.dims))
    return x, y, b


class TestDrawSigma2:
    def test_inverse_gamma_moment(self):
        # shape a = NQ/2 = 6; residual SS 10 gives rate 5, so the mean is
        # 5/(6-1) = 1 and the variance 25/(25*4) = 1/4
        rng = np.random.default_rng(0)
        x = DenseTensor(rng.standard_normal((6, 3)))
        yarr = rng.standard_normal((6, 2))
        yarr *= np.sqrt(10.0 / np.sum(yarr**2))
        y = DenseTensor(yarr)
        zero = CpCoefficients([np.zeros((3, 1))], [np.zeros((2, 1))])
        draws = np.array(
            [draw_sigma2(x, y, zero, rng) for _ in range(100_000)]
        )
        se = 0.5 / np.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_scale_family(self):
        rng = np.random.default_rng(1)
        x = DenseTensor(rng.standard_normal((5, 3)))
        y = DenseTensor(rng.standard_normal((5, 2)))
        y4 = DenseTensor(2.0 * y.array)
        zero = CpCoefficients([np.zeros((3, 1))], [np.zeros((2, 1))])
        d1 = draw_sigma2(x, y, zero, np.random.default_rng(7))
        d4 = draw_sigma2(x, y4, zero, np.random.default_rng(7))
        assert d4 == pytest.approx(4.0 * d1, rel=1e-12)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(2)
        x, y, b = _random_instance(rng, 6, (3,), (2,), 1)
        a = draw_sigma2(x, y, b, np.random.default_rng(3))
        c = draw_sigma2(x, y, b, np.random.default_rng(3))
        assert a == c and a > 0.0

    def test_zero_residual_degenerate(self):
        rng = np.random.default_rng(4)
        x = DenseTensor(rng.standard_normal((5, 3)))
        y = DenseTensor(np.zeros((5, 2)))
        zero = CpCoefficients([np.zeros((3, 1))], [np.zeros((2, 1))])
        with pytest.raises(DegeneratePosteriorError, match="is zero"):
            draw_sigma2(x, y, zero, np.random.default_rng(0))

    def test_non_finite_residual_degenerate(self):
        rng = np.random.default_rng(4)
        # the residuals' squares overflow to inf
        x = DenseTensor(1e100 * rng.standard_normal((10, 3)))
        y = DenseTensor(rng.standard_normal(10))
        huge = CpCoefficients([np.full((3, 2), 1e60)])
        with (np.errstate(over="ignore"),
              pytest.raises(DegeneratePosteriorError, match="is not finite")):
            draw_sigma2(x, y, huge, np.random.default_rng(0))
        with pytest.raises(DegeneratePosteriorError, match="is not finite"):
            posterior._draw_sigma2_rss(float("nan"), 10, np.random.default_rng(0))


class TestConditionalFactorParams:
    def test_mean_equals_update_output(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y, b = _random_instance(rng, 12, (3, 2), (2, 3), 2)
            for lam in (0.0, 0.8):
                for mode in range(2):
                    cond = conditional_factor_params(x, y, b, mode, lam, 1.0)
                    assert np.array_equal(
                        cond.mean, update_predictor_factor(x, y, b, mode, lam)
                    )
                for mode in range(2):
                    cond = conditional_factor_params(x, y, b, 2 + mode, lam, 1.0)
                    assert cond.is_outcome
                    assert np.array_equal(
                        cond.mean, update_outcome_factor(x, y, b, mode, lam)
                    )

    def test_sigma2_scales_covariance_only(self):
        rng = np.random.default_rng(6)
        x, y, b = _random_instance(rng, 10, (3,), (2, 2), 2)
        lo = conditional_factor_params(x, y, b, 0, 0.5, 0.0)
        hi = conditional_factor_params(x, y, b, 0, 0.5, 3.0)
        assert np.array_equal(lo.mean, hi.mean)
        assert not conditional_covariance(lo).any()
        assert np.allclose(conditional_covariance(hi), 3.0 * _cov_at_unit(x, y, b), atol=1e-10)

    def test_predictor_covariance_explicit(self):
        rng = np.random.default_rng(7)
        x, y, b = _random_instance(rng, 10, (3, 2), (2,), 2)
        lam, s2 = 0.7, 1.7
        for mode in range(2):
            cond = conditional_factor_params(x, y, b, mode, lam, s2)
            c = build_design_predictor(x, b, mode)
            g = gram_hadamard(b, mode)
            p = b.in_dims[mode]
            s = c.T @ c + lam * np.kron(g, np.eye(p))
            assert np.allclose(conditional_covariance(cond), s2 * np.linalg.inv(s), atol=1e-8)

    def test_outcome_covariance_kron_structure(self):
        rng = np.random.default_rng(8)
        x, y, b = _random_instance(rng, 10, (3,), (2, 4), 2)
        lam, s2 = 0.9, 2.0
        # concatenated mode 2 is the last outcome mode, whose design is
        # exactly what build_design_outcome produces
        cond = conditional_factor_params(x, y, b, 2, lam, s2)
        d = build_design_outcome(x, b)
        a = d.T @ d + lam * gram_hadamard(b, 2)
        want = s2 * np.kron(np.linalg.inv(a), np.eye(4))
        assert np.allclose(conditional_covariance(cond), want, atol=1e-8)

    def test_bayesian_ridge_closed_form(self):
        rng = np.random.default_rng(9)
        n, p = 20, 4
        x = DenseTensor(rng.standard_normal((n, p)))
        y = DenseTensor(rng.standard_normal(n))
        b = CpCoefficients([rng.standard_normal((p, 1))], [])
        lam, s2 = 1.5, 0.8
        cond = conditional_factor_params(x, y, b, 0, lam, s2)
        s = x.array.T @ x.array + lam * np.eye(p)
        mu = np.linalg.solve(s, x.array.T @ y.array)
        assert np.allclose(cond.mean[:, 0], mu, atol=1e-10)
        assert np.allclose(conditional_covariance(cond), s2 * np.linalg.inv(s), atol=1e-10)

    def test_covariance_positive_definite(self):
        rng = np.random.default_rng(10)
        x, y, b = _random_instance(rng, 8, (3, 2), (2, 2), 2)
        for mode in range(4):
            cov = conditional_covariance(conditional_factor_params(x, y, b, mode, 0.4, 1.0))
            assert np.allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() > 0.0

    def test_sample_at_zero_variance_is_mean(self):
        rng = np.random.default_rng(11)
        x, y, b = _random_instance(rng, 8, (3,), (2, 2), 2)
        for mode in range(3):
            cond = conditional_factor_params(x, y, b, mode, 0.5, 0.0)
            assert np.array_equal(cond.sample(np.random.default_rng(0)), cond.mean)

    def test_sample_moments_match_parameters(self):
        rng = np.random.default_rng(12)
        x, y, b = _random_instance(rng, 10, (3,), (2,), 1)
        cond = conditional_factor_params(x, y, b, 0, 0.6, 1.3)
        samp = np.random.default_rng(13)
        draws = np.stack(
            [cond.sample(samp).ravel(order="F") for _ in range(30_000)]
        )
        want = conditional_covariance(cond)
        got = np.cov(draws.T)
        assert np.abs(draws.mean(axis=0) - cond.mean.ravel(order="F")).max() < 0.01
        assert np.abs(got - want).max() < 0.1 * np.abs(want).max()

    def test_sample_equals_scipy_triangular_solve(self):
        rng = np.random.default_rng(33)
        x, y, b = _random_instance(rng, 12, (3, 2), (2, 3), 2)
        for mode in range(4):
            cond = conditional_factor_params(x, y, b, mode, 0.5, 1.7)
            got = cond.sample(np.random.default_rng(mode))
            z_rng = np.random.default_rng(mode)
            sd = float(np.sqrt(cond.sigma2))
            low = cond.system_chol
            if cond.is_outcome:
                z = z_rng.standard_normal(cond.mean.shape)
                pert = scipy.linalg.solve_triangular(low, z.T, lower=True, trans="T").T
            else:
                z = z_rng.standard_normal(cond.mean.size)
                pert = scipy.linalg.solve_triangular(low, z, lower=True, trans="T")
                pert = pert.reshape(cond.mean.shape, order="F")
            assert np.array_equal(got, cond.mean + sd * pert)

    def test_result_keeps_its_values_after_further_updates(self):
        rng = np.random.default_rng(34)
        x, y, b = _random_instance(rng, 30, (15, 20), (5, 10), 3)
        conds = [conditional_factor_params(x, y, b, mode, 0.5, 1.3) for mode in range(4)]
        kept = [(c.mean.copy(), c.system_chol.copy()) for c in conds]
        # further updates: every mode again, a chain, and a sweep of a shared state
        for mode in range(4):
            conditional_factor_params(x, y, b, mode, 0.5, 1.3).sample(rng)
        gibbs(x, y, GibbsConfig(rank=3, n_samples=2, lam=0.5, seed=8))
        state = _SweepState(_Workspace(x.array, y.array), b.predictor_factors, b.outcome_factors)
        means = [state.update(mode, 0.5, 0.5)[:2] for mode in range(4)]
        mean_copies = [(m.copy(), low.copy()) for m, low in means]
        state.sweep(0.5, 0.5, lambda mode, mean, low: mean)
        state.sweep(0.5, 0.5, lambda mode, mean, low: mean)
        for cond, (mean, low) in zip(conds, kept):
            assert np.array_equal(cond.mean, mean)
            assert np.array_equal(cond.system_chol, low)
        for (m, low), (m0, low0) in zip(means, mean_copies):
            assert np.array_equal(m, m0)
            assert np.array_equal(low, low0)

    def test_mode_and_sigma2_validation(self):
        rng = np.random.default_rng(14)
        x, y, b = _random_instance(rng, 8, (3,), (2,), 1)
        with pytest.raises(ValueError):
            conditional_factor_params(x, y, b, 2, 0.5, 1.0)
        with pytest.raises(ValueError):
            conditional_factor_params(x, y, b, 0, 0.5, -1.0)
        # y with its outcome modes permuted against the coefficients
        x, y, b = _random_instance(rng, 10, (3,), (3, 2), 1)
        yt = DenseTensor(np.transpose(y.array, (0, 2, 1)))
        steps = [
            lambda: objective(x, yt, b),
            lambda: update_predictor_factor(x, yt, b, 0),
            lambda: update_outcome_factor(x, yt, b, 0),
            lambda: draw_sigma2(x, yt, b, np.random.default_rng(0)),
            lambda: conditional_factor_params(x, yt, b, 0, 0.5, 1.0),
        ]
        for step in steps:
            with pytest.raises(ValueError, match="y trailing dims"):
                step()


def _per_call_chain(ws, b0, cfg):
    """`gibbs` without burn-in or thinning, with nothing shared between calls."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _CHAIN_STREAM)))
    pred = [f.copy() for f in b0.predictor_factors]
    out = [f.copy() for f in b0.outcome_factors]
    states, sigma2s = [], []
    for _ in range(cfg.n_samples):
        rss = _per_call_objective(ws, pred, out, 0.0)
        sigma2 = float(1.0 / rng.gamma(0.5 * ws.n * ws.q, 2.0 / rss))

        def draw(mode, mean, low):
            return FactorConditional(mean, low, sigma2, mode >= len(pred)).sample(rng)

        _per_call_sweep(ws, pred, out, cfg.lam, cfg.lam, draw)
        states.append(pred + out)
        sigma2s.append(sigma2)
    return states, sigma2s


class TestSharedSweepProducts:
    """Gibbs iterations share each Khatri-Rao, Gram, Z_l and T product between
    the conditional draws; they must carry the bits of per-call products."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("in_dims,out_dims", _SWEEP_SHAPES)
    def test_chain_equals_per_call_draws(self, in_dims, out_dims, lam):
        rng = np.random.default_rng(44)
        rank = 1 if len(in_dims) + len(out_dims) == 1 else 2
        x, y, _ = _random_instance(rng, 20, in_dims, out_dims, rank)
        mode_fit = fit(x, y, FitConfig(rank=rank, lam=lam, seed=5, center_data=False))
        cfg = GibbsConfig(rank=rank, n_samples=6, lam=lam, seed=5, center_data=False)
        draws = gibbs(x, y, cfg, mode_fit=mode_fit)
        states, sigma2s = _per_call_chain(
            _Workspace(x.array, y.array), mode_fit.coefficients, cfg
        )
        assert np.array_equal(draws.sigma2s, sigma2s)
        for b, factors in zip(draws.coefficients, states, strict=True):
            for got, want in zip(b.factors, factors, strict=True):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("rank,lam", _STUDY_CASES)
    def test_study_shape_chain_equals_per_call_draws(self, rank, lam):
        rng = np.random.default_rng(47)
        x, y, _ = _random_instance(rng, 30, (15, 20), (5, 10), rank)
        mode_fit = fit(x, y, FitConfig(rank=rank, lam=lam, seed=7, max_iters=20,
                                       center_data=False))
        cfg = GibbsConfig(rank=rank, n_samples=4, lam=lam, seed=7, center_data=False)
        draws = gibbs(x, y, cfg, mode_fit=mode_fit)
        states, sigma2s = _per_call_chain(
            _Workspace(x.array, y.array), mode_fit.coefficients, cfg
        )
        assert np.array_equal(draws.sigma2s, sigma2s)
        for b, factors in zip(draws.coefficients, states, strict=True):
            for got, want in zip(b.factors, factors, strict=True):
                assert np.array_equal(got, want)


def _cov_at_unit(x, y, b):
    return conditional_covariance(conditional_factor_params(x, y, b, 0, 0.5, 1.0))


class TestGibbs:
    def test_seed_determinism(self):
        rng = np.random.default_rng(15)
        x, y, _ = _random_instance(rng, 15, (3, 2), (2,), 2)
        cfg = GibbsConfig(rank=2, n_samples=20, lam=0.5, seed=3)
        a, b = gibbs(x, y, cfg), gibbs(x, y, cfg)
        assert np.array_equal(a.sigma2s, b.sigma2s)
        for ba, bb in zip(a.coefficients, b.coefficients):
            for fa, fb in zip(ba.factors, bb.factors):
                assert np.array_equal(fa, fb)

    def test_supplied_mode_fit_matches_internal(self):
        rng = np.random.default_rng(16)
        x, y, _ = _random_instance(rng, 12, (3,), (2, 2), 2)
        cfg = GibbsConfig(rank=2, n_samples=10, lam=0.7, seed=4)
        mode = fit(x, y, FitConfig(rank=2, lam=0.7, seed=4))
        a = gibbs(x, y, cfg)
        b = gibbs(x, y, cfg, mode_fit=mode)
        assert np.array_equal(a.sigma2s, b.sigma2s)

    def test_burn_in_and_thin_select_from_same_chain(self):
        rng = np.random.default_rng(17)
        x, y, _ = _random_instance(rng, 12, (3,), (2,), 1)
        full = gibbs(x, y, GibbsConfig(rank=1, n_samples=17, lam=0.5, seed=5))
        thinned = gibbs(
            x, y, GibbsConfig(rank=1, n_samples=4, lam=0.5, seed=5, burn_in=5, thin=3)
        )
        assert len(thinned) == 4
        for k, idx in enumerate((7, 10, 13, 16)):
            assert thinned.sigma2s[k] == full.sigma2s[idx]
            for fa, fb in zip(
                thinned.coefficients[k].factors, full.coefficients[idx].factors
            ):
                assert np.array_equal(fa, fb)

    def test_draw_invariants(self):
        rng = np.random.default_rng(18)
        x, y, _ = _random_instance(rng, 12, (3, 2), (2, 2), 2)
        draws = gibbs(x, y, GibbsConfig(rank=2, n_samples=15, lam=0.5, seed=6))
        assert len(draws) == 15
        assert np.all(draws.sigma2s > 0.0)
        for b in draws.coefficients:
            assert b.in_dims == (3, 2) and b.out_dims == (2, 2) and b.rank == 2

    def test_mode_fit_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        x, y, _ = _random_instance(rng, 12, (3,), (2,), 1)
        wrong_rank = fit(x, y, FitConfig(rank=2, lam=0.5, seed=0))
        with pytest.raises(ValueError):
            gibbs(x, y, GibbsConfig(rank=1, n_samples=2, lam=0.5), mode_fit=wrong_rank)
        other = DenseTensor(rng.standard_normal((12, 4)))
        mode = fit(other, y, FitConfig(rank=1, lam=0.5, seed=0))
        with pytest.raises(ValueError):
            gibbs(x, y, GibbsConfig(rank=1, n_samples=2, lam=0.5), mode_fit=mode)
        # a size-1 mode would broadcast against the mode fit's offsets
        one = DenseTensor(rng.standard_normal((12, 1)))
        mode = fit(x, y, FitConfig(rank=1, lam=0.5, seed=0))
        for xd, yd in ((one, y), (x, one)):
            with pytest.raises(ValueError, match="dims do not match"):
                gibbs(xd, yd, GibbsConfig(rank=1, n_samples=2, lam=0.5), mode_fit=mode)

    @pytest.mark.parametrize("fit_centered", [True, False])
    def test_mode_fit_centering_must_match(self, fit_centered):
        # the chain would start from the fit's offsets whatever cfg.center_data says
        rng = np.random.default_rng(20)
        x, y, _ = _random_instance(rng, 12, (3,), (2,), 1)
        mode = fit(x, y, FitConfig(rank=1, lam=0.5, seed=0, center_data=fit_centered))
        cfg = GibbsConfig(rank=1, n_samples=2, lam=0.5, center_data=not fit_centered)
        state = "centered" if fit_centered else "uncentered"
        with pytest.raises(ValueError,
                           match=f"^mode fit is {state} but cfg.center_data is {not fit_centered}$"):
            gibbs(x, y, cfg, mode_fit=mode)

    def test_centered_copy_that_overflows_is_refused(self):
        # the chain's data are centered where the fit's are, with the same check
        rng = np.random.default_rng(21)
        x, y, _ = _random_instance(rng, 12, (3,), (2,), 1)
        mode = fit(x, y, FitConfig(rank=1, lam=0.5, seed=0))
        far = replace(mode, x_offsets=np.full(3, -1.7e308))
        big = DenseTensor(np.where(np.arange(3) == 1, 1.7e308, x.array))
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="^tensor values must be finite$"):
            gibbs(big, y, GibbsConfig(rank=1, n_samples=2, lam=0.5), mode_fit=far)

    def test_singular_chain_keeps_error_type(self):
        # flat prior, fit rank 3 over true rank 1: the fit converges, then a
        # conditional system of the chain turns singular
        spec = SimSpec(n=12, in_dims=(3, 2), out_dims=(2,), rank=1, snr=1.0, seed=0)
        x, y, _ = simulate(spec)
        mode = fit(x, y, FitConfig(rank=3, lam=0.0, seed=0))
        with pytest.raises(SingularSystemError, match="singular at lambda=0") as info:
            gibbs(x, y, GibbsConfig(rank=3, n_samples=200, lam=0.0, seed=0), mode_fit=mode)
        assert any(entry.name == "gibbs" for entry in info.traceback)

    @pytest.mark.parametrize("it, error, match", [
        (3, DegeneratePosteriorError, "^residual sum of squares is not finite"),  # dropped by thin
        (4, DegeneratePosteriorError, "^residual sum of squares is not finite"),  # kept
        (20, ValueError, "^factor matrices must be finite$"),  # the last draw
    ])
    def test_a_non_finite_draw(self, monkeypatch, it, error, match):
        # iteration it's outcome draw overflows: mid-chain the next variance step
        # fails on it as a numerical error, and PosteriorDraws refuses the last draw
        x, y, _ = _random_instance(np.random.default_rng(24), 12, (3, 2), (2,), 1)
        draw, calls = posterior._draw, []

        def overflowing(*args):
            calls.append(draw(*args))
            # three factor draws per iteration, the outcome draw last
            return np.full_like(calls[-1], np.inf) if len(calls) == 3 * it else calls[-1]

        monkeypatch.setattr(posterior, "_draw", overflowing)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(error, match=match):
            gibbs(x, y, GibbsConfig(rank=1, n_samples=10, thin=2, lam=0.5, seed=0))
        assert len(calls) == 3 * it

    def test_flat_prior_chain_stays_near_mode(self):
        rng = np.random.default_rng(20)
        x, y, _ = _random_instance(rng, 60, (3, 2), (2,), 1, noise=0.05)
        cfg = GibbsConfig(rank=1, n_samples=1200, lam=0.0, seed=7)
        draws = gibbs(x, y, cfg)
        mode_pred = predict(x, draws.mode).array
        mean_pred = _point_stack(x, draws).mean(axis=0)
        rel = np.linalg.norm(mean_pred - mode_pred) / np.linalg.norm(mode_pred)
        assert rel < 0.05

    def test_single_factor_ridge_conjugacy(self):
        # with one predictor factor the conditional mean does not depend on
        # sigma2, so the marginal posterior mean is the ridge solution
        rng = np.random.default_rng(21)
        n, p = 40, 3
        x = DenseTensor(rng.standard_normal((n, p)))
        beta = np.array([1.0, -2.0, 0.5])
        y = DenseTensor(x.array @ beta + 0.7 * rng.standard_normal(n))
        lam = 1.0
        cfg = GibbsConfig(rank=1, n_samples=4000, lam=lam, seed=8, center_data=False)
        draws = gibbs(x, y, cfg)
        ridge = np.linalg.solve(
            x.array.T @ x.array + lam * np.eye(p), x.array.T @ y.array
        )
        samples = np.stack(
            [b.predictor_factors[0][:, 0] for b in draws.coefficients]
        )
        batches = samples.reshape(20, 200, p).mean(axis=1)
        mcse = batches.std(axis=0, ddof=1) / np.sqrt(20)
        assert np.all(np.abs(samples.mean(axis=0) - ridge) < 3 * mcse)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(rank=0)
        with pytest.raises(ValueError):
            GibbsConfig(rank=1, n_samples=0)
        with pytest.raises(ValueError):
            GibbsConfig(rank=1, thin=0)
        with pytest.raises(ValueError):
            GibbsConfig(rank=1, burn_in=-1)
        with pytest.raises(ValueError):
            GibbsConfig(rank=1, credible_level=1.0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            GibbsConfig(rank=1, seed=-1)


# the public single-step functions, each at mode 0, taking (x, y, b, lam)
_SINGLE_STEPS = {
    "objective": objective,
    "update_predictor_factor": lambda x, y, b, lam: update_predictor_factor(x, y, b, 0, lam),
    "update_outcome_factor": lambda x, y, b, lam: update_outcome_factor(x, y, b, 0, lam),
    "conditional_factor_params":
        lambda x, y, b, lam: conditional_factor_params(x, y, b, 0, lam, 1.0),
}


@pytest.mark.parametrize("lam", [-0.01, float("nan"), float("inf")])
@pytest.mark.parametrize("step", sorted(_SINGLE_STEPS))
def test_single_steps_refuse_the_lambdas_the_configs_refuse(step, lam):
    x, y, b = _random_instance(np.random.default_rng(23), 8, (3, 2), (2,), 2)
    with pytest.raises(ValueError, match=r"^lam must be finite and non-negative$"):
        _SINGLE_STEPS[step](x, y, b, lam)


def _tiny_draws(rng, t=4, sigma2=1.0):
    x = DenseTensor(rng.standard_normal((8, 3)))
    y = DenseTensor(rng.standard_normal((8, 2)))
    mode = fit(x, y, FitConfig(rank=1, lam=0.5, seed=0, center_data=False))
    bs = [
        CpCoefficients(
            [rng.standard_normal((3, 1))], [rng.standard_normal((2, 1))]
        )
        for _ in range(t)
    ]
    return x, y, stacked_draws(bs, np.full(t, sigma2), mode)


# the smallest positive normal double: its noise, about 1e-154 times a
# standard normal, is below half an ulp of any prediction above 1e-100
_TINY = np.finfo(float).tiny


class TestPosteriorPredictive:
    def test_tiny_variance_draws_are_point_predictions(self):
        rng = np.random.default_rng(23)
        x, y, draws = _tiny_draws(rng, t=3, sigma2=_TINY)
        x_new = DenseTensor(rng.standard_normal((5, 3)))
        outs = posterior_predictive(x_new, draws, rng=0)
        assert isinstance(outs, np.ndarray) and outs.shape == (3, 5, 2)
        x1 = x_new.array
        for t, d in enumerate(outs):
            want = x1 @ draws.coefficients[t].matricize()
            assert np.allclose(d, want.reshape(5, 2, order="F"), atol=1e-12)

    def test_law_of_total_variance(self):
        rng = np.random.default_rng(24)
        x, y, _ = _random_instance(rng, 30, (3,), (2,), 1, noise=1.0)
        draws = gibbs(x, y, GibbsConfig(rank=1, n_samples=3000, lam=0.5, seed=10))
        x_new = DenseTensor(rng.standard_normal((2, 3)))
        vals = posterior_predictive(x_new, draws, rng=11)
        point = _point_stack(x_new, draws)
        want = point.var(axis=0) + draws.sigma2s.mean()
        got = vals.var(axis=0)
        assert np.abs(got - want).max() < 0.15 * want.max()

    def test_predict_is_the_tiny_variance_draw(self):
        rng = np.random.default_rng(28)
        for out_dims, center in (((2, 2), True), ((), True), ((2,), False)):
            x, y, _ = _random_instance(rng, 12, (3, 2), out_dims, 2)
            res = fit(x, y, FitConfig(rank=2, lam=0.5, seed=3, center_data=center))
            x_new = DenseTensor(rng.standard_normal((37, 3, 2)))
            one = stacked_draws([res.coefficients], np.full(1, _TINY), res)
            got = posterior_predictive(x_new, one, 0)[0]
            want = predict(x_new, res).array
            assert np.abs(want).min() > 1e-100
            assert np.array_equal(want, got)

    def test_matches_per_draw_loop(self):
        # more draws than one stacked-matmul batch and more test rows than
        # one predictive block; one, two and three predictor modes;
        # centered, uncentered and scalar responses
        rng = np.random.default_rng(34)
        cases = (((3,), (2, 3), True), ((3, 2), (2, 3), False), ((3, 2), (), True),
                 ((2, 2, 2), (4,), False), ((2, 2, 2), (2, 2, 2), True))
        n = 37
        for in_dims, out_dims, center in cases:
            x, y, _ = _random_instance(rng, 20, in_dims, out_dims, 2)
            cfg = GibbsConfig(rank=2, n_samples=45, lam=0.5, seed=4, center_data=center)
            draws = gibbs(x, y, cfg)
            x_new = DenseTensor(rng.standard_normal((n,) + in_dims))
            got = posterior_predictive(x_new, draws, rng=13)
            assert isinstance(got, np.ndarray) and got.shape == (45, n) + out_dims
            cells = int(np.prod(out_dims))
            # observation-major noise: row, then cell (first index fastest), then draw
            z = np.random.default_rng(13).standard_normal((n, cells, 45))
            xa = x_new.array if draws.mode.x_offsets is None else x_new.array - draws.mode.x_offsets
            x1 = xa.reshape(n, -1, order="F")
            for t, (b, s2) in enumerate(zip(draws.coefficients, draws.sigma2s)):
                point = predict(x_new, replace(draws.mode, coefficients=b)).array
                # the per-set matricized route over all rows, written out
                vq = khatri_rao(b.outcome_factors) if out_dims else np.ones((1, 2))
                pm = ((x1 @ khatri_rao(b.predictor_factors)) @ vq.T).reshape((n,) + out_dims, order="F")
                if draws.mode.y_offsets is not None:
                    pm = pm + draws.mode.y_offsets
                assert np.array_equal(point, pm)
                noise = np.sqrt(s2) * z[:, :, t].reshape((n,) + out_dims, order="F")
                assert np.array_equal(got[t], point + noise)

    def test_draws_that_do_not_match_the_mode_are_refused(self):
        # a draw can no longer differ from the others: each mode is one stack
        rng = np.random.default_rng(35)
        x, y, draws = _tiny_draws(rng, t=3)
        pred, out = draws.predictor_factors, draws.outcome_factors
        cases = [
            ([rng.standard_normal((3, 4, 1))], out, "(3, 4, 1), (3, 2, 1)] are not 3 draws"),
            (pred, [rng.standard_normal((3, 3, 1))], "(3, 3, 1), (3, 3, 1)] are not 3 draws"),
            ([rng.standard_normal((3, 3, 2))], [rng.standard_normal((3, 2, 2))],
             "(3, 3, 2), (3, 2, 2)] are not 3 draws of the mode's (3,) -> (2,) at rank 1"),
            # stacks of different draw counts
            (pred, [out[0][:2]], "(3, 3, 1), (2, 2, 1)] are not 3 draws"),
            # a stack too few or too many, and an outcome stack given as a predictor one
            ([], out, "factor stacks of shapes [(3, 2, 1)] are not 3 draws"),
            (pred, [], "factor stacks of shapes [(3, 3, 1)] are not 3 draws"),
            (pred, out + out, "are not 3 draws"),
            (pred + out, [], "are not 3 draws"),
        ]
        for p, o, message in cases:
            with pytest.raises(ValueError) as info:
                PosteriorDraws(p, o, draws.sigma2s, draws.mode)
            assert message in str(info.value)

    def test_seed_types_and_determinism(self):
        rng = np.random.default_rng(25)
        x, y, draws = _tiny_draws(rng)
        x_new = DenseTensor(rng.standard_normal((3, 3)))
        a = posterior_predictive(x_new, draws, rng=42)
        b = posterior_predictive(x_new, draws, np.random.default_rng(42))
        assert a.shape == b.shape == (4, 3, 2)
        assert np.array_equal(a, b)

    def test_empty_draws_rejected(self):
        rng = np.random.default_rng(26)
        x, y, draws = _tiny_draws(rng)
        for p, o in (([], []), ([np.empty((0, 3, 1))], [np.empty((0, 2, 1))])):
            with pytest.raises(ValueError, match="^draws are empty$"):
                PosteriorDraws(p, o, np.array([]), draws.mode)
        with pytest.raises(ValueError, match="^draws are empty$"):
            stacked_draws([], np.array([]), draws.mode)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(27)
        x, y, draws = _tiny_draws(rng)
        with pytest.raises(ValueError):
            posterior_predictive(DenseTensor(rng.standard_normal((3, 5))), draws, 0)


class TestCredibleIntervals:
    def test_constant_draws_zero_width(self):
        d = np.array([[1.5, -2.0], [0.0, 3.0]])
        lo, hi = credible_intervals(np.stack([d, d, d]), level=0.9)
        assert isinstance(lo, DenseTensor) and lo.dims == (2, 2)
        assert np.array_equal(lo.array, d)
        assert np.array_equal(hi.array, d)

    def test_level_zero_is_median(self):
        draws = np.arange(1.0, 6.0)[:, None]
        lo, hi = credible_intervals(draws, level=0.0)
        assert lo.array[0] == hi.array[0] == 3.0

    def test_normal_quantile_oracle(self):
        rng = np.random.default_rng(28)
        sims = rng.standard_normal((100_000, 2))
        sims[:, 1] = 3.0 + 2.0 * sims[:, 1]
        lo, hi = credible_intervals(sims, level=0.95)
        assert lo.array[0] == pytest.approx(-1.96, abs=0.05)
        assert hi.array[0] == pytest.approx(1.96, abs=0.05)
        assert lo.array[1] == pytest.approx(3.0 - 1.96 * 2.0, abs=0.1)
        assert hi.array[1] == pytest.approx(3.0 + 1.96 * 2.0, abs=0.1)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(29)
        draws = rng.standard_normal((200, 3, 2))
        lo_a, hi_a = credible_intervals(draws, level=0.5)
        lo_b, hi_b = credible_intervals(draws, level=0.9)
        assert np.all(lo_b.array <= lo_a.array)
        assert np.all(hi_b.array >= hi_a.array)

    def test_blocks_match_np_quantile(self):
        # more response cells than one transposed block, ties included
        rng = np.random.default_rng(36)
        for shape in ((50, 7, 30), (2, 301), (37, 3, 2, 50)):
            stack = rng.standard_normal(shape)
            for tied in (False, True):
                draws = np.round(stack, 1) if tied else stack
                for level in (0.0, 0.5, 0.9, 0.95, 0.999):
                    alpha = 0.5 * (1.0 - level)
                    lo, hi = credible_intervals(draws, level)
                    want_lo, want_hi = np.quantile(draws, [alpha, 1.0 - alpha], axis=0)
                    assert np.array_equal(lo.array, want_lo)
                    assert np.array_equal(hi.array, want_hi)

    def test_validation(self):
        d = np.array([[1.0]])
        with pytest.raises(ValueError):
            credible_intervals(d, level=0.9)
        with pytest.raises(ValueError):
            credible_intervals(np.concatenate([d, d]), level=1.0)
        with pytest.raises(ValueError):
            credible_intervals(np.ones(5), level=0.9)
        with pytest.raises(ValueError, match="finite"):
            credible_intervals(np.array([[1.0], [np.inf], [2.0]]), level=0.9)

    def test_input_is_not_sorted_in_place(self):
        # one cell: the transposed block is the caller's own memory
        for draws in (np.array([[3.0], [1.0], [2.0]]), np.array([3.0, 1.0, 2.0, 0.5])[:, None, None]):
            kept = draws.copy()
            credible_intervals(draws, level=0.5)
            assert np.array_equal(draws, kept)


def _composition(x_new, draws, seed, level):
    return credible_intervals(posterior_predictive(x_new, draws, seed), level)


def _assert_same_intervals(got, want):
    for g, w in zip(got, want, strict=True):
        assert isinstance(g, DenseTensor) and g.dims == w.dims
        assert np.array_equal(g.array, w.array)


class TestPredictiveIntervals:
    """The fused intervals against credible_intervals(posterior_predictive(...))."""

    # (in_dims, out_dims, center): 1-3 predictor modes, 0-2 outcome modes;
    # rank 2 except with a single mode, where extra components are not
    # identified and the conditionals are singular
    CASES = (((4,), (), True), ((4,), (3,), False), ((3, 2), (2, 3), True),
             ((3, 2), (), False), ((2, 2, 2), (3,), True), ((2, 2, 2), (2, 2), False))

    def _draws(self, rng, in_dims, out_dims, center):
        rank = 1 if len(in_dims) + len(out_dims) == 1 else 2
        x, y, _ = _random_instance(rng, 20, in_dims, out_dims, rank)
        cfg = GibbsConfig(rank=rank, n_samples=45, lam=0.5, seed=3, center_data=center)
        return gibbs(x, y, cfg)

    def test_equals_composition(self):
        # 45 draws is a multiple of no batch; 1 and 37 test rows
        rng = np.random.default_rng(64)
        for in_dims, out_dims, center in self.CASES:
            draws = self._draws(rng, in_dims, out_dims, center)
            for n in (1, 37):
                x_new = DenseTensor(rng.standard_normal((n,) + in_dims))
                for level in (0.0, 0.9):
                    got = _predictive_intervals(x_new, draws, np.random.default_rng(9), level)
                    _assert_same_intervals(got, _composition(x_new, draws, 9, level))
                    assert got[0].dims == (n,) + out_dims

    def test_block_size_invariance(self, monkeypatch):
        # a block is one prediction tile, and the tile size sets a row's
        # bits; at each size the threaded noise gives the inline run's bits
        rng = np.random.default_rng(63)
        for in_dims, out_dims, center in self.CASES[2:4]:
            draws = self._draws(rng, in_dims, out_dims, center)
            x_new = DenseTensor(rng.standard_normal((37,) + in_dims))
            for rows in (1, 16, 37):
                monkeypatch.setattr(fitting, "_PREDICTION_ROWS", rows)
                _noise_thread(monkeypatch, False)
                stack = posterior_predictive(x_new, draws, 5)
                ivals = _predictive_intervals(x_new, draws, 5, 0.9)
                _assert_same_intervals(ivals, credible_intervals(stack, 0.9))
                _noise_thread(monkeypatch, True)
                assert np.array_equal(posterior_predictive(x_new, draws, 5), stack)
                _assert_same_intervals(_predictive_intervals(x_new, draws, 5, 0.9), ivals)
            monkeypatch.undo()

    def test_errors_match_composition(self):
        rng = np.random.default_rng(62)
        x, y, draws = _tiny_draws(rng, t=3)
        x_new = DenseTensor(rng.standard_normal((4, 3)))
        one = stacked_draws(draws.coefficients[:1], np.ones(1), draws.mode)
        late_inf = rng.standard_normal((40, 3))
        late_inf[37] = 1.7e308  # its predictions overflow
        late_inf = DenseTensor(late_inf)
        first_inf = DenseTensor(late_inf.array[36:])
        cases = [
            (DenseTensor(rng.standard_normal((4, 5))), draws, 0.9, "do not match coefficients"),
            (x_new, one, 0.9, "at least two draws"),
            (x_new, draws, 1.0, "level must be in [0, 1)"),
            (x_new, draws, -0.1, "level must be in [0, 1)"),
            (first_inf, draws, 0.9, "predictive draws must be finite"),
        ]
        for xn, d, level, message in cases:
            with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
                _composition(xn, d, 0, level)
            with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
                _predictive_intervals(xn, d, 0, level)
            assert str(got.value) == str(want.value)
            assert message in str(got.value)
        # two faults: the composition reports the non-finite draws first, the
        # fused routine its check of the draw count and level, made before any prediction
        two_faults = [
            (first_inf, draws, 1.0, "level must be in [0, 1)"),
            (first_inf, one, 0.9, "need at least two draws for an interval"),
            # a non-finite test row in the third block of rows, with a bad level
            (late_inf, draws, -0.1, "level must be in [0, 1)"),
        ]
        for xn, d, level, message in two_faults:
            with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
                _composition(xn, d, 0, level)
            assert str(want.value) == "predictive draws must be finite"
            with pytest.raises(ValueError) as got:
                _predictive_intervals(xn, d, 0, level)
            assert str(got.value) == message

    def test_checks_come_before_any_prediction(self, monkeypatch):
        rng = np.random.default_rng(65)
        _, _, draws = _tiny_draws(rng, t=3)
        one = stacked_draws(draws.coefficients[:1], np.ones(1), draws.mode)
        x_new = DenseTensor(rng.standard_normal((40, 3)))

        def unreachable(*args):
            raise AssertionError("a prediction was built")

        monkeypatch.setattr(posterior, "_Predictions", unreachable)
        for d, level, message in ((one, 0.9, "need at least two draws for an interval"),
                                  (draws, 1.0, "level must be in [0, 1)"),
                                  (draws, -0.1, "level must be in [0, 1)")):
            with pytest.raises(ValueError) as info:
                _predictive_intervals(x_new, d, 0, level)
            assert str(info.value) == message


def _noise_thread(monkeypatch, on):
    """Draw predictive noise on a helper thread (on) or inline, as with two usable CPUs or one."""
    monkeypatch.setattr(posterior, "_usable_cpus", lambda: 2 if on else 1)


class _BreakingRng:
    """A generator whose standard_normal raises after `fills` good calls."""

    def __init__(self, fills):
        self.rng, self.fills = np.random.default_rng(0), fills

    def standard_normal(self, out):
        if self.fills == 0:
            raise FloatingPointError("noise stream broke")
        self.fills -= 1
        return self.rng.standard_normal(out=out)


class TestNoiseThread:
    """Predictive noise drawn on a helper thread against the same noise drawn inline."""

    @pytest.fixture(autouse=True)
    def _deadline(self):
        # a helper that is never joined hangs the caller: fail loudly instead
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def _draws(self, rng):
        x, y, _ = _random_instance(rng, 20, (3, 2), (2, 3), 2)
        return gibbs(x, y, GibbsConfig(rank=2, n_samples=45, lam=0.5, seed=3))

    def test_threaded_and_inline_give_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(71)
        draws = self._draws(rng)
        for n in (1, 16, 37):
            x_new = DenseTensor(rng.standard_normal((n, 3, 2)))
            got = {}
            for threaded in (False, True):
                _noise_thread(monkeypatch, threaded)
                gen = np.random.default_rng(8)
                stack = posterior_predictive(x_new, draws, gen)
                got[threaded] = (stack, gen.standard_normal(4),
                                 _predictive_intervals(x_new, draws, 8, 0.9))
            (s0, next0, i0), (s1, next1, i1) = got[False], got[True]
            assert np.array_equal(s0, s1)
            # the caller's generator is left where an inline run leaves it
            assert np.array_equal(next0, next1)
            _assert_same_intervals(i1, i0)

    def test_concurrent_callers_with_frequent_switches(self, monkeypatch):
        # more callers than CPUs, each with its own helper, handing over a
        # one-row block at a time
        rng = np.random.default_rng(75)
        draws = self._draws(rng)
        x_new = DenseTensor(rng.standard_normal((37, 3, 2)))
        monkeypatch.setattr(fitting, "_PREDICTION_ROWS", 1)
        _noise_thread(monkeypatch, False)
        want = [posterior_predictive(x_new, draws, seed) for seed in range(4)]
        _noise_thread(monkeypatch, True)
        got = [None] * 4

        def call(k):
            got[k] = posterior_predictive(x_new, draws, k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_helper_runs_beside_the_caller_only_when_threaded(self, monkeypatch):
        rng = np.random.default_rng(72)
        draws = self._draws(rng)
        x_new = DenseTensor(rng.standard_normal((37, 3, 2)))
        base = threading.active_count()
        for threaded in (False, True):
            _noise_thread(monkeypatch, threaded)
            with closing(posterior._predictive_blocks(x_new, draws, 0)) as blocks:
                next(blocks)
                # three blocks: the helper is filling the second or waiting to fill the third
                assert threading.active_count() == base + threaded
            assert threading.active_count() == base

    def test_no_thread_outlives_a_call(self, monkeypatch):
        rng = np.random.default_rng(73)
        _noise_thread(monkeypatch, True)
        x, y, draws = _tiny_draws(rng, t=3)
        one = stacked_draws(draws.coefficients[:1], np.ones(1), draws.mode)
        # its predictions overflow in the third of five blocks, so the
        # helper is waiting to fill the fifth when the error comes
        late_inf = rng.standard_normal((80, 3))
        late_inf[37] = 1.7e308
        late_inf = DenseTensor(late_inf)
        x_new = DenseTensor(rng.standard_normal((40, 3)))
        base = threading.active_count()
        posterior_predictive(x_new, draws, 0)
        _predictive_intervals(x_new, draws, 0, 0.9)
        assert threading.active_count() == base
        with pytest.raises(ValueError, match="at least two draws"):
            _predictive_intervals(x_new, one, 0, 0.9)
        assert threading.active_count() == base
        for call in (posterior_predictive, lambda *a: _predictive_intervals(*a, 0.9)):
            with (np.errstate(over="ignore"),
                  pytest.raises(ValueError, match="must be finite") as info):
                call(late_inf, draws, 0)
            # joined on the way out, not when the traceback's frames are freed
            assert info.tb is not None and threading.active_count() == base
        blocks = posterior._predictive_blocks(x_new, draws, 0)
        next(blocks)
        assert threading.active_count() == base + 1
        blocks.close()
        assert threading.active_count() == base

        # an error in the caller, while it holds the first block
        def failing_sort(block, level):
            raise RuntimeError("sort failed")

        monkeypatch.setattr(posterior, "_sorted_ends", failing_sort)
        with pytest.raises(RuntimeError, match="^sort failed$") as info:
            _predictive_intervals(x_new, draws, 0, 0.9)
        assert info.tb is not None and threading.active_count() == base

    def test_helper_errors_reach_the_caller(self, monkeypatch):
        rng = np.random.default_rng(74)
        _noise_thread(monkeypatch, True)
        x, y, draws = _tiny_draws(rng, t=3)
        x_new = DenseTensor(rng.standard_normal((40, 3)))
        base = threading.active_count()
        # in the first block and in the second
        for fills in (0, 1):
            for call in (posterior_predictive, lambda *a: _predictive_intervals(*a, 0.9)):
                with pytest.raises(FloatingPointError, match="^noise stream broke$") as info:
                    call(x_new, draws, _BreakingRng(fills))
                assert info.tb is not None and threading.active_count() == base


class TestDic:
    def test_degenerate_chain(self):
        rng = np.random.default_rng(30)
        x = DenseTensor(rng.standard_normal((8, 3)))
        y = DenseTensor(rng.standard_normal((8, 2)))
        mode = fit(x, y, FitConfig(rank=1, lam=0.5, seed=0, center_data=False))
        b = mode.coefficients
        s2 = 1.3
        draws = stacked_draws([b, b, b], np.full(3, s2), mode)
        rss = float(np.sum((y.array - x.array @ b.matricize().reshape(3, 2)) ** 2))
        dev = 16 * np.log(2 * np.pi * s2) + rss / s2
        assert dic(x, y, draws) == pytest.approx(dev, rel=1e-10)

    def test_noise_dims_do_not_reduce_expected_dic(self):
        base_total, aug_total = 0.0, 0.0
        for rep in range(8):
            rng = np.random.default_rng(100 + rep)
            x = DenseTensor(rng.standard_normal((40, 3)))
            beta = rng.standard_normal((3, 2))
            y = DenseTensor(x.array @ beta + 0.5 * rng.standard_normal((40, 2)))
            x_aug = DenseTensor(
                np.concatenate([x.array, rng.standard_normal((40, 2))], axis=1)
            )
            cfg = GibbsConfig(rank=1, n_samples=250, lam=0.5, seed=rep)
            base_total += dic(x, y, gibbs(x, y, cfg))
            aug_total += dic(x_aug, y, gibbs(x_aug, y, cfg))
        assert aug_total >= base_total

    def test_minimizer_finds_true_rank_majority(self):
        hits = 0
        for rep in range(10):
            rng = np.random.default_rng(200 + rep)
            x = DenseTensor(rng.standard_normal((120, 6, 8)))
            b0 = CpCoefficients(
                [rng.standard_normal((6, 2)), rng.standard_normal((8, 2))],
                [rng.standard_normal((3, 2)), rng.standard_normal((4, 2))],
            )
            clean = contract(x, b0.materialize(), 2).array
            scale = np.sqrt(np.sum(clean**2))
            noise = rng.standard_normal(clean.shape)
            noise *= scale / (5.0 * np.sqrt(np.sum(noise**2)))
            y = DenseTensor(clean + noise)
            best, best_rank = np.inf, None
            for rank in (1, 2, 3):
                for lam in (0.5, 5.0):
                    cfg = GibbsConfig(rank=rank, n_samples=250, lam=lam, seed=rep)
                    val = dic(x, y, gibbs(x, y, cfg))
                    if val < best:
                        best, best_rank = val, rank
            hits += best_rank == 2
        assert hits >= 6

    def test_too_few_draws(self):
        rng = np.random.default_rng(31)
        x, y, draws = _tiny_draws(rng, t=1)
        with pytest.raises(ValueError):
            dic(x, y, draws)

    def test_draws_without_one_positive_sigma2_each_are_refused(self):
        # 4 draws given 6 sigma2 values once reached dic, which returned
        # -252.9 instead of 51.3; a negative value made it NaN
        rng = np.random.default_rng(32)
        x, y, draws = _tiny_draws(rng, t=4, sigma2=1.0)
        pred, out = draws.predictor_factors, draws.outcome_factors
        cases = [(np.ones(6), "6 sigma2 values for 4 draws"),
                 (np.ones(3), "3 sigma2 values for 4 draws"),
                 (np.ones((4, 1)), "4 sigma2 values for 4 draws"),
                 (np.array([1.0, -1.0, 1.0, 1.0]), "sigma2 values must be finite and positive"),
                 (np.array([1.0, 0.0, 1.0, 1.0]), "sigma2 values must be finite and positive"),
                 (np.array([1.0, np.nan, 1.0, 1.0]), "sigma2 values must be finite and positive"),
                 (np.array([1.0, np.inf, 1.0, 1.0]), "sigma2 values must be finite and positive")]
        for sigma2s, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                PosteriorDraws(pred, out, sigma2s, draws.mode)
        assert np.isfinite(dic(x, y, draws))

    def test_non_finite_factors_are_refused(self):
        rng = np.random.default_rng(33)
        x, y, draws = _tiny_draws(rng, t=3)
        for bad in (np.nan, np.inf, -np.inf):
            out = np.array(draws.outcome_factors[0])
            out[2, 1, 0] = bad
            with pytest.raises(ValueError, match="^factor matrices must be finite$"):
                PosteriorDraws(draws.predictor_factors, [out], draws.sigma2s, draws.mode)
