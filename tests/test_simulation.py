"""Simulation harness tests.

The generator is pinned by its exact signal-to-noise identity, the
correlated fields by their closed-form covariance and a Monte-Carlo
check, and the study driver by determinism, dataset sharing across
procedures, and the factorial counts of the shipped design.
"""

import csv
import inspect
import json
import os
import re
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mwreg import (
    DenseTensor,
    FitConfig,
    GibbsConfig,
    GridCell,
    SimSpec,
    contract,
    correlated_field,
    expand_grid,
    fit,
    rpe,
    run_cell,
    run_grid,
    simulate,
    write_results_csv,
)
from mwreg.simulation import _DATA, _FIT, _grid_chol, _field_slices, _substream_int, _test_set


class TestSimSpec:
    def test_validation(self):
        ok = dict(n=10, in_dims=(3, 2), out_dims=(2,), rank=1)
        SimSpec(**ok)
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "n": 0})
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "in_dims": ()})
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "rank": -1})
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "snr": 0.0})
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "correlation": "both"})
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "correlation": "corr_e"})  # needs 2 outcome modes
        with pytest.raises(ValueError):
            SimSpec(**{**ok, "rho": 1.0})
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimSpec(**{**ok, "seed": -2})
        SimSpec(**{**ok, "correlation": "corr_x"})

    @pytest.mark.parametrize("field, value", [
        ("n", "30"), ("n", 30.0), ("n", True), ("rank", "1"), ("seed", 1.5),
        ("snr", "1"), ("rho", [0.6]), ("in_dims", 3), ("in_dims", "32"),
        ("in_dims", (3.0, 2)), ("out_dims", [2, "x"]),
    ])
    def test_a_wrongly_typed_field_is_named(self, field, value):
        ok = dict(n=10, in_dims=(3, 2), out_dims=(2,), rank=1)
        with pytest.raises(TypeError, match=f"^{field} must be"):
            SimSpec(**{**ok, field: value})

    def test_numpy_scalars_are_accepted(self):
        spec = SimSpec(n=np.int64(10), in_dims=np.array([3, 2]).tolist(), out_dims=(np.int32(2),),
                       rank=np.int64(1), snr=np.float64(2.0), seed=np.uint64(3))
        assert spec.in_dims == (3, 2) and spec.out_dims == (2,)

    def test_scalar_response_allowed(self):
        SimSpec(n=5, in_dims=(3,), out_dims=(), rank=1)


class TestSimulate:
    def test_snr_identity_exact(self):
        for seed, snr, corr in (
            (0, 1.0, "none"),
            (1, 25.0, "none"),
            (2, 5.0, "corr_x"),
            (3, 0.3, "corr_e"),
        ):
            spec = SimSpec(
                n=20, in_dims=(4, 3), out_dims=(3, 2), rank=2,
                snr=snr, seed=seed, correlation=corr,
            )
            x, y, b = simulate(spec)
            signal = contract(x, b.materialize(), 2).array
            noise = y.array - signal
            ratio = np.sum(signal**2) / np.sum(noise**2)
            assert ratio == pytest.approx(snr, rel=1e-10)

    def test_rank_zero_response_is_pure_error(self):
        # snr is ignored without signal, so the response must not change
        a = simulate(SimSpec(n=8, in_dims=(3,), out_dims=(2,), rank=0, snr=1.0, seed=4))
        b = simulate(SimSpec(n=8, in_dims=(3,), out_dims=(2,), rank=0, snr=25.0, seed=4))
        assert a[2] is None
        assert np.array_equal(a[0].array, b[0].array)
        assert np.array_equal(a[1].array, b[1].array)

    def test_seed_determinism(self):
        spec = SimSpec(n=10, in_dims=(3, 2), out_dims=(2,), rank=2, seed=5)
        x1, y1, b1 = simulate(spec)
        x2, y2, b2 = simulate(spec)
        assert np.array_equal(x1.array, x2.array)
        assert np.array_equal(y1.array, y2.array)
        for f1, f2 in zip(b1.factors, b2.factors):
            assert np.array_equal(f1, f2)
        x3, _, _ = simulate(SimSpec(n=10, in_dims=(3, 2), out_dims=(2,), rank=2, seed=6))
        assert not np.array_equal(x1.array, x3.array)

    def test_scalar_response_shape(self):
        x, y, b = simulate(SimSpec(n=12, in_dims=(4,), out_dims=(), rank=1, seed=7))
        assert y.dims == (12,)
        assert b.outcome_factors == ()


class TestCorrelatedField:
    def test_model_correlation_closed_form(self):
        low = _grid_chol((3, 4), 0.6)
        cov = low @ low.T
        assert np.allclose(np.diag(cov), 1.0, atol=1e-12)
        # cells are enumerated first-index-fastest on the 3x4 grid
        assert cov[0, 1] == pytest.approx(0.6, abs=1e-12)      # (0,0)-(1,0)
        assert cov[0, 3] == pytest.approx(0.6, abs=1e-12)      # (0,0)-(0,1)
        assert cov[0, 4] == pytest.approx(0.6 ** np.sqrt(2), abs=1e-12)
        assert cov[0, 2] == pytest.approx(0.36, abs=1e-12)     # distance 2

    def test_factor_equals_scipy_cholesky(self):
        for dims in ((1, 1), (2, 3), (3, 4), (5, 10), (12, 7)):
            for rho in (1e-12, 0.2, 0.6, 0.9):
                ci = np.tile(np.arange(dims[0]), dims[1])
                cj = np.repeat(np.arange(dims[1]), dims[0])
                cov = rho ** np.hypot(ci[:, None] - ci[None, :], cj[:, None] - cj[None, :])
                assert np.array_equal(_grid_chol(dims, rho), scipy.linalg.cholesky(cov, lower=True))

    def test_empirical_adjacent_correlation(self):
        fields = _field_slices(10_000, (3, 4), 0.6, np.random.default_rng(8))
        a = fields[:, 0, 0]
        b = fields[:, 1, 0]
        got = np.corrcoef(a, b)[0, 1]
        assert abs(got - 0.6) < 0.02

    def test_small_rho_limit_is_identity(self):
        low = _grid_chol((2, 3), 1e-12)
        assert np.allclose(low @ low.T, np.eye(6), atol=1e-11)

    def test_field_shape_and_determinism(self):
        f1 = correlated_field((3, 4), 0.6, np.random.default_rng(9))
        f2 = correlated_field((3, 4), 0.6, np.random.default_rng(9))
        assert f1.dims == (3, 4)
        assert np.array_equal(f1.array, f2.array)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            correlated_field((3,), 0.6, rng)
        with pytest.raises(ValueError):
            correlated_field((3, 4), 0.0, rng)
        with pytest.raises(ValueError):
            correlated_field((3, 4), 1.5, rng)


class TestRpe:
    def test_trivial_values(self):
        rng = np.random.default_rng(10)
        y = DenseTensor(rng.standard_normal((6, 2)))
        zero = DenseTensor(np.zeros((6, 2)))
        assert rpe(y, zero) == pytest.approx(1.0, rel=1e-12)
        assert rpe(y, y) == 0.0
        assert rpe(y, DenseTensor(2.0 * y.array)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_rejected(self):
        z = DenseTensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            rpe(z, z)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rpe(DenseTensor(np.ones((3, 2))), DenseTensor(np.ones((2, 3))))

    def test_true_coefficients_hit_noise_floor(self):
        # on a fresh test set the truth's RPE is the noise share of the
        # response power, 1/(1+snr)
        for snr, seed in ((1.0, 11), (25.0, 12)):
            spec = SimSpec(n=30, in_dims=(4, 3), out_dims=(3, 2), rank=2,
                           snr=snr, seed=seed)
            _, _, true_b = simulate(spec)
            x_new, y_new = _test_set(spec, true_b, 500, np.random.default_rng(seed + 50))
            y_hat = contract(x_new, true_b.materialize(), 2)
            assert abs(rpe(y_new, y_hat) - 1.0 / (1.0 + snr)) < 0.05


def _small_spec(**kw):
    base = dict(n=30, in_dims=(4, 3), out_dims=(2, 2), rank=1, snr=1.0, seed=13)
    base.update(kw)
    return SimSpec(**base)


class TestRunCell:
    def test_metrics_and_bookkeeping(self):
        cell = run_cell(_small_spec(), 1, 0.5, replicates=3, test_n=100,
                        gibbs_samples=60)
        assert cell.replicates == 3
        assert len(cell.rpe_values) == 3
        assert cell.rpe >= 0.0 and np.isfinite(cell.rpe_se)
        assert 0.0 <= cell.coverage_rate <= 1.0
        assert cell.mean_interval_length > 0.0

    def test_determinism(self):
        a = run_cell(_small_spec(), 1, 0.5, replicates=2, test_n=60, gibbs_samples=30)
        b = run_cell(_small_spec(), 1, 0.5, replicates=2, test_n=60, gibbs_samples=30)
        assert a == b

    def test_no_gibbs_gives_nan_interval_metrics(self):
        cell = run_cell(_small_spec(), 1, 0.5, replicates=2, test_n=60,
                        gibbs_samples=0)
        assert np.isfinite(cell.rpe)
        assert np.isnan(cell.coverage_rate) and np.isnan(cell.mean_interval_length)
        assert cell.coverage_values == ()

    def test_single_replicate_has_nan_se(self):
        cell = run_cell(_small_spec(), 1, 0.5, replicates=1, test_n=60,
                        gibbs_samples=0)
        assert np.isfinite(cell.rpe) and np.isnan(cell.rpe_se)

    def test_heavy_shrinkage_on_no_signal_sits_near_one(self):
        spec = _small_spec(rank=0, n=40)
        cell = run_cell(spec, 2, 50.0, replicates=4, test_n=200, gibbs_samples=0)
        assert 0.98 <= cell.rpe <= 1.15

    def test_procedures_share_datasets(self):
        # the data substream depends only on (spec.seed, replicate); with a
        # crushing penalty both procedures predict the shared training mean,
        # so their per-replicate RPEs coincide exactly when (and only when)
        # the train and test sets are the same
        spec = _small_spec(rank=1, n=25)
        a = run_cell(spec, 1, 1e12, replicates=2, test_n=80, gibbs_samples=0)
        b = run_cell(spec, 2, 1e12, replicates=2, test_n=80, gibbs_samples=0)
        assert a.rpe_values == pytest.approx(b.rpe_values, rel=1e-6)

    def test_records_each_replicate_fit_convergence(self):
        spec = _small_spec(rank=2)
        cell = run_cell(spec, 3, 0.0, replicates=2, test_n=40, gibbs_samples=0)
        for rep in range(2):
            x, y, _ = simulate(replace(spec, seed=_substream_int(spec.seed, rep, _DATA)))
            res = fit(x, y, FitConfig(rank=3, lam=0.0, seed=_substream_int(spec.seed, rep, _FIT)))
            assert cell.iterations_values[rep] == res.iterations
            assert cell.converged_values[rep] is res.converged

    def test_replicates_validation(self):
        with pytest.raises(ValueError):
            run_cell(_small_spec(), 1, 0.5, replicates=0)

    @pytest.mark.parametrize("option, value, rule", [
        ("test_n", 0, "positive"), ("test_n", -1, "positive"),
        ("gibbs_samples", -5, "non-negative"), ("gibbs_samples", -1, "non-negative"),
    ])
    def test_a_bad_count_is_refused_by_name(self, option, value, rule):
        with pytest.raises(ValueError, match=f"^{option} must be {rule}$"):
            run_cell(_small_spec(), 1, 0.5, replicates=1, **{option: value})

    @pytest.mark.parametrize("setting, value, message", [
        ("fit_rank", 0, "rank must be at least 1"),
        ("lam", -1.0, "lam must be finite and non-negative"),
        ("lam", float("nan"), "lam must be finite and non-negative"),
        ("replicates", 0, "replicates must be positive"),
        ("test_n", 0, "test_n must be positive"),
        ("gibbs_samples", -1, "gibbs_samples must be non-negative"),
        ("gibbs_samples", 1, "gibbs_samples must be 0 or at least 2: an interval needs two draws"),
    ])
    def test_a_bad_setting_is_refused_before_any_data(self, monkeypatch, setting, value, message):
        def no_data(spec):
            raise AssertionError("a dataset was simulated")

        monkeypatch.setattr("mwreg.simulation.simulate", no_data)
        settings = {**dict(spec=_small_spec(), fit_rank=1, lam=0.5, replicates=1), setting: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridCell(**settings)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_cell(**settings)

    def test_a_fractional_replicate_count_is_refused_before_any_data(self, monkeypatch):
        def no_data(spec):
            raise AssertionError("a dataset was simulated")

        monkeypatch.setattr("mwreg.simulation.simulate", no_data)
        with pytest.raises(TypeError, match=r"^replicates must be an integer, got 1\.5$"):
            run_cell(_small_spec(), 1, 0.5, replicates=1.5)

    def test_defaults_come_from_the_classes(self):
        params = inspect.signature(run_cell).parameters
        assert params["test_n"].default == GridCell.test_n
        assert params["gibbs_samples"].default == GridCell.gibbs_samples
        assert params["level"].default == GibbsConfig.credible_level


@cache
def _full_factorial_cells():
    grid = Path(__file__).resolve().parent.parent / "grids" / "full_factorial.json"
    return expand_grid(json.loads(grid.read_text()))


# replicate 0's fit in cells of grids/full_factorial.json: (cell index,
# sweeps, converged), recorded when T = X1 KR(pred) was built from the
# Khatri-Rao product of every predictor factor.  Taking T from the last
# predictor mode's Z_l moves the fits' bits at round-off, but must not move
# a sweep count or a convergence verdict.  Both n, fit ranks 1 to 5, and
# four fits stopped by max_iters (a census of all 600 cells kept all 600)
_STUDY_SWEEPS = [
    (225, 87, True), (106, 284, True), (287, 420, True), (18, 156, True), (199, 500, False),
    (15, 500, False), (527, 16, True), (408, 17, True), (589, 14, True), (315, 430, True),
    (496, 500, False), (339, 500, False),
]


@pytest.mark.parametrize("index,sweeps,converged", _STUDY_SWEEPS)
def test_study_fits_keep_their_sweep_counts(index, sweeps, converged):
    cell = _full_factorial_cells()[index]
    spec = cell.spec
    x, y, _ = simulate(replace(spec, seed=_substream_int(spec.seed, 0, _DATA)))
    res = fit(x, y, FitConfig(rank=cell.fit_rank, lam=cell.lam,
                              seed=_substream_int(spec.seed, 0, _FIT)))
    assert (res.iterations, res.converged) == (sweeps, converged)


class TestRunGrid:
    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_error_capture_keeps_other_cells(self):
        bad_spec = SimSpec(n=3, in_dims=(8,), out_dims=(2,), rank=1, seed=14)
        cells = [
            GridCell(_small_spec(), 1, 0.5, replicates=1, test_n=40, gibbs_samples=0),
            GridCell(bad_spec, 3, 0.0, replicates=1, test_n=40, gibbs_samples=0),
        ]
        rows = run_grid(cells)
        assert rows[0][1] is not None and rows[0][2] is None
        assert rows[1][1] is None and "Singular" in rows[1][2]

    def test_singular_chain_is_an_error_row(self):
        # flat prior, fit rank 3 over true rank 1: the fit converges and the
        # chain then meets a singular conditional system
        spec = SimSpec(n=12, in_dims=(3, 2), out_dims=(2,), rank=1, snr=1.0, seed=0)
        ((cell, out, err),) = run_grid([GridCell(spec, 3, 0.0, replicates=1, test_n=10,
                                                 gibbs_samples=200)])
        assert out is None
        assert err.startswith("SingularSystemError: mode subproblem is singular at lambda=0")

    def test_parallel_matches_serial(self):
        # nonzero gibbs_samples keep all metrics finite so the dataclass
        # comparison is exact
        cells = [
            GridCell(_small_spec(seed=s), 1, 0.5, replicates=2, test_n=50,
                     gibbs_samples=15)
            for s in (20, 21, 22)
        ]
        serial = run_grid(cells, max_workers=1)
        parallel = run_grid(cells, max_workers=2)
        assert serial == parallel

    def test_repeat_runs_identical(self):
        cells = [GridCell(_small_spec(), 2, 1.0, replicates=2, test_n=50,
                          gibbs_samples=15)]
        assert run_grid(cells) == run_grid(cells)


class TestExpandGrid:
    FULL = {
        "n": [30, 120],
        "snr": [1, 25],
        "true_ranks": [0, 1, 2, 3, 4, 5],
        "in_dims": [15, 20],
        "out_dims": [5, 10],
        "fit_ranks": [1, 2, 3, 4, 5],
        "lambdas": [0.0, 0.5, 1.0, 5.0, 50.0],
        "replicates": 10,
        "seed": 404,
    }

    def test_factorial_counts(self):
        cells = expand_grid(self.FULL)
        # 24 scenarios crossed with 25 estimation procedures
        assert len(cells) == 600
        scenario_seeds = {c.spec.seed for c in cells}
        assert len(scenario_seeds) == 24
        # 10 replicates of each scenario: 240 distinct datasets
        datasets = {(c.spec.seed, rep) for c in cells for rep in range(c.replicates)}
        assert len(datasets) == 240
        procedures = {(c.fit_rank, c.lam) for c in cells}
        assert len(procedures) == 25

    def test_procedures_share_scenario_seed(self):
        cells = expand_grid(self.FULL)
        by_scenario = {}
        for c in cells:
            key = (c.spec.n, c.spec.snr, c.spec.rank)
            by_scenario.setdefault(key, set()).add(c.spec.seed)
        assert len(by_scenario) == 24
        assert all(len(seeds) == 1 for seeds in by_scenario.values())

    def test_defaults_and_options(self):
        cells = expand_grid(self.FULL)
        assert all(c.test_n == 500 and c.gibbs_samples == 1000 for c in cells)
        small = dict(self.FULL, test_n=50, gibbs_samples=0, correlation="corr_x",
                     rho=0.4)
        cells = expand_grid(small)
        assert all(c.test_n == 50 and c.gibbs_samples == 0 for c in cells)
        assert all(c.spec.correlation == "corr_x" and c.spec.rho == 0.4 for c in cells)

    def test_missing_and_unknown_keys(self):
        with pytest.raises(ValueError, match="missing"):
            expand_grid({"n": [30]})
        with pytest.raises(ValueError, match="unknown"):
            expand_grid(dict(self.FULL, extra=1))

    @pytest.mark.parametrize("key, value, message", [
        ("n", 30, "grid key 'n' must be a list, got 30"),
        ("in_dims", 3, "grid key 'in_dims' holds 3: in_dims must be a list of integers, got 3"),
        ("lambdas", "0.5", "grid key 'lambdas' must be a list, got '0.5'"),
        ("fit_ranks", [1, "two"], "grid key 'fit_ranks' holds 'two': fit_rank must be an integer, got 'two'"),
        ("replicates", [10], "grid key 'replicates' holds [10]: replicates must be an integer, got [10]"),
        ("rho", "high", "grid key 'rho' holds 'high': rho must be a number, got 'high'"),
    ])
    def test_a_wrongly_typed_key_is_named(self, key, value, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            expand_grid(dict(self.FULL, **{key: value}))

    @staticmethod
    def _held(key, value):
        """The refused value: a factor key's last level, or another key's whole value."""
        factors = ("n", "snr", "true_ranks", "fit_ranks", "lambdas")
        return value[-1] if key in factors else value

    @pytest.mark.parametrize("key, value, message", [
        ("n", [30.7], "n must be an integer, got 30.7"),
        ("n", [30.0], "n must be an integer, got 30.0"),
        ("n", ["30"], "n must be an integer, got '30'"),
        ("true_ranks", [True], "rank must be an integer, got True"),
        ("fit_ranks", [1, True], "fit_rank must be an integer, got True"),
        ("in_dims", [15, 20.0], "in_dims must be a list of integers, got [15, 20.0]"),
        ("seed", "30", "seed must be an integer, got '30'"),
        ("replicates", 2.0, "replicates must be an integer, got 2.0"),
        ("test_n", 30.7, "test_n must be an integer, got 30.7"),
        ("gibbs_samples", True, "gibbs_samples must be an integer, got True"),
        ("snr", ["25"], "snr must be a number, got '25'"),
        ("snr", [True], "snr must be a number, got True"),
        ("lambdas", [0.5, "1"], "lam must be a number, got '1'"),
        ("rho", "0.6", "rho must be a number, got '0.6'"),
        ("rho", False, "rho must be a number, got False"),
    ])
    def test_a_value_of_the_wrong_json_type_is_named(self, key, value, message):
        # the config that owns the field refuses the value, and the grid names the key
        named = f"grid key {key!r} holds {self._held(key, value)!r}: {message}"
        with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
            expand_grid(dict(self.FULL, **{key: value}))

    @pytest.mark.parametrize("key, value, message", [
        ("fit_ranks", [0], "rank must be at least 1"),
        ("fit_ranks", [2, -1], "rank must be at least 1"),
        ("lambdas", [-1.0], "lam must be finite and non-negative"),
        ("replicates", 0, "replicates must be positive"),
        ("test_n", 0, "test_n must be positive"),
        ("gibbs_samples", -1, "gibbs_samples must be non-negative"),
        ("gibbs_samples", 1, "gibbs_samples must be 0 or at least 2: an interval needs two draws"),
        ("true_ranks", [0, -1], "rank must be non-negative"),
    ])
    def test_an_out_of_range_procedure_value_is_refused(self, key, value, message):
        named = f"grid key {key!r} holds {self._held(key, value)!r}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            expand_grid(dict(self.FULL, **{key: value}))

    def test_a_float_key_takes_an_integer(self):
        cells = expand_grid(dict(self.FULL, lambdas=[0, 5]))
        assert {c.lam for c in cells} == {0.0, 5.0}
        assert all(type(c.lam) is float and type(c.spec.snr) is float for c in cells)

    def test_left_out_options_take_the_class_defaults(self):
        defaults = GridCell(_small_spec(), 1, 0.5, 1)
        for c in expand_grid(self.FULL):
            assert (c.test_n, c.gibbs_samples) == (defaults.test_n, defaults.gibbs_samples)
            assert (c.spec.correlation, c.spec.rho) == (SimSpec.correlation, SimSpec.rho)

    def test_deterministic_expansion(self):
        a = expand_grid(self.FULL)
        b = expand_grid(self.FULL)
        assert a == b


class TestWriteResultsCsv:
    def test_structure(self, tmp_path):
        spec = _small_spec(rank=0, n=20)
        good = GridCell(spec, 1, 0.5, replicates=2, test_n=40, gibbs_samples=20)
        bad = GridCell(SimSpec(n=3, in_dims=(8,), out_dims=(2,), rank=1, seed=15),
                       3, 0.0, replicates=1, test_n=40, gibbs_samples=0)
        rows = run_grid([good, bad])
        path = os.path.join(tmp_path, "results.csv")
        write_results_csv(rows, path)
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == [
            "n", "in_dims", "out_dims", "rank", "snr", "seed", "correlation",
            "rho", "fit_rank", "lam", "row", "rpe", "coverage", "length", "note",
            "iterations", "converged",
        ]
        # two replicate rows, then mean and se rows, then one error row
        assert [r[10] for r in table[1:]] == ["0", "1", "mean", "se", "error"]
        assert table[1][1] == "4x3" and table[1][2] == "2x2"
        assert float(table[3][11]) == pytest.approx(
            (float(table[1][11]) + float(table[2][11])) / 2.0
        )
        assert "Singular" in table[5][14]
        # fit sweeps and convergence on replicate rows only
        good_out = rows[0][1]
        for k in range(2):
            assert table[1 + k][15:] == [
                str(good_out.iterations_values[k]), str(good_out.converged_values[k])
            ]
            assert int(table[1 + k][15]) >= 1 and table[1 + k][16] in ("True", "False")
        assert [r[15:] for r in table[3:]] == [["", ""]] * 3
