"""Fitting tests.

The efficient mode updates are checked against two independent routes:
the explicit normal equations assembled from the definitional design
matrices, and plain least-squares sweeps on ridge-augmented data.  The
closed-form collapses (ridge regression, OLS) pin the special cases.
"""

import importlib.machinery
from dataclasses import replace
from math import prod

import numpy as np
import pytest
import scipy.linalg

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitConfig,
    GibbsConfig,
    SingularSystemError,
    center,
    conditional_factor_params,
    contract,
    fit,
    gibbs,
    khatri_rao,
    objective,
    predict,
    unfold,
    update_outcome_factor,
    update_predictor_factor,
    vec,
)
import mwreg.fitting
from mwreg.fitting import (
    _init_factors,
    _lambda_schedule,
    _lapack_routines,
    _spd_solve,
    _SweepState,
    _Workspace,
)
from reference import (
    augment_arrays,
    build_design_outcome,
    build_design_predictor,
    fit_augmented_oracle,
    gram_hadamard,
    traced_peak,
)


def _random_instance(rng, n, in_dims, out_dims, rank, noise=0.5):
    x = DenseTensor(rng.standard_normal((n,) + in_dims))
    b = CpCoefficients(
        [rng.standard_normal((d, rank)) for d in in_dims],
        [rng.standard_normal((d, rank)) for d in out_dims],
    )
    clean = contract(x, b.materialize(), len(in_dims))
    y = DenseTensor(clean.array + noise * rng.standard_normal(clean.dims))
    return x, y, b


class TestCenter:
    def test_centered_data_unchanged(self):
        rng = np.random.default_rng(0)
        xa = rng.standard_normal((6, 3))
        xa -= xa.mean(axis=0)
        ya = rng.standard_normal((6, 2))
        ya -= ya.mean(axis=0)
        xc, yc, (xo, yo) = center(DenseTensor(xa), DenseTensor(ya))
        assert np.allclose(xc.array, xa, atol=1e-15)
        assert np.allclose(xo, 0.0, atol=1e-15)
        assert np.allclose(yo, 0.0, atol=1e-15)

    def test_constant_cell_becomes_zero(self):
        xa = np.ones((4, 2)) * 7.0
        ya = np.ones((4, 3))
        xc, yc, (xo, yo) = center(DenseTensor(xa), DenseTensor(ya))
        assert not xc.array.any()
        assert np.allclose(xo, 7.0)

    def test_output_means_are_zero(self):
        rng = np.random.default_rng(1)
        x = DenseTensor(rng.standard_normal((5, 2, 3)))
        y = DenseTensor(rng.standard_normal((5, 4)))
        xc, yc, _ = center(x, y)
        assert np.abs(xc.array.mean(axis=0)).max() < 1e-12
        assert np.abs(yc.array.mean(axis=0)).max() < 1e-12

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError):
            center(DenseTensor(np.ones((1, 2))), DenseTensor(np.ones((1, 2))))


class TestObjective:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(2)
        x, y, b = _random_instance(rng, 6, (3,), (2,), 2)
        zero = CpCoefficients([np.zeros((3, 2))], [np.zeros((2, 2))])
        assert objective(x, y, zero, 0.0) == pytest.approx(
            float(np.sum(y.array**2)), rel=1e-12
        )

    def test_perfect_fit(self):
        rng = np.random.default_rng(3)
        x, y, b = _random_instance(rng, 6, (3, 2), (2,), 2, noise=0.0)
        assert objective(x, y, b, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_matches_matricized_evaluation(self):
        rng = np.random.default_rng(4)
        x, y, b = _random_instance(rng, 7, (3, 2), (2, 2), 2)
        lam = 0.7
        x1 = unfold(x, 0)
        y1 = unfold(y, 0)
        bmat = b.matricize()
        expected = float(np.sum((y1 - x1 @ bmat) ** 2)) + lam * float(
            np.sum(b.materialize().array ** 2)
        )
        assert objective(x, y, b, lam) == pytest.approx(expected, rel=1e-12)

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(5)
        x, y, b = _random_instance(rng, 5, (3,), (2,), 1)
        with pytest.raises(ValueError):
            objective(x, y, b, -1.0)


class TestBuildDesignPredictor:
    def test_scalar_case_gives_x1(self):
        rng = np.random.default_rng(6)
        x = DenseTensor(rng.standard_normal((5, 4)))
        b = CpCoefficients([np.ones((4, 1))], [])
        c = build_design_predictor(x, b, 0)
        assert np.allclose(c, unfold(x, 0), atol=0)

    def test_linear_map_reproduces_prediction(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            in_dims = tuple(rng.integers(2, 4, size=rng.integers(1, 3)))
            out_dims = tuple(rng.integers(2, 4, size=rng.integers(0, 3)))
            rank = int(rng.integers(1, 4))
            x, y, b = _random_instance(rng, 5, in_dims, out_dims, rank)
            pred_full = vec(contract(x, b.materialize(), len(in_dims)))
            for mode in range(len(in_dims)):
                c = build_design_predictor(x, b, mode)
                u_vec = b.predictor_factors[mode].ravel(order="F")
                assert np.allclose(c @ u_vec, pred_full, atol=1e-10)

    def test_zero_other_factors_give_zero_matrix(self):
        rng = np.random.default_rng(8)
        x = DenseTensor(rng.standard_normal((4, 2, 3)))
        b = CpCoefficients(
            [rng.standard_normal((2, 2)), np.zeros((3, 2))], [np.zeros((2, 2))]
        )
        assert not build_design_predictor(x, b, 0).any()

    def test_invalid_mode(self):
        rng = np.random.default_rng(9)
        x, y, b = _random_instance(rng, 4, (3,), (2,), 1)
        with pytest.raises(ValueError):
            build_design_predictor(x, b, 1)


class TestBuildDesignOutcome:
    def test_single_outcome_rank1_column(self):
        rng = np.random.default_rng(10)
        x, y, b = _random_instance(rng, 5, (3, 2), (4,), 1)
        d = build_design_outcome(x, b)
        rank1 = CpCoefficients(list(b.predictor_factors), []).materialize()
        expected = vec(contract(x, rank1, 2))
        assert d.shape == (5, 1)
        assert np.allclose(d[:, 0], expected, atol=1e-12)

    def test_reproduces_unfolded_prediction(self):
        rng = np.random.default_rng(11)
        x, y, b = _random_instance(rng, 4, (3,), (2, 3), 2)
        d = build_design_outcome(x, b)
        pred = contract(x, b.materialize(), 1)
        y_m = unfold(pred, pred.order - 1)
        assert np.allclose(d @ b.outcome_factors[-1].T, y_m.T, atol=1e-10)

    def test_zero_x_gives_zero(self):
        b = CpCoefficients([np.ones((3, 1))], [np.ones((2, 1))])
        x = DenseTensor.from_values((4, 3), np.zeros(12))
        # zero tensors are legal at construction from explicit zeros
        assert not build_design_outcome(x, b).any()

    def test_scalar_response_rejected(self):
        rng = np.random.default_rng(12)
        x = DenseTensor(rng.standard_normal((4, 3)))
        b = CpCoefficients([np.ones((3, 1))], [])
        with pytest.raises(ValueError):
            build_design_outcome(x, b)


def _explicit_predictor_update(x, y, b, mode, lam):
    c = build_design_predictor(x, b, mode)
    g = gram_hadamard(b, mode)
    pl = b.in_dims[mode]
    s = c.T @ c + lam * np.kron(g, np.eye(pl))
    sol = np.linalg.solve(s, c.T @ vec(y))
    return sol.reshape(pl, b.rank, order="F")


def _explicit_outcome_update(x, y, b, mode, lam):
    # permute the wanted outcome mode last, then apply the last-mode update
    outs = list(b.outcome_factors)
    perm = [f for k, f in enumerate(outs) if k != mode] + [outs[mode]]
    bp = CpCoefficients(list(b.predictor_factors), perm)
    d = build_design_outcome(x, bp)
    g = gram_hadamard(b, len(b.predictor_factors) + mode)
    y_m = unfold(y, 1 + mode)
    sol = np.linalg.solve(d.T @ d + lam * g, d.T @ y_m.T)
    return sol.T


class TestUpdatesAgainstExplicitSystems:
    def test_predictor_updates_match(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            in_dims = tuple(rng.integers(2, 5, size=rng.integers(1, 3)))
            out_dims = tuple(rng.integers(2, 5, size=rng.integers(0, 3)))
            rank = int(rng.integers(1, 4))
            # keep every mode system overdetermined so lambda=0 is well posed
            x, y, b = _random_instance(rng, 40, in_dims, out_dims, rank)
            for lam in (0.0, 0.7):
                for mode in range(len(in_dims)):
                    got = update_predictor_factor(x, y, b, mode, lam)
                    want = _explicit_predictor_update(x, y, b, mode, lam)
                    assert np.allclose(got, want, atol=1e-8 * max(1, np.abs(want).max()))

    def test_outcome_updates_match(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            in_dims = tuple(rng.integers(2, 5, size=rng.integers(1, 3)))
            out_dims = tuple(rng.integers(2, 5, size=rng.integers(1, 3)))
            rank = int(rng.integers(1, 4))
            x, y, b = _random_instance(rng, 8, in_dims, out_dims, rank)
            for lam in (0.0, 0.7):
                for mode in range(len(out_dims)):
                    got = update_outcome_factor(x, y, b, mode, lam)
                    want = _explicit_outcome_update(x, y, b, mode, lam)
                    assert np.allclose(got, want, atol=1e-8 * max(1, np.abs(want).max()))

    def test_updates_match_augmented_data_updates(self):
        # ridge update on (x, y) equals plain least squares on augmented data
        rng = np.random.default_rng(15)
        for _ in range(5):
            x, y, b = _random_instance(rng, 6, (3, 2), (2, 2), 2)
            lam = 1.3
            xa, ya = augment_arrays(x.array, y.array, lam)
            xt, yt = DenseTensor(xa), DenseTensor(ya)
            for mode in range(2):
                want = update_predictor_factor(xt, yt, b, mode, 0.0)
                got = update_predictor_factor(x, y, b, mode, lam)
                assert np.allclose(got, want, atol=1e-8 * max(1, np.abs(want).max()))
            for mode in range(2):
                want = update_outcome_factor(xt, yt, b, mode, 0.0)
                got = update_outcome_factor(x, y, b, mode, lam)
                assert np.allclose(got, want, atol=1e-8 * max(1, np.abs(want).max()))

    def test_augmented_unfolding_bottom_block(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 3, 2))
        y = rng.standard_normal((4, 2))
        lam = 2.25
        xa, ya = augment_arrays(x, y, lam)
        x1 = xa.reshape(10, 6, order="F")
        assert np.allclose(x1[4:], np.sqrt(lam) * np.eye(6), atol=0)
        assert not ya[4:].any()

    def test_update_never_increases_objective(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x, y, b = _random_instance(rng, 7, (3, 2), (2,), 2)
            for lam in (0.0, 0.7):
                base = objective(x, y, b, lam)
                for mode in range(2):
                    new_u = update_predictor_factor(x, y, b, mode, lam)
                    pred = list(b.predictor_factors)
                    pred[mode] = new_u
                    b2 = CpCoefficients(pred, list(b.outcome_factors))
                    assert objective(x, y, b2, lam) <= base + 1e-9

    def test_zero_response_with_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(18)
        x = DenseTensor(rng.standard_normal((6, 3)))
        y = DenseTensor.from_values((6, 2), np.zeros(12))
        b = CpCoefficients([rng.standard_normal((3, 2))], [rng.standard_normal((2, 2))])
        v = update_outcome_factor(x, y, b, 0, 1.0)
        assert np.abs(v).max() < 1e-12


def _per_call_z(ws, pred, l):
    """Z_l = KR(other predictor factors)^T X_(l), (R, P_l, N), built for this call."""
    rank = pred[0].shape[1]
    others = list(pred[:l]) + list(pred[l + 1:])
    kr = khatri_rao(others) if others else np.ones((1, rank))
    return (kr.T @ ws.x_by_mode(l)).reshape(rank, ws.in_dims[l], ws.n)


def _per_call_t(ws, pred):
    """T = X1 KR(pred), (N, R), summed over the last predictor mode of its Z_l."""
    u = pred[-1].T.copy()
    return np.matmul(u[:, None, :], _per_call_z(ws, pred, len(pred) - 1))[:, 0].T


def _kron_predictor_system(ws, pred, out, l, lam):
    """Predictor-mode normal equations assembled with dense Kronecker products."""
    rank = pred[0].shape[1]
    pl = ws.in_dims[l]
    others = list(pred[:l]) + list(pred[l + 1:])
    z = _per_call_z(ws, pred, l)
    wt = z.reshape(rank * pl, ws.n)
    vq = khatri_rao(out) if out else np.ones((1, rank))
    vgram = vq.T @ vq
    s = (wt @ wt.T) * np.kron(vgram, np.ones((pl, pl)))
    if lam:
        g = vgram.copy()
        for f in others:
            g = g * (f.T @ f)
        s = s + lam * np.kron(g, np.eye(pl))
    rhs = np.matmul(z, (vq.T @ ws.y1.T)[:, :, None]).reshape(-1)
    return s, rhs


class TestSystemsBitForBit:
    def test_predictor_system_equals_kron_assembly(self):
        rng = np.random.default_rng(40)
        for in_dims in ((4,), (3, 4), (2, 3, 4)):
            for out_dims in ((), (3,), (2, 3)):
                x, y, b = _random_instance(rng, 15, in_dims, out_dims, 3)
                ws = _Workspace(x.array, y.array)
                pred, out = list(b.predictor_factors), list(b.outcome_factors)
                for lam in (0.0, 0.7):
                    for mode in range(len(in_dims)):
                        s, rhs = _SweepState(ws, pred, out).predictor_system(mode, lam)
                        s_ref, rhs_ref = _kron_predictor_system(ws, pred, out, mode, lam)
                        assert np.array_equal(s, s_ref)
                        assert np.array_equal(rhs, rhs_ref)

    def test_spd_solve_equals_scipy_wrappers(self):
        rng = np.random.default_rng(41)
        x, y, b = _random_instance(rng, 30, (3, 4), (2, 3), 2)
        ws = _Workspace(x.array, y.array)
        s, rhs = _SweepState(ws, b.predictor_factors, b.outcome_factors).predictor_system(1, 0.5)
        for right in (rhs, np.stack([rhs, 2.0 * rhs], axis=1)):
            sol, low = _spd_solve(s, right, 0.5)
            want_low = scipy.linalg.cholesky(s, lower=True, check_finite=False)
            assert np.array_equal(low, want_low)
            assert np.array_equal(sol, scipy.linalg.cho_solve((want_low, True), right))

    @pytest.mark.parametrize("broken", [False, True], ids=["extension missing", "extension broken"])
    def test_lapack_fallback_has_the_same_bits(self, monkeypatch, tmp_path, broken):
        bound = _lapack_routines(("potrf", "potrs", "trtrs"))
        # a file with an extension module's name that is no shared library
        junk = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        junk.write_bytes(b"not a shared library")
        monkeypatch.setattr(mwreg.fitting, "_flapack_path", lambda: str(junk) if broken else None)
        asked = []
        lookup = scipy.linalg.get_lapack_funcs
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                            lambda names, arrays: asked.append(names) or lookup(names, arrays))
        fallback = _lapack_routines(("potrf", "potrs", "trtrs"))
        assert asked == [("potrf", "potrs", "trtrs")]
        assert [f.__name__ for f in fallback] == [f.__name__ for f in bound]
        rng = np.random.default_rng(46)
        for size in (1, 7, 40, 75):
            a = rng.standard_normal((size + 10, size))
            s = a.T @ a + 0.5 * np.eye(size)
            rhs = rng.standard_normal((size, 3))
            (potrf, potrs, trtrs), (potrf_f, potrs_f, trtrs_f) = bound, fallback
            low, info = potrf(s, lower=1, clean=1)
            low_f, info_f = potrf_f(s, lower=1, clean=1)
            assert info == info_f == 0 and np.array_equal(low, low_f)
            assert np.array_equal(potrs(low, rhs, lower=1)[0], potrs_f(low, rhs, lower=1)[0])
            assert np.array_equal(trtrs(low, rhs, lower=1, trans=1)[0],
                                  trtrs_f(low, rhs, lower=1, trans=1)[0])

    def test_spd_solve_singular_messages(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.ones(2)
        with pytest.raises(SingularSystemError, match="singular at lambda=0; increase the penalty"):
            _spd_solve(s, rhs, 0.0)
        with pytest.raises(SingularSystemError, match="numerically singular"):
            _spd_solve(s, rhs, 0.5)

    def test_spd_solve_keeps_its_input_and_cleans_the_upper_triangle(self):
        rng = np.random.default_rng(45)
        x, y, b = _random_instance(rng, 30, (15, 20), (5, 10), 5)
        state = _SweepState(_Workspace(x.array, y.array), b.predictor_factors, b.outcome_factors)
        for mode in range(4):
            s, rhs = (state.predictor_system(mode, 0.5) if mode < 2
                      else state.outcome_system(mode - 2, 0.5))
            s_before, rhs_before = s.copy(), rhs.copy()
            _, low = _spd_solve(s, rhs, 0.5)
            assert np.array_equal(s, s_before)
            assert np.array_equal(rhs, rhs_before)
            assert not np.triu(low, 1).any()

    @pytest.mark.parametrize("s", [
        np.array([[np.nan]]),
        np.array([[2.0, np.nan], [np.nan, 2.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ], ids=["nan", "nan-off-diagonal", "inf-diagonal"])
    def test_spd_solve_rejects_non_finite_systems(self, s):
        for lam in (0.0, 0.5):
            with pytest.raises(SingularSystemError, match="not finite"):
                _spd_solve(s, np.ones(s.shape[0]), lam)


class TestPredictorProductFromLastMode:
    """A sweep takes T = X1 KR(pred) from the last predictor mode's Z_l,
    never from the Khatri-Rao product of every predictor factor."""

    # one to three predictor modes, zero to two outcome modes, and the study's shape
    @pytest.mark.parametrize("in_dims,out_dims", [
        (in_dims, out_dims) for in_dims in ((4,), (3, 4), (2, 3, 2))
        for out_dims in ((), (3,), (2, 3))] + [((15, 20), (5, 10))])
    def test_t_agrees_with_the_direct_product(self, in_dims, out_dims):
        rng = np.random.default_rng(47)
        n = 30
        for rank in (1, 3):
            x, y, b = _random_instance(rng, n, in_dims, out_dims, rank)
            state = _SweepState(_Workspace(x.array, y.array), b.predictor_factors,
                                b.outcome_factors)
            t = state._x_kr().T
            x1 = x.array.reshape(n, -1, order="F")
            kr = khatri_rao(b.predictor_factors)
            # each entry is a sum of prod(in_dims) products of len(in_dims) + 1
            # numbers on both sides; each side is within gamma_k (|X1| |KR|) of
            # the exact value, k = prod(in_dims) + len(in_dims), and gamma_k < k eps
            k = prod(in_dims) + len(in_dims)
            bound = 2 * k * np.finfo(float).eps * (np.abs(x1) @ np.abs(kr))
            assert np.all(np.abs(t - x1 @ kr) <= bound)


def _per_call_kr(factors, rank):
    return khatri_rao(factors) if factors else np.ones((1, rank))


def _per_call_gram_product(factors, rank):
    g = np.ones((rank, rank))
    for f in factors:
        g = g * (f.T @ f)
    return g


def _per_call_outcome_system(ws, pred, out, m, lam):
    """Outcome-mode normal equations with every product built for this call."""
    rank = pred[0].shape[1]
    t = _per_call_t(ws, pred)
    others = list(out[:m]) + list(out[m + 1:])
    wq = _per_call_kr(others, rank)
    a = (t.T @ t) * (wq.T @ wq)
    if lam:
        a = a + lam * _per_call_gram_product(list(pred) + others, rank)
    d = (t[:, None, :] * wq[None, :, :]).reshape(ws.n * wq.shape[0], rank, order="F")
    return a, (ws.y_by_mode(m) @ d).T


def _per_call_update(ws, pred, out, mode, lam, problem_lam):
    """(new factor, Cholesky factor, rhs^T sol) of one mode, nothing shared."""
    rank = pred[0].shape[1]
    if mode < len(pred):
        s, rhs = _kron_predictor_system(ws, pred, out, mode, lam)
        sol, low = _spd_solve(s, rhs, problem_lam)
        return sol.reshape(ws.in_dims[mode], rank, order="F"), low, float(rhs @ sol)
    a, rhs = _per_call_outcome_system(ws, pred, out, mode - len(pred), lam)
    sol, low = _spd_solve(a, rhs, problem_lam)
    return sol.T, low, float(np.vdot(rhs, sol))


def _per_call_objective(ws, pred, out, lam):
    rank = pred[0].shape[1]
    resid = ws.y1 - _per_call_t(ws, pred) @ _per_call_kr(out, rank).T
    rss = float(np.sum(resid * resid))
    if lam:
        return rss + lam * float(np.sum(_per_call_gram_product(list(pred) + list(out), rank)))
    return rss


def _per_call_sweep(ws, pred, out, lam, problem_lam, take):
    """Update every factor in turn from per-call systems; returns the gains."""
    gains = []
    for mode in range(len(pred) + len(out)):
        mean, low, gain = _per_call_update(ws, pred, out, mode, lam, problem_lam)
        new = take(mode, mean, low)
        if mode < len(pred):
            pred[mode] = new
        else:
            out[mode - len(pred)] = new
        gains.append(gain)
    return gains


def _per_call_als(ws, cfg, augment):
    """First start of `fit` (or of the oracle) with nothing shared between calls."""
    pred, out = _init_factors(cfg, ws.in_dims, ws.out_dims, 0)
    schedule = _lambda_schedule(cfg)
    yy = float(np.vdot(ws.y1, ws.y1))
    trace, subtrace, prev = [], [], None
    for it in range(cfg.max_iters):
        annealing = it < len(schedule)
        lam_t = schedule[it] if annealing else cfg.lam
        uws, ulam = ws, lam_t
        if augment:
            ulam = 0.0
            if lam_t:
                uws = _Workspace(*augment_arrays(ws.xarr, ws.yarr, lam_t))
        gains = _per_call_sweep(uws, pred, out, ulam, cfg.lam, lambda mode, mean, low: mean)
        obj = _per_call_objective(ws, pred, out, cfg.lam)
        trace.append(obj)
        if not annealing:
            subtrace += [yy - gain for gain in gains]
            if prev is not None and prev - obj <= cfg.rel_tol * max(1.0, abs(prev)):
                break
            prev = obj
    return pred + out, trace, subtrace


_SWEEP_SHAPES = [(in_dims, out_dims) for in_dims in ((4,), (3, 4), (2, 3, 2))
                 for out_dims in ((), (3,), (2, 3))]
# (rank, lam) of the study's shape, N=30 and 15x20 -> 5x10
_STUDY_CASES = [(1, 0.5), (5, 0.5), (1, 0.0)]


class TestSharedSweepProducts:
    """ALS sweeps share each Khatri-Rao, Gram, Z_l and T product between the
    factor updates; they must carry the bits of products built per call."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("in_dims,out_dims", _SWEEP_SHAPES)
    def test_fit_equals_per_call_sweeps(self, in_dims, out_dims, lam):
        rng = np.random.default_rng(42)
        # a rank-2 CP form of a coefficient vector has no unique factors
        rank = 1 if len(in_dims) + len(out_dims) == 1 else 2
        x, y, _ = _random_instance(rng, 20, in_dims, out_dims, rank)
        cfg = FitConfig(rank=rank, lam=lam, seed=3, max_iters=7, anneal_steps=3,
                        center_data=False)
        res = fit(x, y, cfg)
        factors, trace, subtrace = _per_call_als(_Workspace(x.array, y.array), cfg, False)
        assert np.array_equal(res.objective_trace, trace)
        assert np.array_equal(res.substep_trace, subtrace)
        for got, want in zip(res.coefficients.factors, factors, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rank,lam", _STUDY_CASES)
    def test_study_shape_fit_equals_per_call_sweeps(self, rank, lam):
        rng = np.random.default_rng(46)
        x, y, _ = _random_instance(rng, 30, (15, 20), (5, 10), rank)
        cfg = FitConfig(rank=rank, lam=lam, seed=6, max_iters=5, anneal_steps=2,
                        center_data=False)
        res = fit(x, y, cfg)
        factors, trace, subtrace = _per_call_als(_Workspace(x.array, y.array), cfg, False)
        assert np.array_equal(res.objective_trace, trace)
        assert np.array_equal(res.substep_trace, subtrace)
        for got, want in zip(res.coefficients.factors, factors, strict=True):
            assert np.array_equal(got, want)

    def test_oracle_equals_per_call_sweeps(self):
        rng = np.random.default_rng(43)
        x, y, _ = _random_instance(rng, 12, (3, 2), (2, 2), 2)
        cfg = FitConfig(rank=2, lam=0.7, seed=4, max_iters=6, anneal_steps=2,
                        center_data=False)
        res = fit_augmented_oracle(x, y, cfg)
        factors, trace, subtrace = _per_call_als(_Workspace(x.array, y.array), cfg, True)
        assert np.array_equal(res.objective_trace, trace)
        assert np.array_equal(res.substep_trace, subtrace)
        for got, want in zip(res.coefficients.factors, factors, strict=True):
            assert np.array_equal(got, want)


class TestFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(19)
        x, y, b0 = _random_instance(rng, 60, (4, 3), (3, 2), 2, noise=0.0)
        res = fit(x, y, FitConfig(rank=2, lam=0.0, seed=1))
        err = predict(x, res).array - y.array
        assert float(np.sum(err**2) / np.sum(y.array**2)) < 1e-6

    def test_ridge_collapse_closed_form(self):
        rng = np.random.default_rng(20)
        x = DenseTensor(rng.standard_normal((30, 6)))
        beta = rng.standard_normal(6)
        y = DenseTensor(x.array @ beta + 0.1 * rng.standard_normal(30))
        lam = 2.0
        res = fit(x, y, FitConfig(rank=1, lam=lam, seed=2, center_data=False))
        closed = np.linalg.solve(
            x.array.T @ x.array + lam * np.eye(6), x.array.T @ y.array
        )
        got = res.coefficients.materialize().array
        assert np.allclose(got, closed, atol=1e-8 * max(1, np.abs(closed).max()))

    def test_ols_collapse_full_rank(self):
        rng = np.random.default_rng(21)
        n, p, q = 25, 4, 3
        x = DenseTensor(rng.standard_normal((n, p)))
        bmat = rng.standard_normal((p, q))
        y = DenseTensor(x.array @ bmat + 0.2 * rng.standard_normal((n, q)))
        res = fit(x, y, FitConfig(rank=q, lam=0.0, seed=3, center_data=False))
        ols = np.linalg.lstsq(x.array, y.array, rcond=None)[0]
        got = res.coefficients.materialize().array
        assert np.allclose(got, ols, atol=1e-6 * max(1, np.abs(ols).max()))

    def test_huge_lambda_shrinks_everything(self):
        rng = np.random.default_rng(22)
        x, y, _ = _random_instance(rng, 20, (3, 2), (2,), 2)
        res = fit(x, y, FitConfig(rank=2, lam=1e12, seed=4))
        ols = fit(x, y, FitConfig(rank=2, lam=0.0, seed=4))
        num = float(np.linalg.norm(res.coefficients.materialize().array))
        den = float(np.linalg.norm(ols.coefficients.materialize().array))
        assert num < 1e-6 * den

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(23)
        x, y, _ = _random_instance(rng, 15, (3, 2), (2, 2), 2)
        cfg = FitConfig(rank=2, lam=0.5, seed=5)
        r1, r2 = fit(x, y, cfg), fit(x, y, cfg)
        assert r1.objective_trace == r2.objective_trace
        for f1, f2 in zip(r1.coefficients.factors, r2.coefficients.factors):
            assert np.array_equal(f1, f2)

    def test_substep_trace_monotone(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            x, y, _ = _random_instance(rng, 12, (3, 3), (2, 2), 2)
            res = fit(x, y, FitConfig(rank=2, lam=0.3, seed=seed))
            sub = np.array(res.substep_trace)
            assert np.all(np.diff(sub) <= 1e-9)

    def test_trace_ends_at_reported_objective(self):
        rng = np.random.default_rng(25)
        x, y, _ = _random_instance(rng, 14, (3,), (2, 2), 2)
        res = fit(x, y, FitConfig(rank=2, lam=0.4, seed=6))
        direct = objective(
            DenseTensor(x.array - res.x_offsets),
            DenseTensor(y.array - res.y_offsets),
            res.coefficients,
            0.4,
        )
        assert res.objective_trace[-1] == pytest.approx(direct, rel=1e-12)

    def test_restarts_never_hurt(self):
        rng = np.random.default_rng(26)
        x, y, _ = _random_instance(rng, 12, (4, 3), (3,), 3, noise=2.0)
        one = fit(x, y, FitConfig(rank=3, lam=0.0, seed=7, n_starts=1))
        many = fit(x, y, FitConfig(rank=3, lam=0.0, seed=7, n_starts=4))
        assert many.objective_trace[-1] <= one.objective_trace[-1] + 1e-12

    def test_mode_permutation_invariance(self):
        rng = np.random.default_rng(27)
        x, y, _ = _random_instance(rng, 40, (3, 4), (2,), 2, noise=0.3)
        xp = DenseTensor(np.transpose(x.array, (0, 2, 1)))
        a = fit(x, y, FitConfig(rank=2, lam=0.5, seed=8))
        b = fit(xp, y, FitConfig(rank=2, lam=0.5, seed=8))
        assert a.objective_trace[-1] == pytest.approx(b.objective_trace[-1], rel=1e-8)

    def test_singular_system_at_lambda_zero(self):
        rng = np.random.default_rng(28)
        x = DenseTensor(rng.standard_normal((3, 8)))
        y = DenseTensor(rng.standard_normal((3, 2)))
        with pytest.raises(SingularSystemError, match="penalty|rank"):
            fit(x, y, FitConfig(rank=3, lam=0.0, seed=9, anneal_steps=0))

    def test_shape_mismatch_names_sizes(self):
        rng = np.random.default_rng(29)
        x = DenseTensor(rng.standard_normal((5, 3)))
        y = DenseTensor(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="5.*4|4.*5"):
            fit(x, y, FitConfig(rank=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rank=0)
        with pytest.raises(ValueError):
            FitConfig(rank=1, lam=-0.5)
        with pytest.raises(ValueError):
            FitConfig(rank=1, rel_tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(rank=1, anneal_steps=-1)
        with pytest.raises(ValueError):
            FitConfig(rank=1, n_starts=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            FitConfig(rank=1, seed=-1)

    @pytest.mark.parametrize("field, value", [("lam", True), ("center_data", "no"),
                                              ("max_iters", True), ("rel_tol", True)])
    def test_a_wrongly_typed_setting_is_refused(self, field, value):
        # a bool is no number, and centering takes only True or False
        with pytest.raises(TypeError, match=f"^{field} must be .*, got {value!r}$"):
            FitConfig(rank=1, **{field: value})


class TestSubstepObjective:
    """substep_trace comes from the normal equations of each update; the
    explicit objective after the same updates replayed through the public
    single-step functions is its oracle."""

    @staticmethod
    def _next_sweep(fitter, x, y, cfg, k):
        """(substep values of sweep k + 1, explicit replay of that sweep, fit)."""
        first = fitter(x, y, replace(cfg, max_iters=k))
        assert (first.iterations, first.converged) == (k, False)
        nxt = fitter(x, y, replace(cfg, max_iters=k + 1))
        b = first.coefficients
        pred, out = list(b.predictor_factors), list(b.outcome_factors)
        want = []
        for l in range(len(pred)):
            pred[l] = update_predictor_factor(x, y, CpCoefficients(pred, out), l, cfg.lam)
            want.append(objective(x, y, CpCoefficients(pred, out), cfg.lam))
        for m in range(len(out)):
            out[m] = update_outcome_factor(x, y, CpCoefficients(pred, out), m, cfg.lam)
            want.append(objective(x, y, CpCoefficients(pred, out), cfg.lam))
        return np.array(nxt.substep_trace[-len(want):]), np.array(want), nxt

    @pytest.mark.parametrize("fitter", [fit, fit_augmented_oracle])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 50.0])
    @pytest.mark.parametrize("in_dims,out_dims", [
        ((5,), (3, 2)), ((4, 3), (3,)), ((3, 2, 2), (2,)), ((4, 3), ()),
    ])
    def test_matches_explicit_objective(self, fitter, lam, in_dims, out_dims):
        rng = np.random.default_rng(60)
        x, y, _ = _random_instance(rng, 20, in_dims, out_dims, 2)
        cfg = FitConfig(rank=2, lam=lam, seed=3, center_data=False)
        # sweep anneal_steps + 1 is the second post-annealing sweep; no fit
        # can converge before it
        got, want, _ = self._next_sweep(fitter, x, y, cfg, cfg.anneal_steps + 1)
        assert got == pytest.approx(want, rel=1e-10)

    def test_high_snr_noise_floor(self):
        # at the noise floor ||Y||^2 - rhs^T sol cancels ~9 digits: its
        # round-off is of order eps * ||Y||^2, not eps times the objective
        rng = np.random.default_rng(65)
        x, y, _ = _random_instance(rng, 30, (4, 3), (3, 2), 2, noise=1e-4)
        yy = float(np.sum(y.array**2))
        cfg = FitConfig(rank=2, lam=0.0, seed=3, center_data=False, rel_tol=1e-300)
        got, want, res = self._next_sweep(fit, x, y, cfg, 40)
        assert want.max() < 1e-8 * yy
        assert np.abs(got - want).max() <= 1e-13 * yy
        assert np.diff(res.substep_trace).max() <= 1e-9


class TestAugmentedOracle:
    def test_lambda_zero_identical_to_fit(self):
        rng = np.random.default_rng(30)
        x, y, _ = _random_instance(rng, 12, (3, 2), (2,), 2)
        for n_starts in (1, 3):
            cfg = FitConfig(rank=2, lam=0.0, seed=10, n_starts=n_starts)
            a, b = fit(x, y, cfg), fit_augmented_oracle(x, y, cfg)
            assert a.objective_trace == b.objective_trace
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            for f1, f2 in zip(a.coefficients.factors, b.coefficients.factors):
                assert np.array_equal(f1, f2)

    def test_trace_matches_fit_per_sweep(self):
        rng = np.random.default_rng(31)
        for lam in (0.5, 5.0):
            x, y, _ = _random_instance(rng, 10, (3, 2), (2, 2), 2)
            cfg = FitConfig(rank=2, lam=lam, seed=11, max_iters=40)
            a = fit(x, y, cfg)
            b = fit_augmented_oracle(x, y, cfg)
            n = min(len(a.objective_trace), len(b.objective_trace))
            ta = np.array(a.objective_trace[:n])
            tb = np.array(b.objective_trace[:n])
            assert np.all(np.abs(ta - tb) <= 1e-6 * np.maximum(1.0, np.abs(ta)))

    def test_rank_limit_message_at_every_penalty(self):
        # one predictor mode and no response mode: every rank-2 system is
        # singular at any penalty, so fit and the augmented sweeps, which
        # solve with none, give the same reason instead of the lambda=0 advice
        rng = np.random.default_rng(0)
        x = DenseTensor(rng.standard_normal((20, 4)))
        y = DenseTensor(rng.standard_normal(20))
        cfg = FitConfig(rank=2, lam=50.0, seed=3)
        want = ("^rank 2 is above 1, the number of coefficient cells outside predictor mode 0, "
                "so that mode's subproblem is singular at every penalty; lower the rank$")
        for lam in (50.0, 0.0):
            for run in (fit, fit_augmented_oracle):
                with pytest.raises(SingularSystemError, match=want):
                    run(x, y, replace(cfg, lam=lam))


# (in_dims, out_dims, rank, the binding mode, the cell count outside it)
_OVER_LIMIT = [
    ((2,), (), 2, "predictor mode 0", 1),
    ((3,), (2,), 3, "predictor mode 0", 2),
    ((3, 2), (), 3, "predictor mode 0", 2),
    ((4,), (3,), 4, "predictor mode 0", 3),
    ((2, 2), (2,), 5, "predictor mode 0", 4),
    ((2,), (5,), 3, "outcome mode 0", 2),
]


class TestRankLimit:
    """A rank above the coefficient cells outside some mode is refused, whatever the penalty."""

    @pytest.mark.parametrize("in_dims, out_dims, rank, where, cells", _OVER_LIMIT)
    def test_every_solving_path_names_the_limit(self, in_dims, out_dims, rank, where, cells):
        want = (f"^rank {rank} is above {cells}, the number of coefficient cells outside {where}, "
                f"so that mode's subproblem is singular at every penalty; lower the rank$")
        for seed in range(3):
            x, y, b = _random_instance(np.random.default_rng(seed), 30, in_dims, out_dims, rank)
            for lam in (0.0, 0.5, 50.0):
                with pytest.raises(SingularSystemError, match=want):
                    fit(x, y, FitConfig(rank=rank, lam=lam, seed=seed))
                with pytest.raises(SingularSystemError, match=want):
                    gibbs(x, y, GibbsConfig(rank=rank, n_samples=2, lam=lam, seed=seed))
                steps = [lambda: update_predictor_factor(x, y, b, 0, lam),
                         lambda: conditional_factor_params(x, y, b, 0, lam, 1.0)]
                if out_dims:
                    steps.append(lambda: update_outcome_factor(x, y, b, 0, lam))
                for step in steps:
                    with pytest.raises(SingularSystemError, match=want):
                        step()
                # evaluating the coefficients solves nothing, so it is not refused
                assert np.isfinite(objective(x, y, b, lam))

    @pytest.mark.parametrize("in_dims, out_dims, rank, where, cells", _OVER_LIMIT)
    def test_a_rank_at_the_limit_fits(self, in_dims, out_dims, rank, where, cells):
        x, y, _ = _random_instance(np.random.default_rng(7), 30, in_dims, out_dims, cells)
        result = fit(x, y, FitConfig(rank=cells, lam=0.5, seed=7, max_iters=30))
        assert np.isfinite(result.objective_trace[-1])


class TestPredict:
    def test_perfect_fit_reproduces_training_rows(self):
        rng = np.random.default_rng(33)
        x, y, _ = _random_instance(rng, 50, (3, 2), (2, 2), 2, noise=0.0)
        res = fit(x, y, FitConfig(rank=2, lam=0.0, seed=1, rel_tol=1e-10))
        err = predict(x, res).array - y.array
        assert float(np.sum(err**2) / np.sum(y.array**2)) < 1e-6

    def test_zero_coefficients_return_offsets(self):
        rng = np.random.default_rng(34)
        x, y, _ = _random_instance(rng, 10, (3,), (2, 2), 1)
        res = fit(x, y, FitConfig(rank=1, lam=1e14, seed=13))
        x_new = DenseTensor(rng.standard_normal((4, 3)))
        got = predict(x_new, res)
        expected = np.broadcast_to(y.array.mean(axis=0), (4, 2, 2))
        assert np.allclose(got.array, expected, atol=1e-6)

    def test_matches_matricized_route(self):
        rng = np.random.default_rng(35)
        x, y, _ = _random_instance(rng, 12, (3, 2), (2, 3), 2)
        res = fit(x, y, FitConfig(rank=2, lam=0.5, seed=14))
        x_new = DenseTensor(rng.standard_normal((5, 3, 2)))
        got = predict(x_new, res)
        xc = x_new.array.reshape(5, -1, order="F") - res.x_offsets.ravel(order="F")
        flat = xc @ res.coefficients.matricize()
        expected = flat.reshape((5, 2, 3), order="F") + res.y_offsets
        assert np.allclose(got.array, expected, atol=1e-10)

    def test_is_the_contracted_product(self):
        # <X - x_offsets, B>_L + y_offsets with B materialized, for a scalar,
        # a one-mode and a two-mode response
        rng = np.random.default_rng(37)
        for out_dims in ((), (2,), (2, 3)):
            x, y, _ = _random_instance(rng, 12, (3, 2), out_dims, 2)
            res = fit(x, y, FitConfig(rank=2, lam=0.5, seed=16))
            assert res.x_offsets is not None
            x_new = DenseTensor(rng.standard_normal((5, 3, 2)))
            got = predict(x_new, res)
            xc = DenseTensor(x_new.array - res.x_offsets)
            expected = contract(xc, res.coefficients.materialize(), 2).array + res.y_offsets
            assert got.dims == (5,) + out_dims
            assert np.allclose(got.array, expected, atol=1e-10)

    def test_holds_one_tile_of_rows_at_a_time(self):
        # 5000 rows of a 15x20 predictor are 12 MB; the 5000 x 5 x 10 output is 2 MB
        rng = np.random.default_rng(38)
        x, y, _ = _random_instance(rng, 30, (15, 20), (5, 10), 3)
        res = fit(x, y, FitConfig(rank=3, lam=0.5, seed=17, max_iters=5))
        x_new = DenseTensor(rng.standard_normal((5000, 15, 20)))
        got, peak = traced_peak(lambda: predict(x_new, res))
        assert got.dims == (5000, 5, 10) and not got.array.flags.writeable
        assert peak < 0.5 * x_new.array.nbytes

    def test_dim_mismatch(self):
        rng = np.random.default_rng(36)
        x, y, _ = _random_instance(rng, 8, (3,), (2,), 1)
        res = fit(x, y, FitConfig(rank=1, lam=0.1, seed=15))
        with pytest.raises(ValueError):
            predict(DenseTensor(rng.standard_normal((4, 5))), res)
