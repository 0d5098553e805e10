"""Property tests over random shapes, orders and values.

The example-based tests pin hand-derived cases; these check the algebraic
invariants the package rests on for every shape hypothesis draws: the
first-index-fastest layout, the CP/Khatri-Rao identity, the normalization
map and the exit code of an unpenalized fit whose system is rank deficient.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitResult,
    cp_compose,
    khatri_rao,
    normalize,
    predict,
    unfold,
    vec,
    write_tensor,
)
from mwreg.cli import main

_VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4)


@st.composite
def _factor_lists(draw, min_modes=1, max_modes=4):
    """(factor matrices, number of predictor modes) sharing one rank."""
    rank = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=min_modes, max_size=max_modes))
    factors = [draw(hnp.arrays(float, (d, rank), elements=_VALUES)) for d in dims]
    return factors, draw(st.integers(1, len(dims)))


class TestLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(float, _SHAPES, elements=_VALUES))
    def test_vec_round_trip(self, arr):
        t = DenseTensor(arr)
        back = DenseTensor.from_values(t.dims, vec(t))
        assert back.dims == t.dims
        assert np.array_equal(back.array, t.array)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(float, _SHAPES, elements=_VALUES), st.data())
    def test_unfold_round_trip(self, arr, data):
        t = DenseTensor(arr)
        mode = data.draw(st.integers(0, t.order - 1))
        u = unfold(t, mode)
        others = tuple(d for k, d in enumerate(t.dims) if k != mode)
        assert u.shape == (t.dims[mode], int(np.prod(others, dtype=int)))
        folded = np.moveaxis(u.reshape((t.dims[mode],) + others, order="F"), 0, mode)
        assert np.array_equal(folded, t.array)
        i = data.draw(st.integers(0, t.dims[mode] - 1))
        assert np.array_equal(u[i], np.take(t.array, i, axis=mode).ravel(order="F"))


class TestCpProperties:
    @settings(max_examples=40, deadline=None)
    @given(_factor_lists())
    def test_cp_compose_equals_khatri_rao_row_sums(self, drawn):
        factors, _ = drawn
        got = vec(cp_compose(factors))
        want = khatri_rao(factors).sum(axis=1)
        # both sum the same R products, in different orders
        bound = khatri_rao([np.abs(f) for f in factors]).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * bound)

    @settings(max_examples=40, deadline=None)
    @given(_factor_lists(min_modes=2), st.integers(1, 5), st.data())
    def test_normalize_is_idempotent_and_keeps_predictions(self, drawn, n, data):
        factors, n_pred = drawn
        # a zero column at order 3 and above is rejected by design
        assume(all(np.linalg.norm(f, axis=0).min() > 1e-3 for f in factors))
        b = CpCoefficients(factors[:n_pred], factors[n_pred:])
        once = normalize(b).coefficients
        twice = normalize(once).coefficients
        for f1, f2 in zip(once.factors, twice.factors, strict=True):
            assert np.array_equal(f1, f2)
        x = DenseTensor(data.draw(hnp.arrays(float, (n,) + b.in_dims, elements=_VALUES)))

        def predicted(coefficients):
            res = FitResult(coefficients, [0.0], [], True, 1, None, None)
            return predict(x, res).array

        # round-off bound: the magnitudes of the summed terms, and for the
        # order-2 SVD rebuild the spectral scale of the coefficient matrix
        x1 = np.abs(x.array.reshape(n, -1, order="F"))
        terms = x1 @ np.abs(khatri_rao(b.predictor_factors))
        if b.outcome_factors:
            terms = terms @ np.abs(khatri_rao(b.outcome_factors)).T
        else:
            terms = terms.sum(axis=1, keepdims=True)
        spectral = np.linalg.norm(b.matricize(), 2) * x1.sum(axis=1, keepdims=True)
        bound = 1e-12 * (terms + spectral).reshape(predicted(b).shape, order="F")
        assert np.all(np.abs(predicted(once) - predicted(b)) <= bound)


class TestExitCodeProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(0, 2**32 - 1), st.data())
    def test_rank_deficient_unpenalized_fit_exits_3(self, n, q, rank, anneal, seed, data):
        # the predictor system is (rank * p) square from n * q rows
        p = data.draw(st.integers(n * q // rank + 1, n * q // rank + 4))
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            x, y = os.path.join(tmp, "x.mwt"), os.path.join(tmp, "y.mwt")
            write_tensor(x, DenseTensor(rng.standard_normal((n, p))))
            write_tensor(y, DenseTensor(rng.standard_normal((n, q))))
            code = main(["fit", "--x", x, "--y", y, "--rank", str(rank), "--lambda", "0",
                         "--anneal-steps", str(anneal), "--no-center",
                         "--out", os.path.join(tmp, "m.json")])
        assert code == 3
