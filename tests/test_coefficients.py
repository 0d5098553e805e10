"""Coefficient-bundle tests: matricization, normalization, Gram identities.

The explicit-construction oracles here rebuild every claimed identity
from vec/outer loops, independent of the Khatri-Rao and Hadamard
shortcuts used by the implementation.
"""

import numpy as np
import pytest

from mwreg import (
    CpCoefficients,
    DegenerateComponentError,
    DenseTensor,
    contract,
    normalize,
    outer,
    unfold,
    vec,
)
from reference import gram_hadamard, nuclear_balance


def _random_b(rng, in_dims, out_dims, rank):
    return CpCoefficients(
        [rng.standard_normal((d, rank)) for d in in_dims],
        [rng.standard_normal((d, rank)) for d in out_dims],
    )


def _loop_rank1_matrix(factors, skip):
    """Columns are vec of the rank-1 term omitting one mode's factor.

    With no other modes the omitted term is the scalar 1.
    """
    kept = [f for k, f in enumerate(factors) if k != skip]
    rank = factors[0].shape[1]
    if not kept:
        return np.ones((1, rank))
    cols = []
    for r in range(rank):
        t = outer([f[:, r] for f in kept])
        cols.append(vec(t))
    return np.column_stack(cols)


class TestCpCoefficients:
    def test_dims_and_rank(self):
        rng = np.random.default_rng(0)
        b = _random_b(rng, (3, 4), (2,), 2)
        assert b.in_dims == (3, 4)
        assert b.out_dims == (2,)
        assert b.rank == 2
        assert b.order == 3

    def test_factors_are_copied_and_frozen(self):
        u = np.ones((3, 2))
        b = CpCoefficients([u], [np.ones((2, 2))])
        u[0, 0] = 99.0
        assert b.predictor_factors[0][0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            b.predictor_factors[0][0, 0] = 5.0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CpCoefficients([np.ones((2, 2))], [np.ones((3, 1))])

    def test_predictor_factor_required(self):
        with pytest.raises(ValueError):
            CpCoefficients([], [np.ones((2, 1))])

    def test_materialize_dims(self):
        rng = np.random.default_rng(1)
        b = _random_b(rng, (2, 3), (4,), 2)
        assert b.materialize().dims == (2, 3, 4)

    def test_materialize_full_rank_matrix(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 3))
        v = rng.standard_normal((5, 3))
        b = CpCoefficients([u], [v])
        assert np.allclose(b.materialize().array, u @ v.T, atol=1e-13)


class TestMatricize:
    def test_matches_loop_linearization(self):
        rng = np.random.default_rng(3)
        b = _random_b(rng, (2, 3), (2, 2), 2)
        mat = b.matricize()
        dense = b.materialize().array
        assert mat.shape == (6, 4)
        for p1 in range(2):
            for p2 in range(3):
                for q1 in range(2):
                    for q2 in range(2):
                        p = p1 + 2 * p2
                        q = q1 + 2 * q2
                        assert mat[p, q] == pytest.approx(
                            dense[p1, p2, q1, q2], abs=1e-12
                        )

    def test_single_modes_give_uvt(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((3, 2))
        v = rng.standard_normal((4, 2))
        assert np.allclose(CpCoefficients([u], [v]).matricize(), u @ v.T, atol=1e-13)

    def test_reshaping_back_matches_materialize(self):
        rng = np.random.default_rng(5)
        b = _random_b(rng, (2, 2), (3,), 3)
        back = b.matricize().reshape((2, 2, 3), order="F")
        assert np.allclose(back, b.materialize().array, atol=1e-12)

    def test_scalar_response_is_vectorized_column(self):
        rng = np.random.default_rng(8)
        b = _random_b(rng, (3, 2), (), 2)
        m = b.matricize()
        assert m.shape == (6, 1)
        assert np.allclose(m, b.materialize().array.reshape(-1, 1, order="F"), atol=1e-12)
        x = DenseTensor(rng.standard_normal((5, 3, 2)))
        lhs = unfold(contract(x, b.materialize(), 2), 0)
        assert np.allclose(unfold(x, 0) @ m, lhs, atol=1e-12)

    def test_predicts_like_contract(self):
        rng = np.random.default_rng(6)
        b = _random_b(rng, (3, 2), (2, 2), 2)
        x = DenseTensor(rng.standard_normal((5, 3, 2)))
        lhs = unfold(contract(x, b.materialize(), 2), 0)
        rhs = unfold(x, 0) @ b.matricize()
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGramHadamard:
    def test_identity_columns(self):
        eye = np.eye(3)[:, :2]
        b = CpCoefficients([eye, eye], [eye])
        assert np.allclose(gram_hadamard(b, 0), np.eye(2), atol=0)

    def test_explicit_construction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            in_dims = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            out_dims = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            rank = int(rng.integers(1, 4))
            b = _random_b(rng, in_dims, out_dims, rank)
            for skip in range(b.order):
                explicit = _loop_rank1_matrix(list(b.factors), skip)
                assert np.allclose(
                    gram_hadamard(b, skip), explicit.T @ explicit, atol=1e-10
                )

    def test_rank_1_is_product_of_squared_norms(self):
        rng = np.random.default_rng(8)
        b = _random_b(rng, (3, 2), (4,), 1)
        expected = 1.0
        for k, f in enumerate(b.factors):
            if k != 1:
                expected *= float(f[:, 0] @ f[:, 0])
        assert gram_hadamard(b, 1)[0, 0] == pytest.approx(expected, rel=1e-12)


class TestNormalize:
    def test_preserves_materialization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            in_dims = tuple(rng.integers(2, 6, size=rng.integers(1, 3)))
            out_dims = tuple(rng.integers(2, 6, size=rng.integers(0, 2)))
            rank = int(rng.integers(1, 5))
            b = _random_b(rng, in_dims, out_dims, rank)
            n = normalize(b).coefficients
            before = b.materialize().array
            after = n.materialize().array
            denom = max(np.linalg.norm(before), 1e-300)
            assert np.linalg.norm(after - before) / denom < 1e-10

    def test_balances_column_norms(self):
        rng = np.random.default_rng(10)
        b = _random_b(rng, (3, 4), (2,), 3)
        n = normalize(b).coefficients
        norms = np.stack([np.linalg.norm(f, axis=0) for f in n.factors])
        spread = norms.max(axis=0) - norms.min(axis=0)
        assert np.all(spread <= 1e-10 * np.maximum(norms.max(axis=0), 1.0))

    def test_orders_components_descending(self):
        rng = np.random.default_rng(11)
        b = _random_b(rng, (3, 4), (2, 2), 3)
        n = normalize(b).coefficients
        lead = np.linalg.norm(n.predictor_factors[0], axis=0)
        assert np.all(np.diff(lead) <= 1e-12)

    def test_hand_derived_three_way_scales(self):
        # unit columns scaled by (5, 1) in the first mode only: per mode
        # the balanced norm is the cube root of the component's total scale
        u1 = np.array([[5.0, 0.0], [0.0, 1.0]])
        u2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        v1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        n = normalize(CpCoefficients([u1, u2], [v1])).coefficients
        for f in n.factors:
            got = np.linalg.norm(f, axis=0)
            assert got[0] == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-12)
            assert got[1] == pytest.approx(1.0, rel=1e-12)

    def test_sign_convention_first_factor_peak_positive(self):
        rng = np.random.default_rng(12)
        b = _random_b(rng, (4, 3), (3,), 3)
        n = normalize(b).coefficients
        first = n.predictor_factors[0]
        for r in range(3):
            col = first[:, r]
            assert col[np.argmax(np.abs(col))] > 0

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(13)
        for dims in [((3, 4), (2,)), ((4,), (5,)), ((2, 3, 2), ())]:
            b = _random_b(rng, dims[0], dims[1], 2)
            once = normalize(b).coefficients
            twice = normalize(once).coefficients
            for f1, f2 in zip(once.factors, twice.factors):
                assert np.array_equal(f1, f2)

    def test_order2_svd_rebuild(self):
        # zero column in one mode only: absorbed by the SVD route
        u = np.array([[2.0, 0.0], [0.0, 0.0]])
        v = np.array([[1.0, 3.0], [1.0, -1.0]])
        b = CpCoefficients([u], [v])
        res = normalize(b)
        assert res.restrictions == "abc"
        n = res.coefficients
        mat = b.materialize().array
        sv = np.linalg.svd(mat, compute_uv=False)
        for f in n.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), np.sqrt(sv), atol=1e-12)
            g = f.T @ f
            assert np.allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-12)
        assert np.allclose(n.materialize().array, mat, atol=1e-12)

    def test_order2_rank_above_min_dim_zero_pads(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal((2, 3))
        v = rng.standard_normal((4, 3))
        n = normalize(CpCoefficients([u], [v])).coefficients
        lead = np.linalg.norm(n.predictor_factors[0], axis=0)
        assert lead[2] == 0.0
        assert np.allclose(n.materialize().array, (u @ v.T), atol=1e-12)

    def test_restriction_flag_ab_at_order3(self):
        rng = np.random.default_rng(15)
        assert normalize(_random_b(rng, (3, 3), (3,), 2)).restrictions == "ab"

    def test_zero_column_rejected_at_order3(self):
        u1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        u2 = np.ones((2, 2))
        v1 = np.ones((2, 2))
        with pytest.raises(DegenerateComponentError, match="1"):
            normalize(CpCoefficients([u1, u2], [v1]))


class TestNuclearBalance:
    def test_hand_rank1(self):
        u = np.full((3, 1), 1.0)
        v = np.full((3, 1), 1.0)
        # ||u|| = ||v|| = sqrt(3), single singular value 3
        got = nuclear_balance(CpCoefficients([u], [v]))
        assert got[0] == pytest.approx(6.0, rel=1e-12)
        assert got[1] == pytest.approx(6.0, rel=1e-12)

    def test_normalized_random_rank2(self):
        rng = np.random.default_rng(16)
        b = normalize(_random_b(rng, (5,), (4,), 2)).coefficients
        s, nn = nuclear_balance(b)
        assert s == pytest.approx(nn, rel=1e-8)

    def test_zero_coefficient(self):
        b = CpCoefficients([np.zeros((3, 2))], [np.zeros((2, 2))])
        assert nuclear_balance(b) == (0.0, 0.0)

    def test_non_orthogonal_rejected(self):
        u = np.array([[1.0, 1.0], [0.0, 1e-3]])
        v = np.eye(2)
        with pytest.raises(ValueError):
            nuclear_balance(CpCoefficients([u], [v]))

    def test_order3_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            nuclear_balance(_random_b(rng, (2, 2), (2,), 1))
