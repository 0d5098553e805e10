"""Tensor algebra tests.

The frozen expected values in this file were derived by hand from the
first-index-fastest layout convention; the loop oracles below recompute
every operation entrywise with plain Python loops so the vectorized
implementations are checked against an independent route.
"""

import numpy as np
import pytest

from mwreg import (
    DenseTensor,
    contract,
    cp_compose,
    khatri_rao,
    outer,
    unfold,
    vec,
)


def _labeled_222():
    # t[i,j,k] = 100*i + 10*j + k with 1-based indices
    arr = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                arr[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return DenseTensor(arr)


def _loop_vec(t: DenseTensor) -> np.ndarray:
    dims = t.dims
    out = np.empty(t.size)
    for idx in np.ndindex(*dims):
        flat = 0
        stride = 1
        for d, i in zip(dims, idx):
            flat += stride * i
            stride *= d
        out[flat] = t.array[idx]
    return out


def _loop_outer(vectors) -> np.ndarray:
    dims = tuple(len(v) for v in vectors)
    out = np.empty(dims)
    for idx in np.ndindex(*dims):
        prod = 1.0
        for v, i in zip(vectors, idx):
            prod *= v[i]
        out[idx] = prod
    return out


def _loop_contract(a: np.ndarray, b: np.ndarray, l: int) -> np.ndarray:
    lead = a.shape[: a.ndim - l]
    shared = a.shape[a.ndim - l:]
    trail = b.shape[l:]
    out = np.zeros(lead + trail)
    for i in np.ndindex(*lead):
        for j in np.ndindex(*trail):
            s = 0.0
            for p in np.ndindex(*shared):
                s += a[i + p] * b[p + j]
            out[i + j] = s
    return out


class TestDenseTensor:
    def test_stores_and_reports_dims(self):
        t = DenseTensor(np.arange(6.0).reshape(2, 3))
        assert t.dims == (2, 3)
        assert t.order == 2
        assert t.size == 6

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            DenseTensor(np.array([np.inf, 1.0]))

    def test_rejects_order_zero_and_empty(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array(3.0))
        with pytest.raises(ValueError):
            DenseTensor(np.empty((0, 2)))

    def test_array_is_immutable(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises((ValueError, RuntimeError)):
            t.array[0, 0] = 5.0

    def test_caller_array_is_copied(self):
        arr = np.arange(6.0).reshape(2, 3)
        t = DenseTensor(arr)
        arr[0, 0] = 99.0
        assert arr.flags.writeable
        assert t.array[0, 0] == 0.0

    def test_adopted_array_is_taken_over_read_only(self):
        arr = np.arange(6.0).reshape(2, 3)
        t = DenseTensor._adopt(arr)
        assert t.array is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0

    def test_adopt_refuses_what_the_constructor_refuses(self):
        for bad in (np.array([1.0, np.nan]), np.array(3.0), np.empty((0, 2))):
            with pytest.raises(ValueError) as copied:
                DenseTensor(bad.copy())
            with pytest.raises(ValueError) as adopted:
                DenseTensor._adopt(bad.copy())
            assert str(adopted.value) == str(copied.value)

    def test_adopted_layout_is_the_copy_layout(self):
        # C order, F order and a dense permutation of axes, as simulate's
        # correlated fields are: the copy keeps each one's strides
        base = np.arange(24.0).reshape(2, 3, 4)
        for arr in (base, np.asfortranarray(base), base.transpose(1, 0, 2)):
            assert DenseTensor._adopt(arr.copy(order="K")).array.strides == DenseTensor(arr).array.strides

    def test_from_values_uses_first_index_fastest(self):
        t = DenseTensor.from_values((2, 2), [1.0, 2.0, 3.0, 4.0])
        assert t.array[0, 0] == 1.0
        assert t.array[1, 0] == 2.0
        assert t.array[0, 1] == 3.0
        assert t.array[1, 1] == 4.0

    def test_values_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 2, 4))
        t = DenseTensor(arr)
        again = DenseTensor.from_values(t.dims, vec(t))
        assert np.array_equal(again.array, arr)


class TestVec:
    def test_2x2_layout(self):
        t = DenseTensor.from_values((2, 2), [1.0, 2.0, 3.0, 4.0])
        # [a, b, c, d] = [t11, t21, t12, t22]
        assert vec(t).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_order_1_identity(self):
        t = DenseTensor(np.array([5.0, 6.0, 7.0]))
        assert vec(t).tolist() == [5.0, 6.0, 7.0]

    def test_labeled_2x2x2(self):
        expected = [111, 211, 121, 221, 112, 212, 122, 222]
        assert vec(_labeled_222()).tolist() == expected

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for dims in [(3,), (2, 4), (2, 3, 2), (2, 2, 3, 2)]:
            t = DenseTensor(rng.standard_normal(dims))
            assert np.array_equal(vec(t), _loop_vec(t))

    def test_reshape_round_trip(self):
        rng = np.random.default_rng(2)
        t = DenseTensor(rng.standard_normal((3, 4, 2)))
        back = DenseTensor.from_values(t.dims, vec(t))
        assert np.array_equal(back.array, t.array)


class TestUnfold:
    def test_mode_1_stride_identity(self):
        rng = np.random.default_rng(3)
        t = DenseTensor(rng.standard_normal((3, 2, 4)))
        m = unfold(t, 0)
        v = vec(t)
        for i in range(3):
            for j in range(8):
                assert m[i, j] == v[i + 3 * j]

    def test_matrix_mode_2_is_transpose(self):
        t = DenseTensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(unfold(t, 1), t.array.T)

    def test_labeled_mode_3(self):
        m = unfold(_labeled_222(), 2)
        assert m.shape == (2, 4)
        assert m[0].tolist() == [111, 211, 121, 221]
        assert m[1].tolist() == [112, 212, 122, 222]

    def test_rows_are_subarray_vecs(self):
        rng = np.random.default_rng(4)
        t = DenseTensor(rng.standard_normal((2, 3, 4, 2)))
        for mode in range(4):
            m = unfold(t, mode)
            for i in range(t.dims[mode]):
                sub = np.take(t.array, i, axis=mode)
                assert np.array_equal(m[i], _loop_vec(DenseTensor(sub)))

    def test_mode_out_of_range(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            unfold(t, 2)
        with pytest.raises(ValueError):
            unfold(t, -1)


class TestOuter:
    def test_two_vectors(self):
        t = outer([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert t.array.tolist() == [[3.0, 4.0], [6.0, 8.0]]

    def test_zero_vector_gives_zero(self):
        t = outer([np.array([1.0, 2.0]), np.zeros(3)])
        assert not t.array.any()

    def test_three_vectors_vec_order(self):
        t = outer([np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([2.0])])
        assert t.dims == (2, 2, 1)
        assert vec(t).tolist() == [2.0, 4.0, 2.0, 4.0]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(d) for d in (3, 2, 4)]
        assert np.allclose(outer(vecs).array, _loop_outer(vecs), atol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            outer([])


class TestCpCompose:
    def test_rank_1_equals_outer(self):
        rng = np.random.default_rng(6)
        cols = [rng.standard_normal((d, 1)) for d in (2, 3, 2)]
        t = cp_compose(cols)
        o = outer([c[:, 0] for c in cols])
        assert np.allclose(t.array, o.array, atol=1e-15)

    def test_two_factors_is_matrix_product(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((4, 3))
        v = rng.standard_normal((5, 3))
        assert np.allclose(cp_compose([u, v]).array, u @ v.T, atol=1e-14)

    def test_rank_2_three_way_brute_force(self):
        rng = np.random.default_rng(8)
        factors = [rng.standard_normal((d, 2)) for d in (3, 2, 4)]
        expected = np.zeros((3, 2, 4))
        for r in range(2):
            expected += _loop_outer([f[:, r] for f in factors])
        assert np.allclose(cp_compose(factors).array, expected, atol=1e-13)

    def test_brute_force_random_shapes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = rng.integers(1, 4)
            r = rng.integers(1, 4)
            dims = rng.integers(1, 5, size=k)
            factors = [rng.standard_normal((d, r)) for d in dims]
            expected = np.zeros(tuple(dims))
            for j in range(r):
                expected += _loop_outer([f[:, j] for f in factors])
            assert np.allclose(cp_compose(factors).array, expected, atol=1e-12)

    def test_mismatched_ranks_rejected(self):
        with pytest.raises(ValueError):
            cp_compose([np.ones((2, 2)), np.ones((3, 1))])


class TestKhatriRao:
    def test_columns_are_vec_of_outer(self):
        rng = np.random.default_rng(10)
        factors = [rng.standard_normal((d, 3)) for d in (2, 3, 2)]
        kr = khatri_rao(factors)
        assert kr.shape == (12, 3)
        for r in range(3):
            col_oracle = _loop_vec(DenseTensor(_loop_outer([f[:, r] for f in factors])))
            assert np.allclose(kr[:, r], col_oracle, atol=1e-14)

    def test_single_factor_identity(self):
        f = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(khatri_rao([f]), f)


class TestContract:
    def test_matrix_product(self):
        a = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = DenseTensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert contract(a, b, 1).array.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_indicator_extracts_slice(self):
        rng = np.random.default_rng(11)
        x = DenseTensor(rng.standard_normal((5, 3, 4)))
        e = np.zeros((3, 4))
        e[2, 1] = 1.0
        got = contract(x, DenseTensor(e), 2)
        assert np.allclose(got.array, x.array[:, 2, 1], atol=0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            l = int(rng.integers(1, 3))
            lead = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            shared = tuple(rng.integers(1, 4, size=l))
            trail = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            a = DenseTensor(rng.standard_normal(lead + shared))
            b = DenseTensor(rng.standard_normal(shared + trail))
            if len(trail) == 0 and len(lead) == 0:
                continue
            got = contract(a, b, l)
            assert np.allclose(got.array, _loop_contract(a.array, b.array, l), atol=1e-12)

    def test_matricized_multiply_oracle(self):
        # unfolding the contraction along mode 1 equals X1 times the
        # loop-built coefficient matrix
        rng = np.random.default_rng(13)
        x = DenseTensor(rng.standard_normal((3, 2, 2)))
        b = DenseTensor(rng.standard_normal((2, 2, 3)))
        got = unfold(contract(x, b, 2), 0)
        x1 = unfold(x, 0)
        bmat = np.empty((4, 3))
        for p1 in range(2):
            for p2 in range(2):
                for q in range(3):
                    bmat[p1 + 2 * p2, q] = b.array[p1, p2, q]
        assert np.allclose(got, x1 @ bmat, atol=1e-12)

    def test_bilinear(self):
        rng = np.random.default_rng(14)
        a1 = rng.standard_normal((3, 2, 2))
        a2 = rng.standard_normal((3, 2, 2))
        b = DenseTensor(rng.standard_normal((2, 2, 4)))
        lhs = contract(DenseTensor(2.5 * a1 + a2), b, 2).array
        rhs = 2.5 * contract(DenseTensor(a1), b, 2).array + contract(DenseTensor(a2), b, 2).array
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_dim_mismatch_names_both(self):
        a = DenseTensor(np.ones((2, 3)))
        b = DenseTensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="3"):
            contract(a, b, 1)

    def test_order_zero_result_rejected(self):
        a = DenseTensor(np.ones(3))
        b = DenseTensor(np.ones(3))
        with pytest.raises(ValueError):
            contract(a, b, 1)
