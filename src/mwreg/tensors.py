"""Dense multiway arrays and the small tensor algebra the package is built on.

Storage is first-index-fastest: the flat value sequence of a tensor is its
vectorization, with entry (i1, ..., iK) at flat position
i1 + I1*i2 + I1*I2*i3 + ... (0-based).  That is numpy's ``order="F"``
layout, and every reshape/ravel in the package uses it.  Matrices are plain
2-D numpy arrays; flattened with ``order="F"`` they follow the same
linearization.  Modes are 0-based throughout this API; tensor files and CLI
messages use 1-based modes.
"""

from __future__ import annotations

import numbers
from functools import reduce
from math import prod

import numpy as np

__all__ = [
    "DenseTensor",
    "vec",
    "unfold",
    "outer",
    "cp_compose",
    "khatri_rao",
    "contract",
]


# the type rule of a numeric setting or file value of kind int or float:
# the numbers ABC its values belong to, and that rule's name in messages
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def _type_is_kind(cls: type, kind) -> bool:
    """Whether values of type cls pass kind's rule: a float takes an integer too, and a bool is no number."""
    return issubclass(cls, _KINDS[kind][0]) and not issubclass(cls, bool)


def _is_kind(value, kind) -> bool:
    """Whether value passes kind's rule."""
    return _type_is_kind(type(value), kind)


class DenseTensor:
    """Immutable dense real tensor of order >= 1.

    Construction rejects NaN and infinite entries.  ``array`` is a read-only
    numpy view indexed ``[i1, ..., iK]``; `vec` gives the flat
    first-index-fastest vector.
    """

    __slots__ = ("_array",)

    def __init__(self, array) -> None:
        arr = np.array(array, dtype=float)
        if arr.ndim < 1:
            raise ValueError("tensor order must be at least 1")
        if arr.size == 0:
            raise ValueError("tensor dimensions must all be positive")
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def from_values(cls, dims, values) -> "DenseTensor":
        """Build a tensor from its dimension list and flat vectorization."""
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        flat = np.asarray(values, dtype=float).ravel()
        if flat.size != prod(dims):
            raise ValueError(
                f"expected {prod(dims)} values for dims {dims}, got {flat.size}"
            )
        return cls(flat.reshape(dims, order="F"))

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dims(self) -> tuple:
        return self._array.shape

    @property
    def order(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"DenseTensor({dims})"


def vec(t: DenseTensor) -> np.ndarray:
    """Vectorize with the first index fastest.

    Reshaping the result back with ``DenseTensor.from_values(t.dims, ...)``
    reproduces ``t`` exactly.
    """
    return t.array.ravel(order="F")


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Matricize along ``mode`` (0-based).

    Row i of the result is the vectorization of the subarray with the given
    mode fixed at i, the remaining modes kept in their original relative
    order.  Shape is (dims[mode], prod of the other dims).
    """
    if not 0 <= mode < t.order:
        raise ValueError(f"mode {mode} out of range for order-{t.order} tensor")
    moved = np.moveaxis(t.array, mode, 0)
    return moved.reshape(t.dims[mode], -1, order="F")


def outer(vectors) -> DenseTensor:
    """Outer product of one or more vectors: t[i1,...,iK] = v1[i1]*...*vK[iK]."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("outer product needs at least one vector")
    for v in vs:
        if v.ndim != 1 or v.size == 0:
            raise ValueError("outer product factors must be non-empty vectors")
    return DenseTensor(reduce(np.multiply.outer, vs))


def _as_factor_matrices(factors):
    mats = [np.asarray(f, dtype=float) for f in factors]
    if not mats:
        raise ValueError("at least one factor matrix is required")
    for m in mats:
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("factor matrices must be 2-D with positive shape")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"factor matrices must share a column count, got {sorted(ranks)}")
    return mats


def cp_compose(factors) -> DenseTensor:
    """Sum of rank-1 outer products from per-mode factor matrices.

    With factors A1 (I1 x R), ..., AK (IK x R) the result has entry
    sum_r A1[i1,r] * ... * AK[iK,r].
    """
    mats = _as_factor_matrices(factors)
    k = len(mats)
    operands = []
    for axis, m in enumerate(mats):
        operands.extend([m, [axis, k]])
    operands.append(list(range(k)))
    return DenseTensor(np.einsum(*operands))


def khatri_rao(factors) -> np.ndarray:
    """Column-wise Kronecker product with the first factor's index fastest.

    Column r is the vectorization of the outer product of the factors'
    r-th columns, so ``cp_compose(factors)`` vectorizes to the row sums of
    this matrix times one.
    """
    return _khatri_rao(_as_factor_matrices(factors))


def _khatri_rao(mats) -> np.ndarray:
    """`khatri_rao` of float matrices already known to share a column count."""
    k = len(mats)
    rank = mats[0].shape[1]
    if k == 1:
        return mats[0].copy()
    operands = []
    for axis, m in enumerate(mats):
        operands.extend([m, [axis, k]])
    operands.append(list(range(k + 1)))
    full = np.einsum(*operands)
    return full.reshape(-1, rank, order="F")


def contract(a: DenseTensor, b: DenseTensor, n_modes: int) -> DenseTensor:
    """Contracted product: sum over the last ``n_modes`` of a and first of b.

    For a of order K + n and b of order n + M the result has order K + M,
    entry sum over the n shared indices of a[i..., s...] * b[s..., j...].
    Order-2 inputs with n_modes=1 reduce to the matrix product.  For
    predictors a of dims (N, *in_dims) and a materialized coefficient array
    b it is the paper's <X, B>_L, which `fitting.predict` computes from the
    factors without forming B.
    """
    if n_modes < 1:
        raise ValueError("number of contracted modes must be at least 1")
    if n_modes > a.order or n_modes > b.order:
        raise ValueError(
            f"cannot contract {n_modes} modes between order-{a.order} and order-{b.order} tensors"
        )
    if a.dims[a.order - n_modes:] != b.dims[:n_modes]:
        raise ValueError(
            f"contracted dimensions differ: {a.dims[a.order - n_modes:]} vs {b.dims[:n_modes]}"
        )
    if (a.order - n_modes) + (b.order - n_modes) < 1:
        raise ValueError("contraction would leave an order-0 result")
    return DenseTensor(np.tensordot(a.array, b.array, axes=n_modes))
