"""CP-structured coefficient arrays for multiway linear prediction.

A coefficient array of order L + M is held as L predictor-mode and M
outcome-mode factor matrices sharing one rank R; the represented array is
the sum over components of the outer product of the per-mode columns.
Holding the factors instead of the full array is what makes the mode-wise
least-squares updates and the posterior conditionals tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import DenseTensor, _as_factor_matrices, _frozen, cp_compose, khatri_rao

__all__ = [
    "CpCoefficients",
    "NormalizedForm",
    "DegenerateComponentError",
    "normalize",
]


class DegenerateComponentError(ValueError):
    """A component carries an all-zero column in some mode."""


class CpCoefficients:
    """Rank-R coefficient array in factored form.

    ``predictor_factors`` are U_1 (P_1 x R), ..., U_L (P_L x R) and
    ``outcome_factors`` are V_1 (Q_1 x R), ..., V_M (Q_M x R); M may be 0
    (scalar response per observation).  Factors are copied and frozen.
    """

    __slots__ = ("_pred", "_out")

    def __init__(self, predictor_factors, outcome_factors=()) -> None:
        pred = tuple(predictor_factors)
        if not pred:
            raise ValueError("at least one predictor factor is required")
        mats = [_frozen(m) for m in _as_factor_matrices(pred + tuple(outcome_factors))]
        if not all(np.isfinite(m).all() for m in mats):
            raise ValueError("factor matrices must be finite")
        self._pred, self._out = tuple(mats[:len(pred)]), tuple(mats[len(pred):])

    @property
    def predictor_factors(self) -> tuple:
        return self._pred

    @property
    def outcome_factors(self) -> tuple:
        return self._out

    @property
    def factors(self) -> tuple:
        return self._pred + self._out

    @property
    def rank(self) -> int:
        return self._pred[0].shape[1]

    @property
    def in_dims(self) -> tuple:
        return tuple(f.shape[0] for f in self._pred)

    @property
    def out_dims(self) -> tuple:
        return tuple(f.shape[0] for f in self._out)

    @property
    def order(self) -> int:
        return len(self._pred) + len(self._out)

    def materialize(self) -> DenseTensor:
        """The full coefficient array, dims in_dims ++ out_dims."""
        return cp_compose(self.factors)

    def matricize(self) -> np.ndarray:
        """The P x Q coefficient matrix, P = prod(in_dims), Q = prod(out_dims).

        Entry [p, q] is the coefficient at the multi-indices whose
        first-index-fastest linearizations are p and q, so unfolding the
        response model along the observation mode gives Y1 = X1 @ matricize.
        With no outcome modes (scalar response) Q = 1 and the result is the
        P x 1 column of the vectorized array.
        """
        kr = khatri_rao(self._pred)
        if not self._out:
            return kr.sum(axis=1, keepdims=True)
        return kr @ khatri_rao(self._out).T

    def __repr__(self) -> str:
        ins = "x".join(map(str, self.in_dims))
        outs = "x".join(map(str, self.out_dims)) or "-"
        return f"CpCoefficients(in={ins}, out={outs}, rank={self.rank})"


@dataclass(frozen=True)
class NormalizedForm:
    """A coefficient set satisfying the identifiability restrictions.

    ``restrictions`` records which hold: "ab" (equal column norms across
    modes per component, components ordered by decreasing norm) or "abc"
    (additionally orthogonal factor columns, only possible at order 2).
    """

    coefficients: CpCoefficients
    restrictions: str


_NORM_TOL = 1e-12


def normalize(b: CpCoefficients) -> NormalizedForm:
    """Rescale, reorder, and sign-fix the factors without changing the array.

    Per component the column norms are equalized across all modes and the
    components are sorted by decreasing norm.  For order-2 coefficients the
    factors are rebuilt from the SVD of the materialized matrix, which
    additionally makes the columns orthogonal.  Signs are fixed so the
    largest-magnitude entry of each first-mode column is positive, the
    last mode absorbing the flip.  Already-normalized input is returned
    unchanged, which makes the map exactly idempotent.
    """
    factors = list(b.factors)
    norms = np.stack([np.linalg.norm(f, axis=0) for f in factors])
    zero_cols = np.where(norms.min(axis=0) == 0.0)[0]
    # The SVD rebuild at order 2 absorbs zero columns; per-component
    # rescaling at higher orders cannot.
    if zero_cols.size and b.order != 2:
        raise DegenerateComponentError(
            f"component {int(zero_cols[0])} has a zero column in some mode"
        )
    restrictions = "abc" if b.order == 2 else "ab"
    if _is_normalized(factors, norms, b.order):
        return NormalizedForm(b, restrictions)
    if b.order == 2:
        new = _svd_rebuild(b)
    else:
        new = _rebalance(factors, norms)
    split = len(b.predictor_factors)
    return NormalizedForm(CpCoefficients(new[:split], new[split:]), restrictions)


def _is_normalized(factors, norms, order) -> bool:
    rank = factors[0].shape[1]
    scale = norms.max(axis=0)
    spread = norms.max(axis=0) - norms.min(axis=0)
    if np.any(spread > _NORM_TOL * np.maximum(scale, 1.0)):
        return False
    lead = norms[0]
    if np.any(lead[1:] > lead[:-1] * (1.0 + _NORM_TOL) + _NORM_TOL):
        return False
    first = factors[0]
    for r in range(rank):
        col = first[:, r]
        if scale[r] == 0.0:
            continue
        if col[np.argmax(np.abs(col))] < 0.0:
            return False
    if order == 2:
        for f in factors:
            g = f.T @ f
            off = g - np.diag(np.diag(g))
            bound = _NORM_TOL * np.maximum(np.outer(norms.max(axis=0), norms.max(axis=0)), 1.0)
            if np.any(np.abs(off) > bound):
                return False
    return True


def _rebalance(factors, norms):
    rank = factors[0].shape[1]
    k = len(factors)
    scale = norms.prod(axis=0) ** (1.0 / k)
    order_idx = np.argsort(-scale, kind="stable")
    new = []
    for row, f in enumerate(factors):
        cols = f[:, order_idx] * (scale[order_idx] / norms[row, order_idx])
        new.append(cols)
    _fix_signs(new)
    return new


def _svd_rebuild(b: CpCoefficients):
    rank = b.rank
    mat = b.materialize().array
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = min(rank, s.size)
    roots = np.sqrt(s[:keep])
    left = np.zeros((mat.shape[0], rank))
    right = np.zeros((mat.shape[1], rank))
    left[:, :keep] = u[:, :keep] * roots
    right[:, :keep] = vt[:keep].T * roots
    new = [left, right]
    _fix_signs(new)
    return new


def _fix_signs(factors) -> None:
    first, last = factors[0], factors[-1]
    for r in range(first.shape[1]):
        col = first[:, r]
        peak = np.argmax(np.abs(col))
        if col[peak] < 0.0:
            first[:, r] = -col
            last[:, r] = -last[:, r]
