"""Reference constructions the tests check the library against.

Nothing here is collected as a test.  Each function builds, from the
definitions, a quantity the library computes by a faster route:

- `fit_augmented_oracle` realizes the ridge penalty by appending
  sqrt(lambda) times identity slices to X and zero slices to Y, then runs
  unpenalized sweeps.  It drives the fitting module's schedule, start
  values and sweep state itself, so it shares the update algebra with
  `fit` but not the loop under test;
- `build_design_predictor` and `build_design_outcome` give the explicit
  design matrices whose normal equations the mode updates solve;
- `gram_hadamard` gives the Gram matrix the ridge penalty adds to one
  mode's update, as a product of the other modes' factor Grams;
- `conditional_covariance` gives the dense covariance of a full
  conditional;
- `nuclear_balance` gives both sides of the order-2 norm-balance identity;
- `reduced_rank_ridge` gives the global minimum of the penalized objective
  over coefficient matrices of rank at most R, the least value `fit` can
  reach;
- `stacked_draws` builds the `PosteriorDraws` of a list of coefficient
  sets, one stack per mode, as the chain would hold them;
- `mwt2_bytes` gives a version-2 .mwt file from its dims and payload
  bytes, spelled out from the format's definition.
"""

from dataclasses import replace
from functools import reduce
from math import prod
from zlib import crc32

import numpy as np
import scipy.linalg

from mwreg import CpCoefficients, DenseTensor, FitConfig, FitResult, center
from mwreg.fitting import (
    _init_factors,
    _lambda_schedule,
    _SweepState,
    _Workspace,
)
from mwreg.posterior import FactorConditional, PosteriorDraws


def gram_hadamard(b: CpCoefficients, skip: int) -> np.ndarray:
    """Entrywise product of b's factor Gram matrices, mode skip left out.

    skip indexes the concatenated factor list, predictor modes first.  The
    result equals D^T D where D has the vectorized skip-omitted rank-1
    terms as columns.
    """
    out = np.ones((b.rank, b.rank))
    for k, f in enumerate(b.factors):
        if k != skip:
            out = out * (f.T @ f)
    return out


def augment_arrays(xarr: np.ndarray, yarr: np.ndarray, lam: float):
    """x with sqrt(lam) times identity slices appended, y with zero slices."""
    in_dims = xarr.shape[1:]
    p = prod(in_dims)
    slices = np.sqrt(lam) * np.eye(p).reshape((p,) + in_dims, order="F")
    xa = np.concatenate([xarr, slices], axis=0)
    ya = np.concatenate([yarr, np.zeros((p,) + yarr.shape[1:])], axis=0)
    return xa, ya


def _oracle_als(ws: _Workspace, cfg: FitConfig, start: int, augment: bool) -> FitResult:
    """One seeded run of `fit`'s annealed sweeps, each on lambda_t-augmented data."""
    state = _SweepState(ws, *_init_factors(cfg, ws.in_dims, ws.out_dims, start))
    schedule = _lambda_schedule(cfg)
    yy = float(np.vdot(ws.y1, ws.y1))
    trace, subtrace = [], []
    converged = False
    prev = None
    aws, aws_lam = None, None
    for it in range(cfg.max_iters):
        annealing = it < len(schedule)
        lam_t = schedule[it] if annealing else cfg.lam
        uws, ulam = ws, lam_t
        if augment and lam_t:
            # the same sweep on lambda_t-augmented data with no penalty
            if aws_lam != lam_t:
                aws, aws_lam = _Workspace(*augment_arrays(ws.xarr, ws.yarr, lam_t)), lam_t
            uws, ulam = aws, 0.0
        # a state's products are those of its workspace: the oracle updates
        # on augmented data and evaluates its objective on the plain data
        if state.ws is not uws:
            state = _SweepState(uws, state.pred, state.out)
        gains = state.sweep(ulam, cfg.lam, lambda mode, mean, low: mean)
        plain = state if state.ws is ws else _SweepState(ws, state.pred, state.out)
        obj = plain.objective(cfg.lam)
        trace.append(obj)
        if not annealing:
            # the appended rows of Y are zero, so ||Y||^2 - rhs^T sol holds too
            subtrace += [yy - gain for gain in gains]
            if prev is not None and prev - obj <= cfg.rel_tol * max(1.0, abs(prev)):
                converged = True
                break
            prev = obj
    return FitResult(coefficients=CpCoefficients(state.pred, state.out), objective_trace=trace,
                     substep_trace=subtrace, converged=converged, iterations=len(trace),
                     x_offsets=None, y_offsets=None)


def fit_augmented_oracle(x: DenseTensor, y: DenseTensor, cfg: FitConfig) -> FitResult:
    """Reference fit that realizes the ridge penalty by data augmentation.

    Runs plain least-squares sweeps on data augmented at each sweep's
    annealed lambda, which is algebraically the same update as `fit`.
    Initialization, annealing, centering, best-of-starts and the reported
    objective trace follow `fit`, so paired runs agree sweep by sweep.
    With lam=0 the augmentation is skipped and the run is identical to
    `fit`.  Small instances only: the augmented X has prod(in_dims) extra
    slices.
    """
    x_off = y_off = None
    if cfg.center_data:
        x, y, (x_off, y_off) = center(x, y)
    ws = _Workspace(x.array, y.array)
    best = None
    for start in range(cfg.n_starts):
        # lam=0 slices are all zero, so the plain sweeps solve the same problem
        result = _oracle_als(ws, cfg, start, augment=cfg.lam > 0.0)
        if best is None or result.objective_trace[-1] < best.objective_trace[-1]:
            best = result
    return replace(best, x_offsets=x_off, y_offsets=y_off)


def build_design_predictor(x: DenseTensor, b: CpCoefficients, mode: int) -> np.ndarray:
    """Explicit design matrix C (N*Q x R*P_mode) for one predictor mode.

    Block r holds the contraction of X with the mode-omitted rank-1 term of
    component r, unfolded so that C @ vec(U_mode) = vec(<X, B>_L).  Built
    definitionally (outer products, tensordot, unfold); the fitting loop
    assembles C^T C without materializing C.
    """
    L = len(b.predictor_factors)
    if not 0 <= mode < L:
        raise ValueError(f"predictor mode {mode} out of range for {L} modes")
    if x.dims[1:] != b.in_dims:
        raise ValueError(f"x trailing dims {x.dims[1:]} do not match coefficients {b.in_dims}")
    xp = np.moveaxis(x.array, 1 + mode, 1)
    pl = b.in_dims[mode]
    others = [f for k, f in enumerate(b.predictor_factors) if k != mode]
    blocks = []
    for r in range(b.rank):
        cols = [f[:, r] for f in others] + [f[:, r] for f in b.outcome_factors]
        if cols:
            rank1 = reduce(np.multiply.outer, cols)
            cr = np.tensordot(xp, rank1, axes=L - 1)
        else:
            cr = xp
        blocks.append(np.moveaxis(cr, 1, 0).reshape(pl, -1, order="F").T)
    return np.hstack(blocks)


def build_design_outcome(x: DenseTensor, b: CpCoefficients) -> np.ndarray:
    """Explicit design matrix D (N * prod(Q_1..Q_{M-1}) x R) for the last outcome mode.

    Column r is the vectorization of the contraction of X with the rank-1
    term of component r taken over all predictor modes and all outcome
    modes but the last; the last outcome factor solves R separate
    regressions of the correspondingly unfolded response on D.
    """
    if not b.outcome_factors:
        raise ValueError("the outcome design needs at least one outcome mode")
    if x.dims[1:] != b.in_dims:
        raise ValueError(f"x trailing dims {x.dims[1:]} do not match coefficients {b.in_dims}")
    L = len(b.predictor_factors)
    cols = []
    for r in range(b.rank):
        parts = [f[:, r] for f in b.predictor_factors] + [
            f[:, r] for f in b.outcome_factors[:-1]
        ]
        rank1 = reduce(np.multiply.outer, parts)
        dr = np.tensordot(x.array, rank1, axes=L)
        cols.append(np.asarray(dr).ravel(order="F"))
    return np.column_stack(cols)


def conditional_covariance(cond: FactorConditional) -> np.ndarray:
    """Dense covariance of the stacked factor entries of a full conditional.

    sigma2 * S^{-1} for a predictor mode; for an outcome mode the rows are
    independent, which gives sigma2 * (A^{-1} (x) I).
    """
    low = cond.system_chol
    inv = scipy.linalg.cho_solve((low, True), np.eye(low.shape[0]), check_finite=False)
    if cond.is_outcome:
        return cond.sigma2 * np.kron(inv, np.eye(cond.mean.shape[0]))
    return cond.sigma2 * inv


def nuclear_balance(b: CpCoefficients) -> tuple:
    """Both sides of the order-2 norm-balance identity.

    For an order-2 coefficient set with orthogonal factor columns, the sum
    of squared factor Frobenius norms equals twice the nuclear norm of the
    materialized matrix.  Returns (sum of squared factor norms, twice the
    nuclear norm); raises if the input is not order 2 or not orthogonal.
    """
    if b.order != 2:
        raise ValueError("norm balance is defined for order-2 coefficients")
    for f in b.factors:
        g = f.T @ f
        norms = np.sqrt(np.diag(g))
        bound = 1e-8 * np.maximum(np.outer(norms, norms), 1e-300)
        off = g - np.diag(np.diag(g))
        if np.any(np.abs(off) > bound):
            raise ValueError("factor columns must be orthogonal; pass through normalize first")
    sum_sq = sum(float(np.sum(f * f)) for f in b.factors)
    nuclear = float(np.linalg.svd(b.materialize().array, compute_uv=False).sum())
    return sum_sq, 2.0 * nuclear


def reduced_rank_ridge(x: np.ndarray, y: np.ndarray, lam: float, rank: int) -> tuple:
    """Global minimizer of ||y - x B||_F^2 + lam ||B||_F^2 over rank(B) <= rank.

    x is (N, P) and y (N, Q).  The penalty is least squares on the
    augmented rows [x; sqrt(lam) I] and [y; 0], so the minimizer is the
    reduced-rank regression of the augmented data (Mukherjee & Zhu 2011):
    the ridge solution B_R projected onto the top `rank` right singular
    vectors of its augmented fit [x B_R; sqrt(lam) B_R].  Returns
    (B, objective).  A CP coefficient array of rank R matricizes to a
    matrix of rank at most R, so with x and y the mode-1 unfoldings the
    objective is a lower bound on any fit of that rank, and equals the
    least objective when both sides are of order 1.
    """
    p = x.shape[1]
    xa = np.vstack([x, np.sqrt(lam) * np.eye(p)])
    ya = np.vstack([y, np.zeros((p, y.shape[1]))])
    b_ridge = np.linalg.lstsq(xa, ya, rcond=None)[0]
    vt = np.linalg.svd(xa @ b_ridge, full_matrices=False)[2]
    b = b_ridge @ vt[:rank].T @ vt[:rank]
    resid = y - x @ b
    return b, float(np.sum(resid * resid) + lam * np.sum(b * b))


def stacked_draws(sets, sigma2s, mode: FitResult) -> PosteriorDraws:
    """The draws whose draw t is sets[t] with sigma2s[t]; no sets give no stacks."""
    return PosteriorDraws(
        [np.stack(fs) for fs in zip(*(b.predictor_factors for b in sets))],
        [np.stack(fs) for fs in zip(*(b.outcome_factors for b in sets))],
        sigma2s,
        mode,
    )


def mwt2_bytes(dims, payload: bytes) -> bytes:
    """A version-2 .mwt file: "mwt 2", the order and the dims as text lines,
    the payload, then "end " and the payload's CRC-32 as 8 lowercase hex digits.

    The payload of a tensor t is t.array.ravel(order="F").astype("<f8").tobytes().
    """
    header = f"mwt 2\n{len(dims)}\n{' '.join(str(d) for d in dims)}\n".encode()
    return header + payload + f"end {crc32(payload):08x}\n".encode()
