"""Gibbs sampling for the posterior over factors and noise variance.

The likelihood is Y = <X, B>_L + E with iid N(0, sigma^2) errors, the
prior on each factor is the Gaussian implied by the ridge penalty at the
given lambda (flat when lambda = 0), and sigma^2 carries the scale prior
1/sigma^2.  Each factor's full conditional is normal with the penalized
least-squares update as its mean, so an iteration runs the fitting
module's sweep, on one shared sweep state, and takes a draw where ALS
takes the mean; sigma^2 given the rest is inverse gamma.  The chain
starts at the posterior mode, the penalized least-squares solution, so
no burn-in is needed by default.

A chain is a `PosteriorDraws`: one stacked array per mode plus the
sigma^2 draws, checked once when it is built.  Predictions from it go
through `fitting.predict`'s tiled code, with its bits and its centering
offsets, one 16-row prediction tile of test rows at a time; the noise is
read in observation-major order, so the numbers do not depend on the
tiles.  `posterior_predictive` returns them all as one (draws, N,
*out_dims) array; `simulation.run_cell` and `mwreg gibbs` take intervals
through a fused routine that sorts each tile's block where it was built,
holding one or two blocks of draws x 16 rows x cells values at a time.
`dic` reads the draws' predictions a batch at a time.

The predictive noise is drawn one block ahead on a helper thread where
the process may use more than one CPU, with the bits of an inline run;
`_noise_blocks` says how.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .coefficients import CpCoefficients
from .fitting import (
    FitConfig,
    FitResult,
    SingularSystemError,
    _check_lam,
    _checked_state,
    _Predictions,
    _SweepState,
    _Workspace,
    _lapack_routines,
    fit,
)
from .tensors import DenseTensor, _check_kinds, _frozen

__all__ = [
    "GibbsConfig",
    "PosteriorDraws",
    "FactorConditional",
    "DegeneratePosteriorError",
    "draw_sigma2",
    "conditional_factor_params",
    "gibbs",
    "posterior_predictive",
    "credible_intervals",
    "dic",
]

_CHAIN_STREAM = 1
# LAPACK's triangular solve for the factor draws, looked up once
(_TRTRS,) = _lapack_routines(("trtrs",))

# response cells whose draws `credible_intervals` transposes and sorts at once
_INTERVAL_BLOCK = 128


class DegeneratePosteriorError(RuntimeError):
    """A full conditional has collapsed to a point or lost propriety."""


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings.

    n_samples is the number of retained draws after burn_in, keeping every
    thin-th iteration.  rank and lam describe the model whose posterior is
    sampled; the chain initializes at the matching penalized least-squares
    solution, so the burn_in default is 0.  The sampler does not read
    credible_level; it is checked here for callers that form intervals at
    that level.  Retained draws are the chain's states as they are;
    `normalize` identifies one where a factor summary needs it.  Every
    setting is type- and range-checked here, rank, lam and seed by FitConfig,
    and the command line reports these checks' messages.
    """

    rank: int
    n_samples: int = 1000
    lam: float = 0.0
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    credible_level: float = 0.95
    center_data: bool = True

    def __post_init__(self):
        _check_kinds(self)
        FitConfig(rank=self.rank, lam=self.lam, seed=self.seed)
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if not 0.0 < self.credible_level < 1.0:
            raise ValueError("credible_level must be in (0, 1)")


class PosteriorDraws:
    """Retained chain states plus the mode fit the chain started from.

    predictor_factors and outcome_factors hold one read-only stack per
    mode, (draws, P_l, R) or (draws, Q_m, R); draw t is entry t of every
    stack with sigma2s[t], and predictions reuse the mode's centering
    offsets.  Construction is the one check of a chain: at least one draw,
    stacks of the mode's dims and rank, finite factors and one finite
    positive sigma2 per draw.
    """

    def __init__(self, predictor_factors, outcome_factors, sigma2s, mode: FitResult):
        self.predictor_factors = tuple(map(_frozen, predictor_factors))
        self.outcome_factors = tuple(map(_frozen, outcome_factors))
        self.sigma2s = _frozen(sigma2s)
        self.mode = mode
        b = mode.coefficients
        stacks = self.predictor_factors + self.outcome_factors
        n = len(stacks[0]) if stacks else 0
        if not n:
            raise ValueError("draws are empty")
        shapes = [s.shape for s in stacks]
        if (len(self.predictor_factors) != len(b.in_dims)
                or shapes != [(n, d, b.rank) for d in b.in_dims + b.out_dims]):
            raise ValueError(
                f"factor stacks of shapes {shapes} are not {n} draws of the mode's "
                f"{b.in_dims} -> {b.out_dims} at rank {b.rank}"
            )
        if self.sigma2s.shape != (n,):
            raise ValueError(f"{self.sigma2s.size} sigma2 values for {n} draws")
        if not np.all(np.isfinite(self.sigma2s) & (self.sigma2s > 0.0)):
            raise ValueError("sigma2 values must be finite and positive")
        if not all(np.isfinite(s).all() for s in stacks):
            raise ValueError("factor matrices must be finite")

    def __len__(self) -> int:
        return len(self.sigma2s)

    @cached_property
    def coefficients(self) -> tuple:
        """One CpCoefficients per draw, built on first use."""
        n_pred = len(self.predictor_factors)
        return tuple(CpCoefficients(fs[:n_pred], fs[n_pred:])
                     for fs in zip(*self.predictor_factors, *self.outcome_factors))


@dataclass(frozen=True)
class FactorConditional:
    """Gaussian full conditional of one factor matrix.

    mean is factor-shaped.  For a predictor mode the covariance of the
    stacked factor (column-major, entries of each component contiguous) is
    sigma2 * S^{-1} with S = system_chol @ system_chol.T; for an outcome
    mode the rows of the factor are independent with shared row covariance
    sigma2 * A^{-1}, A likewise held by its Cholesky factor.  system_chol
    is the lower factor LAPACK's potrf returns for the mode update, and
    `sample` solves against it with LAPACK's trtrs directly.
    """

    mean: np.ndarray
    system_chol: np.ndarray
    sigma2: float
    is_outcome: bool

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One factor draw: mean plus sigma * L^{-T} z."""
        return _draw(self.mean, self.system_chol, float(np.sqrt(self.sigma2)), self.is_outcome, rng)


def _draw(mean, low, sd: float, is_outcome: bool, rng) -> np.ndarray:
    """`FactorConditional.sample` with sd = sqrt(sigma2), for it and the chain."""
    # an outcome draw solves for all rows at once and is C-ordered, a
    # predictor draw for the stacked factor and is Fortran-ordered
    z = rng.standard_normal(mean.shape if is_outcome else mean.size)
    pert, info = _TRTRS(low, z.T if is_outcome else z, lower=1, trans=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    if info > 0:
        raise SingularSystemError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if is_outcome:
        return mean + sd * pert.T
    return mean + sd * pert.reshape(mean.shape, order="F")


def draw_sigma2(x: DenseTensor, y: DenseTensor, b: CpCoefficients, rng) -> float:
    """One draw of the noise variance given the coefficients.

    The full conditional under the 1/sigma^2 scale prior is inverse gamma
    with shape N*Q/2 and rate ||Y - <X,B>||_F^2 / 2.
    """
    state = _checked_state(x, y, b)
    return _draw_sigma2_rss(state.rss(), state.ws.n * state.ws.q, rng)


def _draw_sigma2_rss(rss: float, nq: int, rng: np.random.Generator) -> float:
    if not np.isfinite(rss):
        raise DegeneratePosteriorError(
            "residual sum of squares is not finite; the variance conditional is undefined"
        )
    if not rss > 0.0:
        raise DegeneratePosteriorError(
            "residual sum of squares is zero; the variance conditional is degenerate"
        )
    return float(1.0 / rng.gamma(0.5 * nq, 2.0 / rss))


def conditional_factor_params(
    x: DenseTensor,
    y: DenseTensor,
    b: CpCoefficients,
    mode: int,
    lam: float,
    sigma2: float,
) -> FactorConditional:
    """Mean and covariance factorization of one factor's full conditional.

    mode indexes the concatenated factor list (predictor modes first).
    The mean equals the penalized least-squares update of that factor; the
    covariance is sigma2 times the inverse of the update's system matrix
    (Kronecker-expanded over rows for outcome modes).
    """
    state = _checked_state(x, y, b)
    if not 0 <= mode < b.order:
        raise ValueError(f"mode {mode} out of range for order {b.order}")
    _check_lam(lam)
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError("sigma2 must be finite and non-negative")
    mean, low, _ = state.update(mode, lam, lam)
    return FactorConditional(mean, low, float(sigma2), mode >= len(state.pred))


def gibbs(
    x: DenseTensor,
    y: DenseTensor,
    cfg: GibbsConfig,
    mode_fit: FitResult | None = None,
) -> PosteriorDraws:
    """Run one chain and return the retained draws.

    The chain starts at the penalized least-squares solution (computed
    here unless a mode_fit of cfg's rank and centering is supplied) and
    per iteration draws sigma^2, then each predictor factor, then each
    outcome factor from their full conditionals.  Fixed seeds give
    identical draw sequences.  PosteriorDraws checks the draws; a factor
    that overflows mid-chain fails the next step with a numerical error.
    """
    if mode_fit is None:
        mode_fit = fit(x, y, FitConfig(rank=cfg.rank, lam=cfg.lam, seed=cfg.seed,
                                       center_data=cfg.center_data))
    b0 = mode_fit.coefficients
    if b0.rank != cfg.rank:
        raise ValueError(f"mode fit has rank {b0.rank} but cfg.rank is {cfg.rank}")
    if (mode_fit.x_offsets is not None) != cfg.center_data:
        raise ValueError(f"mode fit is {'un' * cfg.center_data}centered but cfg.center_data is {cfg.center_data}")
    # checked before _Workspace removes the offsets, which would broadcast a size-1 mode
    if x.dims[1:] != b0.in_dims or y.dims[1:] != b0.out_dims:
        raise ValueError("data dims do not match the mode fit's coefficients")
    ws = _Workspace(x.array, y.array, mode_fit.x_offsets, mode_fit.y_offsets)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _CHAIN_STREAM)))
    state = _SweepState(ws, [f.copy() for f in b0.predictor_factors],
                        [f.copy() for f in b0.outcome_factors])
    nq = ws.n * ws.q
    # every stack is a C-ordered (draws, R, rows) array, a draws file's value
    # order, seen as (draws, rows, R)
    stacks = [np.empty((cfg.n_samples, cfg.rank, d)).transpose(0, 2, 1)
              for d in ws.in_dims + ws.out_dims]
    sigma2s = np.empty(cfg.n_samples)
    for it in range(1, cfg.burn_in + cfg.n_samples * cfg.thin + 1):
        sigma2 = _draw_sigma2_rss(state.rss(), nq, rng)
        sd = float(np.sqrt(sigma2))
        state.sweep(cfg.lam, cfg.lam,
                    lambda mode, mean, low: _draw(mean, low, sd, mode >= state.n_pred, rng))
        k = it - cfg.burn_in
        if k > 0 and k % cfg.thin == 0:
            t = k // cfg.thin - 1
            for stack, f in zip(stacks, state.pred + state.out):
                stack[t] = f
            sigma2s[t] = sigma2
    return PosteriorDraws(stacks[:state.n_pred], stacks[state.n_pred:], sigma2s, mode_fit)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _noise_blocks(rng, sd: np.ndarray, spans, cells: int):
    """Yield (r0, r1, noise) per span (r0, r1) of consecutive rows from row 0.

    A block holds rng.standard_normal's next (rows, cells, draws) values
    times sd, the draws' noise scales, and keeps them until the caller asks
    for the next block.  A C-ordered fill reads the stream row by row, so
    the numbers do not depend on the spans.

    With one usable CPU the blocks are filled inline, in one buffer.
    Otherwise a one-worker executor fills block k + 1 into a second buffer
    while the caller holds block k, and is the only user of rng meanwhile:
    numpy releases the GIL while it fills normals, multiplies matrices and
    sorts, so the fill overlaps the caller's work, and the stream is read
    in the same order, so the numbers are those of the inline fills.
    `Future.result` raises a failed fill's error here.  Leaving the
    executor (the end, an error or the generator's close) waits for a
    fill still running and drops its result, so no helper outlives the
    generator and none is alive when `simulation.run_grid` forks its
    workers.  After an error or a close, rng may have run up to one block
    past the last one yielded.
    """
    threaded = _usable_cpus() > 1
    shape = (max(r1 - r0 for r0, r1 in spans), cells, sd.size)
    buffers = [np.empty(shape) for _ in range(2 if threaded else 1)]

    def fill(k):
        r0, r1 = spans[k]
        block = buffers[k % len(buffers)][:r1 - r0]
        rng.standard_normal(out=block)
        block *= sd
        return r0, r1, block

    if not threaded:
        for k in range(len(spans)):
            yield fill(k)
        return
    # imported here: a command that forms no intervals never loads concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="mwreg-predictive-noise") as helper:
        ahead = helper.submit(fill, 0)
        for k in range(1, len(spans)):
            block = ahead.result()
            ahead = helper.submit(fill, k)
            yield block
        yield ahead.result()


def _predictive_blocks(x_new: DenseTensor, draws: PosteriorDraws, rng):
    """Predictive values of x_new's rows, a prediction tile of rows at a time.

    Yields (r0, r1, block) per tile, block of shape (r1 - r0, cells, draws):
    the point prediction of each draw (`fitting.predict`'s bits, offsets
    reapplied) plus its noise.  Cells are in first-index-fastest order.
    The noise is sqrt(sigma2_t) times rng.standard_normal((N, cells,
    draws)), read in row order, so the tiles do not change it.
    `_noise_blocks` draws it, and a block holds its values until the next
    one is asked for; callers close the generator on every way out.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    preds = _Predictions(x_new, draws.predictor_factors, draws.outcome_factors, draws.mode)
    with closing(_noise_blocks(rng, np.sqrt(draws.sigma2s), preds.spans,
                               prod(preds.out_dims))) as noise:
        for r0, r1, block in noise:
            # noise + prediction has the bits of prediction + noise
            for t0, t1, _, _, pm in preds.tiles([(r0, r1)]):
                block[:, :, t0:t1] += pm.transpose(1, 2, 0)
            if not np.isfinite(block).all():
                raise ValueError("predictive draws must be finite")
            yield r0, r1, block


def posterior_predictive(
    x_new: DenseTensor, draws: PosteriorDraws, rng
) -> np.ndarray:
    """One response draw per retained sample, with fresh Gaussian noise.

    Returns an array of shape (draws, N, *out_dims) whose row t is the
    point prediction under sample t's coefficients (centering offsets
    reapplied) plus iid N(0, sigma2_t) noise.  The noise is read in
    observation-major order: sqrt(sigma2_t) times entry (n, c, t) of
    rng.standard_normal((N, cells, draws)), with the cells c of a response
    in first-index-fastest order.
    """
    out_dims = draws.mode.coefficients.out_dims
    m = len(out_dims)
    stack = np.empty((len(draws), x_new.dims[0]) + out_dims)
    # a block's (rows, *reversed out_dims, sets) axes in the stack's order
    to_stack = (m + 1, 0) + tuple(range(m, 0, -1))
    with closing(_predictive_blocks(x_new, draws, rng)) as blocks:
        for r0, r1, block in blocks:
            by_mode = block.reshape((r1 - r0,) + out_dims[::-1] + (block.shape[-1],))
            stack[:, r0:r1] = by_mode.transpose(to_stack)
    return stack


def _interval_checks(n_draws: int, level: float) -> None:
    if n_draws < 2:
        raise ValueError("need at least two draws for an interval")
    if not 0.0 <= level < 1.0:
        raise ValueError("level must be in [0, 1)")


def _dic_checks(n_draws: int) -> None:
    if n_draws < 2:
        raise ValueError("need at least two draws")


def _sorted_ends(block: np.ndarray, level: float) -> np.ndarray:
    """Equal-tailed interval ends of each row of a (cells, draws) block.

    Sorts block in place and returns (cells, 2) lower and upper ends, the
    (1-level)/2 and 1-(1-level)/2 quantiles of np.quantile's default linear
    method: the order statistics around the virtual index (n - 1) * q,
    interpolated exactly as numpy's _lerp does.
    """
    n = block.shape[1]
    alpha = 0.5 * (1.0 - level)
    virtual = (n - 1) * np.array([alpha, 1.0 - alpha])
    below = np.floor(virtual).astype(np.intp)
    above = np.minimum(below + 1, n - 1)
    gamma = virtual - below
    block.sort(axis=1)
    a, b = block[:, below], block[:, above]
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    return q


def credible_intervals(draws: np.ndarray, level: float = 0.95):
    """Equal-tailed empirical interval per response cell.

    draws is an array of shape (draws, *dims), usually from
    posterior_predictive; returns (lo, hi) DenseTensors of shape dims
    holding the (1-level)/2 and 1-(1-level)/2 sample quantiles cell-wise.
    The quantiles equal np.quantile's over the first axis bit for bit;
    they are taken over transposed copies of blocks of cells instead of a
    copy of all draws.
    """
    stack = np.asarray(draws, dtype=float)
    if stack.ndim < 2 or stack.size == 0:
        raise ValueError("draws must be a non-empty array of shape (draws, *dims)")
    _interval_checks(stack.shape[0], level)
    cells = stack.reshape(stack.shape[0], -1)
    ends = np.empty((cells.shape[1], 2))
    for c0 in range(0, cells.shape[1], _INTERVAL_BLOCK):
        # a copy even when the transposed slice is contiguous: the sort is in place
        block = cells[:, c0:c0 + _INTERVAL_BLOCK].T.copy()
        if not np.isfinite(block).all():
            raise ValueError("draws must be finite")
        ends[c0:c0 + _INTERVAL_BLOCK] = _sorted_ends(block, level)
    lo, hi = ends.T.reshape((2,) + stack.shape[1:])
    return DenseTensor(lo), DenseTensor(hi)


def _predictive_intervals(x_new: DenseTensor, draws: PosteriorDraws, rng, level: float):
    """credible_intervals(posterior_predictive(x_new, draws, rng), level), bit for bit.

    Each block of predictive values is sorted where it was built, so no
    (draws, N, *out_dims) array exists.  The draw count and the level are
    checked before any prediction, so they are reported ahead of its faults.
    """
    n, out_dims = x_new.dims[0], draws.mode.coefficients.out_dims
    _interval_checks(len(draws), level)
    ends = np.empty((n, prod(out_dims), 2))
    with closing(_predictive_blocks(x_new, draws, rng)) as blocks:
        for r0, r1, block in blocks:
            ends[r0:r1] = _sorted_ends(block.reshape(-1, block.shape[-1]),
                                       level).reshape(r1 - r0, -1, 2)
    # cells are in first-index-fastest order, as an order="F" reshape reads them
    lo, hi = (ends[..., k].reshape((n,) + out_dims, order="F") for k in (0, 1))
    return DenseTensor(np.ascontiguousarray(lo)), DenseTensor(np.ascontiguousarray(hi))


def _interval_scores(y: DenseTensor, lo: DenseTensor, hi: DenseTensor) -> tuple:
    """(share of y's cells inside their interval, mean length over y's standard deviation)."""
    ya = y.array
    covered = (ya >= lo.array) & (ya <= hi.array)
    return float(covered.mean()), float((hi.array - lo.array).mean() / ya.std())


def dic(x: DenseTensor, y: DenseTensor, draws: PosteriorDraws) -> float:
    """Deviance information criterion over the retained draws.

    Deviance is -2 log N(Y | prediction, sigma2 I).  Returns Dbar + pD
    where Dbar is the posterior mean deviance and pD = Dbar minus the
    deviance at the posterior mean prediction and posterior mean sigma2.
    The draws' predictions are taken a batch at a time; their mean adds
    them in draw order, as a mean over the first axis of a stack of all of
    them does, so it has that mean's bits.
    """
    _dic_checks(len(draws))
    preds = _Predictions(x, draws.predictor_factors, draws.outcome_factors, draws.mode)
    yarr = y.array
    if yarr.shape != (preds.n,) + preds.out_dims:
        raise ValueError(
            f"y dims {yarr.shape} do not match predictions {(preds.n,) + preds.out_dims}"
        )
    nq = yarr.size
    devs = np.empty(preds.sets)
    total = np.zeros(yarr.shape)
    for t0, _, batch in preds.batches():
        for t, pred in enumerate(batch, t0):
            rss = float(np.sum((yarr - pred) ** 2))
            s2 = draws.sigma2s[t]
            devs[t] = nq * np.log(2.0 * np.pi * s2) + rss / s2
            total += pred
    dbar = float(devs.mean())
    mean_pred = total / preds.sets
    mean_s2 = float(draws.sigma2s.mean())
    rss_hat = float(np.sum((yarr - mean_pred) ** 2))
    dhat = nq * np.log(2.0 * np.pi * mean_s2) + rss_hat / mean_s2
    return 2.0 * dbar - dhat
