"""Seeded data generators and the factorial study harness.

Datasets follow the generative model Y = <X, B>_L + E with standard
normal ingredients: X, the factor matrices behind B, and E are all drawn
iid N(0,1) (optionally with exponential spatial correlation over a 2-mode
grid), and B is rescaled by the exact scalar that pins the realized
signal-to-noise power ratio ||<X,B>||_F^2 / ||E||_F^2 at the requested
value.  run_cell evaluates one (generator, estimator) pairing over
replicates: fit, out-of-sample relative prediction error on a fresh test
set from the same B, and posterior-interval coverage and length.
run_grid drives many cells, optionally in parallel, and the results land
in a flat CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import CpCoefficients
from .fitting import _POTRF, FitConfig, _check_seed, fit, predict
from .posterior import GibbsConfig, _interval_scores, _predictive_intervals, gibbs
# module globals that perfbench's traced runs rebind to timing wrappers
from .posterior import credible_intervals, posterior_predictive  # noqa: F401
from .tensors import DenseTensor, _check_kinds, _is_kind

__all__ = [
    "SimSpec",
    "ExperimentCell",
    "GridCell",
    "simulate",
    "correlated_field",
    "rpe",
    "run_cell",
    "run_grid",
    "expand_grid",
    "write_results_csv",
]

_CORRELATIONS = ("none", "corr_x", "corr_e")

# per-replicate substream tags used by run_cell
_DATA, _FIT, _TEST, _CHAIN, _PRED = range(5)


@dataclass(frozen=True)
class SimSpec:
    """One generative scenario.

    rank 0 means no signal (B = 0, snr ignored).  correlation selects
    exponential spatial correlation with adjacent-cell correlation rho for
    the predictor slices (corr_x, needs 2 predictor modes) or the error
    slices (corr_e, needs 2 outcome modes).  out_dims, keyword-only,
    defaults to a scalar response.  A field of the wrong type raises
    TypeError and one out of range ValueError, each naming the field.
    """

    n: int
    in_dims: tuple
    out_dims: tuple = field(default=(), kw_only=True)
    rank: int
    snr: float = 1.0
    seed: int = 0
    correlation: str = "none"
    rho: float = 0.6

    def __post_init__(self):
        _check_kinds(self)
        for name in ("in_dims", "out_dims"):
            dims = getattr(self, name)
            if not (isinstance(dims, (list, tuple)) and all(_is_kind(d, int) for d in dims)):
                raise TypeError(f"{name} must be a list of integers, got {dims!r}")
            object.__setattr__(self, name, tuple(int(d) for d in dims))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.in_dims:
            raise ValueError("at least one predictor mode is required")
        if any(d < 1 for d in self.in_dims + self.out_dims):
            raise ValueError("dims must be positive")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        _check_seed(self.seed)
        if not (np.isfinite(self.snr) and self.snr > 0.0):
            raise ValueError("snr must be positive")
        if self.correlation not in _CORRELATIONS:
            raise ValueError(f"correlation must be one of {_CORRELATIONS}")
        if self.correlation == "corr_x" and len(self.in_dims) != 2:
            raise ValueError("corr_x needs exactly two predictor modes")
        if self.correlation == "corr_e" and len(self.out_dims) != 2:
            raise ValueError("corr_e needs exactly two outcome modes")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")


@dataclass(frozen=True)
class GridCell:
    """One (scenario, estimation procedure) pairing for run_grid.

    A setting of the wrong type raises TypeError here and one out of range
    ValueError, each naming the setting, before any cell runs.
    """

    spec: SimSpec
    fit_rank: int
    lam: float
    replicates: int
    test_n: int = 500
    gibbs_samples: int = 1000

    def __post_init__(self):
        _check_kinds(self)
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.test_n < 1:
            raise ValueError("test_n must be positive")
        if self.gibbs_samples < 0:
            raise ValueError("gibbs_samples must be non-negative")
        if self.gibbs_samples == 1:
            raise ValueError("gibbs_samples must be 0 or at least 2: an interval needs two draws")
        FitConfig(rank=self.fit_rank, lam=self.lam)


@dataclass
class ExperimentCell:
    """Aggregated metrics of one cell.

    Per-replicate values are kept alongside the means; standard errors are
    of the mean across replicates.  Interval metrics are NaN when the cell
    ran with gibbs_samples = 0.  iterations_values and converged_values
    hold each replicate fit's sweep count and whether it converged before
    max_iters.
    """

    spec: SimSpec
    fit_rank: int
    lam: float
    replicates: int
    rpe: float
    rpe_se: float
    coverage_rate: float
    coverage_se: float
    mean_interval_length: float
    length_se: float
    rpe_values: tuple
    coverage_values: tuple
    length_values: tuple
    iterations_values: tuple
    converged_values: tuple


def _grid_chol(dims, rho: float) -> np.ndarray:
    """Cholesky factor of the exponential covariance on a 2-D unit grid.

    Cells are enumerated first-index-fastest; the covariance between two
    cells at Euclidean distance d is rho**d, so adjacent cells correlate
    at exactly rho and the marginal variance is 1.
    """
    d1, d2 = dims
    ci = np.tile(np.arange(d1), d2)
    cj = np.repeat(np.arange(d2), d1)
    dist = np.hypot(ci[:, None] - ci[None, :], cj[:, None] - cj[None, :])
    cov = rho ** dist
    low, info = _POTRF(cov, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return low


def correlated_field(dims, rho: float, rng: np.random.Generator) -> DenseTensor:
    """One zero-mean unit-variance Gaussian field on a 2-mode grid.

    Correlation decays exponentially in Euclidean distance and equals rho
    between adjacent cells.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2 or any(d < 1 for d in dims):
        raise ValueError("the field needs exactly two positive grid dims")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    return DenseTensor(_field_slices(1, dims, rho, rng)[0])


def _field_slices(n: int, dims, rho: float, rng: np.random.Generator) -> np.ndarray:
    """n independent correlated fields stacked along a leading mode."""
    low = _grid_chol(dims, rho)
    z = rng.standard_normal((n, low.shape[0]))
    flat = z @ low.T
    return np.moveaxis(flat.T.reshape(dims + (n,), order="F"), 2, 0)


def _draw_slices(n, dims, rng, correlated, rho) -> np.ndarray:
    if correlated:
        return _field_slices(n, dims, rho, rng)
    return rng.standard_normal((n,) + tuple(dims))


def simulate(spec: SimSpec):
    """Generate one dataset; returns (x, y, true_b).

    x has iid (or spatially correlated) standard normal entries, the
    factors behind B are iid standard normal, and B is scaled so that the
    signal-to-noise power ratio equals spec.snr exactly.  rank 0 returns
    true_b = None and y equal to the error array.
    """
    rng = np.random.default_rng(spec.seed)
    xarr = _draw_slices(spec.n, spec.in_dims, rng, spec.correlation == "corr_x", spec.rho)
    x = DenseTensor(xarr)
    if spec.rank == 0:
        earr = _draw_slices(spec.n, spec.out_dims, rng, spec.correlation == "corr_e", spec.rho)
        return x, DenseTensor(earr), None
    x1 = xarr.reshape(spec.n, -1, order="F")
    for attempt in range(3):
        pred = [rng.standard_normal((d, spec.rank)) for d in spec.in_dims]
        out = [rng.standard_normal((d, spec.rank)) for d in spec.out_dims]
        b = CpCoefficients(pred, out)
        signal1 = x1 @ b.matricize()
        sig_ss = float(np.sum(signal1 * signal1))
        if sig_ss > 0.0:
            break
    else:
        raise RuntimeError("signal was identically zero in 3 attempts")
    earr = _draw_slices(spec.n, spec.out_dims, rng, spec.correlation == "corr_e", spec.rho)
    err_ss = float(np.sum(earr * earr))
    c = float(np.sqrt(spec.snr * err_ss / sig_ss))
    pred[0] = c * pred[0]
    true_b = CpCoefficients(pred, out)
    yarr = (c * signal1).reshape((spec.n,) + spec.out_dims, order="F") + earr
    return x, DenseTensor(yarr), true_b


def _test_set(spec: SimSpec, true_b, n: int, rng: np.random.Generator):
    """Fresh (x, y) from the same coefficients, per the study design."""
    xarr = _draw_slices(n, spec.in_dims, rng, spec.correlation == "corr_x", spec.rho)
    earr = _draw_slices(n, spec.out_dims, rng, spec.correlation == "corr_e", spec.rho)
    if true_b is None:
        return DenseTensor(xarr), DenseTensor(earr)
    x1 = xarr.reshape(n, -1, order="F")
    signal1 = x1 @ true_b.matricize()
    yarr = signal1.reshape((n,) + spec.out_dims, order="F") + earr
    return DenseTensor(xarr), DenseTensor(yarr)


def rpe(y_new: DenseTensor, y_hat: DenseTensor) -> float:
    """Relative prediction error ||y_new - y_hat||_F^2 / ||y_new||_F^2."""
    if y_new.dims != y_hat.dims:
        raise ValueError(f"dims {y_new.dims} and {y_hat.dims} do not match")
    denom = float(np.sum(y_new.array ** 2))
    if denom == 0.0:
        raise ValueError("reference response has zero norm")
    return float(np.sum((y_new.array - y_hat.array) ** 2)) / denom


def _substream_int(seed: int, rep: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, rep, tag)).generate_state(1)[0])


def _substream_rng(seed: int, rep: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, rep, tag)))


def _mean_se(values: np.ndarray):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else float("nan")
    return mean, se


def run_cell(
    spec: SimSpec,
    fit_rank: int,
    lam: float,
    replicates: int,
    test_n: int = GridCell.test_n,
    gibbs_samples: int = GridCell.gibbs_samples,
    level: float = GibbsConfig.credible_level,
) -> ExperimentCell:
    """Evaluate one estimation procedure on replicated datasets.

    Per replicate: simulate a training set, fit at (fit_rank, lam), draw a
    fresh test set from the same coefficients and record the relative
    prediction error; then, unless gibbs_samples is 0, sample the
    posterior and record coverage and mean length (relative to the test
    response's standard deviation) of the per-cell credible intervals.
    Replicate k of a cell reuses the data substream (spec.seed, k, ...)
    regardless of fit_rank and lam, so procedures share datasets.
    """
    GridCell(spec, fit_rank, lam, replicates, test_n, gibbs_samples)  # checks the settings
    rpes, covers, lengths, sweeps, converged = [], [], [], [], []
    for rep in range(replicates):
        data_spec = replace(spec, seed=_substream_int(spec.seed, rep, _DATA))
        x, y, true_b = simulate(data_spec)
        cfg = FitConfig(rank=fit_rank, lam=lam, seed=_substream_int(spec.seed, rep, _FIT))
        res = fit(x, y, cfg)
        sweeps.append(res.iterations)
        converged.append(res.converged)
        x_new, y_new = _test_set(spec, true_b, test_n, _substream_rng(spec.seed, rep, _TEST))
        rpes.append(rpe(y_new, predict(x_new, res)))
        if gibbs_samples > 0:
            gcfg = GibbsConfig(
                rank=fit_rank,
                n_samples=gibbs_samples,
                lam=lam,
                seed=_substream_int(spec.seed, rep, _CHAIN),
                credible_level=level,
            )
            draws = gibbs(x, y, gcfg, mode_fit=res)
            lo, hi = _predictive_intervals(x_new, draws, _substream_rng(spec.seed, rep, _PRED), level)
            cover, length = _interval_scores(y_new, lo, hi)
            covers.append(cover)
            lengths.append(length)
    rpes = np.array(rpes)
    rpe_mean, rpe_se = _mean_se(rpes)
    if covers:
        cov_mean, cov_se = _mean_se(np.array(covers))
        len_mean, len_se = _mean_se(np.array(lengths))
    else:
        cov_mean = cov_se = len_mean = len_se = float("nan")
    return ExperimentCell(
        spec=spec,
        fit_rank=fit_rank,
        lam=lam,
        replicates=replicates,
        rpe=rpe_mean,
        rpe_se=rpe_se,
        coverage_rate=cov_mean,
        coverage_se=cov_se,
        mean_interval_length=len_mean,
        length_se=len_se,
        rpe_values=tuple(rpes.tolist()),
        coverage_values=tuple(covers),
        length_values=tuple(lengths),
        iterations_values=tuple(sweeps),
        converged_values=tuple(converged),
    )


def _run_one(cell: GridCell):
    try:
        out = run_cell(
            cell.spec,
            cell.fit_rank,
            cell.lam,
            cell.replicates,
            test_n=cell.test_n,
            gibbs_samples=cell.gibbs_samples,
        )
        return cell, out, None
    except Exception as exc:  # per-cell failures are recorded, not fatal
        return cell, None, f"{type(exc).__name__}: {exc}"


def run_grid(cells, max_workers: int = 1):
    """Evaluate many cells; returns [(cell, result or None, error or None)].

    Results keep the input order.  With max_workers > 1 the cells run in
    a process pool; they are independent, so any schedule gives the same
    table.
    """
    cells = list(cells)
    if max_workers > 1 and len(cells) > 1:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_run_one, cells))
    return [_run_one(c) for c in cells]


def expand_grid(grid: dict) -> list:
    """Turn a factorial grid description into a list of GridCells.

    Required keys: n, snr, true_ranks (scenario factors, lists), in_dims,
    out_dims, fit_ranks, lambdas (procedure factors, lists), replicates,
    seed.  Optional: test_n and gibbs_samples (GridCell's defaults),
    correlation and rho (SimSpec's defaults).  Every procedure applied to
    scenario i shares the scenario's derived seed, so all procedures see
    the same datasets.  A factor key that holds no list raises TypeError.
    Before any cell is built, the config field that a key sets checks each
    of its values; a refusal keeps the config's error type and message,
    prefixed with the key and the value.  SimSpec's rule that ties
    correlation to the dims applies as the cells are built.
    """
    missing = [k for k in _GRID_FIELDS if k not in grid and k not in _GRID_OPTIONS]
    if missing:
        raise ValueError(f"grid is missing keys: {missing}")
    unknown = set(grid) - set(_GRID_FIELDS)
    if unknown:
        raise ValueError(f"grid has unknown keys: {sorted(unknown)}")
    for key in _GRID_FACTORS:
        if not isinstance(grid[key], (list, tuple)):
            raise TypeError(f"grid key {key!r} must be a list, got {grid[key]!r}")
    for key in grid:
        config, name = _GRID_FIELDS[key]
        for value in grid[key] if key in _GRID_FACTORS else [grid[key]]:
            try:
                replace(_GRID_BASES[config], **{name: value})
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"grid key {key!r} holds {value!r}: {exc}") from None
    # an option is passed only when given, so GridCell and SimSpec keep their defaults
    spec_options = {key: grid[key] for key in ("correlation", "rho") if key in grid}
    cell_options = {key: grid[key] for key in ("test_n", "gibbs_samples") if key in grid}
    cells = []
    scenario = 0
    for n in grid["n"]:
        for snr in grid["snr"]:
            for rank in grid["true_ranks"]:
                seed = int(np.random.SeedSequence((grid["seed"], scenario)).generate_state(1)[0])
                spec = SimSpec(n=n, in_dims=grid["in_dims"], out_dims=grid["out_dims"], rank=rank,
                               snr=snr, seed=seed, **spec_options)
                for fit_rank in grid["fit_ranks"]:
                    for lam in grid["lambdas"]:
                        cells.append(GridCell(spec=spec, fit_rank=fit_rank, lam=lam,
                                              replicates=grid["replicates"], **cell_options))
                scenario += 1
    return cells


# each grid key and the config field whose rules its values follow (seed is
# the root of the scenario seeds); the keys of _GRID_OPTIONS may be left
# out, and the factor keys hold lists of values
_GRID_FIELDS = {
    "n": (SimSpec, "n"), "snr": (SimSpec, "snr"), "true_ranks": (SimSpec, "rank"),
    "in_dims": (SimSpec, "in_dims"), "out_dims": (SimSpec, "out_dims"),
    "fit_ranks": (GridCell, "fit_rank"), "lambdas": (GridCell, "lam"),
    "replicates": (GridCell, "replicates"), "seed": (SimSpec, "seed"),
    "test_n": (GridCell, "test_n"), "gibbs_samples": (GridCell, "gibbs_samples"),
    "correlation": (SimSpec, "correlation"), "rho": (SimSpec, "rho"),
}
_GRID_OPTIONS = ("test_n", "gibbs_samples", "correlation", "rho")
_GRID_FACTORS = ("n", "snr", "true_ranks", "fit_ranks", "lambdas")
# one valid config of each kind, on which a grid value is checked alone; its
# two 2-mode dims let either correlation pass
_GRID_BASES = {SimSpec: SimSpec(n=1, in_dims=(1, 1), out_dims=(1, 1), rank=1)}
_GRID_BASES[GridCell] = GridCell(_GRID_BASES[SimSpec], fit_rank=1, lam=0.0, replicates=1)


_CSV_COLUMNS = [
    "n", "in_dims", "out_dims", "rank", "snr", "seed", "correlation", "rho",
    "fit_rank", "lam", "row", "rpe", "coverage", "length", "note",
    "iterations", "converged",
]


def _dims_str(dims) -> str:
    return "x".join(map(str, dims)) if dims else "-"


def write_results_csv(results, path: str) -> None:
    """Flat CSV: one row per replicate plus mean/se rows per cell.

    Failed cells appear as a single row with row=error and the message in
    the note column.  The trailing iterations and converged columns give
    each replicate fit's sweep count and convergence flag; they are blank
    on mean, se and error rows.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, _CSV_COLUMNS, restval="")
        writer.writeheader()
        for cell, out, err in results:
            spec = cell.spec
            head = {"n": spec.n, "in_dims": _dims_str(spec.in_dims), "out_dims": _dims_str(spec.out_dims),
                    "rank": spec.rank, "snr": spec.snr, "seed": spec.seed, "correlation": spec.correlation,
                    "rho": spec.rho, "fit_rank": cell.fit_rank, "lam": cell.lam}
            if err is not None:
                writer.writerow({**head, "row": "error", "note": err})
                continue
            for k in range(out.replicates):
                writer.writerow({**head, "row": k, "rpe": out.rpe_values[k],
                                 "coverage": out.coverage_values[k] if out.coverage_values else "",
                                 "length": out.length_values[k] if out.length_values else "",
                                 "iterations": out.iterations_values[k], "converged": out.converged_values[k]})
            writer.writerow({**head, "row": "mean", "rpe": out.rpe, "coverage": out.coverage_rate,
                             "length": out.mean_interval_length})
            writer.writerow({**head, "row": "se", "rpe": out.rpe_se, "coverage": out.coverage_se,
                             "length": out.length_se})
