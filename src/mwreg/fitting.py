"""Penalized alternating least squares for low-rank multiway regression.

The model is Y = <X, B>_L + E with B held in CP form at rank R, fitted by
minimizing ||Y - <X, B>_L||_F^2 + lambda * ||B||_F^2.  Each factor update
solves its ridge subproblem exactly, so at fixed lambda a full sweep never
increases the penalized objective.  The penalty is annealed down from a
large start value over the first sweeps, which keeps early iterations away
from degenerate configurations, then held at its target until the
objective stabilizes.  `fit` keeps the best of several seeded runs of
one sweep loop, and `predict` and the posterior's point predictions share
one prediction function.

The objective after a factor update comes free from the update's normal
equations S sol = rhs: it is ||Y||^2 - rhs^T sol.  The sub-step trace
records that value, equal to the explicit objective up to round-off of order
eps * ||Y||^2; the residual is rebuilt once per sweep, for the explicit
sweep-end objective that the convergence test and best-of-starts use.

The mode systems are assembled without dense Kronecker products, and the
Cholesky factorization and solves call LAPACK directly, because the
sampler rebuilds and solves one system per factor on every iteration.
The LAPACK wrappers are bound from scipy's compiled `_flapack` extension
without importing `scipy.linalg`, which took about half the time of
`import mwreg`; `_lapack_routines` binds them for the whole package.
A sweep of ALS and an iteration of the sampler run one mode loop over one
sweep state.  It owns the current factors and, in plain attributes that
setting a factor resets to None, the products derived from them: Gram
matrices; the outcome Khatri-Rao product and its products with Y; Z_l,
the predictor data contracted with every predictor factor but mode l's,
for the last predictor mode l; and T = X1 KR(predictor factors), summed
from that Z_l and mode l's factor.  So a sweep reads X once per predictor
mode and never forms the Khatri-Rao product of all predictor factors.
At low ranks the fixed cost of each numpy call sets a system's time, so a
system is assembled in few calls.  Each product has one builder, which a
sweep and a one-off call share.  BLAS results depend on operand layout,
so that sharing is what gives a sweep the bits of products built anew for
each call; T agrees with the direct product X1 KR(predictor factors) to
round-off only.
The public single-step functions build a fresh state per call.
The prediction code evaluates many coefficient sets through stacked
matrix products that repeat each set's own products bit for bit, on row
tiles at fixed offsets, so a row's prediction has the same bits whichever
rows a caller asks for.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .coefficients import CpCoefficients
from .tensors import DenseTensor, _check_kinds, _khatri_rao

__all__ = [
    "FitConfig",
    "FitResult",
    "SingularSystemError",
    "center",
    "objective",
    "update_predictor_factor",
    "update_outcome_factor",
    "fit",
    "predict",
]

_FIT_STREAM = 0
# the annealed penalty starts this many times above max(lam, 1)
_ANNEAL_START = 100.0


def _flapack_path():
    """Path of scipy's compiled double-precision LAPACK extension, or None."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _lapack_routines(names):
    """The double-precision LAPACK wrappers of `scipy.linalg.get_lapack_funcs`.

    names are LAPACK routine names without their type prefix, such as
    "potrf".  The wrappers are bound from scipy's compiled `_flapack`
    extension, loaded without running `scipy/linalg/__init__.py`.  They
    wrap the compiled routines that `get_lapack_funcs` returns for float64
    arrays, so every call has the same bits.  Where that extension cannot
    be found or loaded, they come from `get_lapack_funcs` itself.
    """
    path = _flapack_path()
    if path is not None:
        try:
            spec = importlib.util.spec_from_file_location("mwreg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return tuple(getattr(module, "d" + name) for name in names)
        except (ImportError, AttributeError):
            pass
    from scipy.linalg import get_lapack_funcs

    return tuple(get_lapack_funcs(names, (np.empty((1, 1)),)))


# double-precision LAPACK routines, looked up once instead of per solve
_POTRF, _POTRS = _lapack_routines(("potrf", "potrs"))

# smallest squared Cholesky pivot, relative to its diagonal entry, that
# `_spd_solve` accepts in an unpenalized problem.  Exactly singular Gram
# systems that potrf accepted on round-off reached 4e-9 in random trials;
# the fits and chains of the full-factorial study cells in perfbench
# (8 seeds) stayed above 1e-5.
_PIVOT_FLOOR = 1e-8

# coefficient sets per stacked matmul in `_Predictions`
_PREDICTION_BATCH = 32
# rows per prediction tile.  BLAS kernels block the rows of a product, so
# a row's bits can depend on which rows share the call.  Tiles on a fixed
# grid of 16-row offsets fix which rows share each call, so a row's bits do
# not depend on the rows asked for.  They need not equal the bits of one
# product over all rows: for some shapes they differ (15x20 -> 5x10 at
# rank 1 on 467 rows, for one), and a larger tile can change them
_PREDICTION_ROWS = 16


class SingularSystemError(np.linalg.LinAlgError):
    """A mode's least-squares subproblem has no unique solution."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for `fit`.

    rank is the CP rank R of the coefficient array and lam the ridge
    penalty.  The penalty is annealed geometrically over the first
    anneal_steps sweeps starting at 100 * max(lam, 1); a lam of 0 instead
    descends from an absolute 1.0 to 0.01 over those sweeps and then drops
    to 0.
    Convergence is declared when the relative drop of the penalized
    objective between post-annealing sweeps falls below rel_tol.  Factors
    start as seeded standard normals; n_starts > 1 reruns from fresh seeds
    and keeps the best final objective.  Every setting is type- and
    range-checked here, and the command line reports these checks' messages.
    """

    rank: int
    lam: float = 0.0
    max_iters: int = 500
    rel_tol: float = 1e-8
    anneal_steps: int = 10
    seed: int = 0
    center_data: bool = True
    n_starts: int = 1

    def __post_init__(self):
        _check_kinds(self)
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        _check_lam(self.lam)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.anneal_steps < 0:
            raise ValueError("anneal_steps must be non-negative")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """The one rule on a seed: numpy's `SeedSequence` takes no negative entropy."""
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _check_lam(lam: float) -> None:
    """The one rule on a ridge penalty, shared by the configs and single steps."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and non-negative")


@dataclass
class FitResult:
    """Output of `fit`.

    objective_trace holds the penalized objective at the target lambda
    after each sweep, evaluated explicitly from the residual.
    substep_trace holds the same quantity after every individual factor
    update once annealing has finished, taken from the update's normal
    equations as ||Y||^2 - rhs^T sol; it equals the explicit objective up
    to round-off of order eps * ||Y||^2 and is non-increasing up to
    that round-off.  converged tells whether the
    relative-drop test passed before max_iters, and iterations counts the
    sweeps run.  Offsets are None when the data were not centered.
    """

    coefficients: CpCoefficients
    objective_trace: list
    substep_trace: list
    converged: bool
    iterations: int
    x_offsets: np.ndarray | None
    y_offsets: np.ndarray | None


def center(x: DenseTensor, y: DenseTensor):
    """Remove per-cell means over the observation mode.

    Returns (centered x, centered y, (x offsets, y offsets)); the offsets
    have the trailing dims of x and y.  Requires at least two observations.
    """
    ws = _Workspace(x.array, y.array, *_means(x.array, y.array))
    return DenseTensor._adopt(ws.xarr), DenseTensor._adopt(ws.yarr), (ws.x_offsets, ws.y_offsets)


def _means(xarr: np.ndarray, yarr: np.ndarray) -> tuple:
    """The per-cell means over the observation mode, the offsets that centering removes."""
    if xarr.shape[0] < 2:
        raise ValueError("centering needs at least two observations")
    return xarr.mean(axis=0), yarr.mean(axis=0)


# =====================================================================
# cached unfoldings and the mode-wise normal-equation systems
# =====================================================================


class _Workspace:
    """Unfoldings of one dataset, cached per mode.

    The one check that x and y have the same observation count, and the
    one place training data are centered: x_offsets and y_offsets, when
    given, are removed from every observation first.
    """

    def __init__(self, xarr: np.ndarray, yarr: np.ndarray, x_offsets=None, y_offsets=None):
        if xarr.shape[0] != yarr.shape[0]:
            raise ValueError(
                f"x has {xarr.shape[0]} observations but y has {yarr.shape[0]}"
            )
        self.x_offsets, self.y_offsets = x_offsets, y_offsets
        if x_offsets is not None:
            xarr, yarr = xarr - x_offsets, yarr - y_offsets
            # a mean of huge values, or a difference from one, can overflow
            if not (np.isfinite(xarr).all() and np.isfinite(yarr).all()):
                raise ValueError("tensor values must be finite")
        self.xarr = xarr
        self.yarr = yarr
        self.n = xarr.shape[0]
        self.in_dims = xarr.shape[1:]
        self.out_dims = yarr.shape[1:]
        self.q = prod(self.out_dims) if self.out_dims else 1
        self.y1 = yarr.reshape(self.n, self.q, order="F")
        self._x_by_mode = {}
        self._y_by_mode = {}

    def x_by_mode(self, l: int) -> np.ndarray:
        # (prod of other predictor dims, N * P_l), C-ordered, observation
        # index fastest along a row: the operand of `_SweepState`'s Z_l
        if l not in self._x_by_mode:
            moved = np.moveaxis(self.xarr, 1 + l, 1)
            unfolded = moved.reshape(self.n * self.in_dims[l], -1, order="F").T
            self._x_by_mode[l] = np.ascontiguousarray(unfolded)
        return self._x_by_mode[l]

    def y_by_mode(self, m: int) -> np.ndarray:
        # (Q_m, N * prod of other outcome dims)
        if m not in self._y_by_mode:
            moved = np.moveaxis(self.yarr, 1 + m, 0)
            self._y_by_mode[m] = moved.reshape(self.out_dims[m], -1, order="F")
        return self._y_by_mode[m]


def _kr(factors, ones: np.ndarray) -> np.ndarray:
    # one factor in C order, `_khatri_rao`'s copy's layout; readers never write it
    if len(factors) > 1:
        return _khatri_rao(factors)
    return np.ascontiguousarray(factors[0]) if factors else ones


class _SweepState:
    """The current factors of a sweep and the products derived from them.

    One state is bound to one workspace and owns the factor lists; modes
    index the concatenated list, predictor modes first.  Each product is
    built on first use by the one method that builds it, and kept until
    `set_factor` resets it to None: grams[k] = f^T f when factor k changes;
    kr_out, V = KR(outcome factors) or the ones row, with V^T V and
    (Y1 V)^T in kr_out_gram and y_kr_out, when an outcome factor does;
    z_last, the `_predictor_z` of the last predictor mode, when another
    predictor factor does; and x_kr_pred, T^T = (X1 KR(predictor
    factors))^T taken from z_last and the last predictor factor, with
    x_kr_pred_gram = T^T T, when any predictor factor does.  So a sweep
    reads X once per predictor mode, and a kept product has the bits of
    one that the same method builds anew.  Each mode's other factors and
    penalty Gram modes, and a read-only ones row, are fixed at
    construction, and so is refusal: the reason no update can solve at
    this rank, or None.
    """

    def __init__(self, ws: _Workspace, pred, out):
        self.ws = ws
        self.pred = list(pred)
        self.out = list(out)
        self.n_pred = n_pred = len(self.pred)
        self.rank = self.pred[0].shape[1]
        self.refusal = _rank_limit_message(self.rank, ws.in_dims, ws.out_dims)
        self.ones = np.ones((1, self.rank))
        self.ones.setflags(write=False)
        self._others = ([[k for k in range(n_pred) if k != l] for l in range(n_pred)]
                        + [[k for k in range(len(out)) if k != m] for m in range(len(out))])
        self._penalty_modes = [list(range(n_pred)) + [n_pred + k for k in others]
                               for others in self._others[n_pred:]]
        self.grams = [None] * len(self._others)
        self.kr_out = self.kr_out_gram = self.y_kr_out = None
        self.z_last = self.x_kr_pred = self.x_kr_pred_gram = None

    def set_factor(self, mode: int, f: np.ndarray) -> None:
        """Replace one factor and drop the products that depend on it."""
        if mode < self.n_pred:
            self.pred[mode] = f
            self.x_kr_pred = self.x_kr_pred_gram = None
            if mode < self.n_pred - 1:
                self.z_last = None
        else:
            self.out[mode - self.n_pred] = f
            self.kr_out = self.kr_out_gram = self.y_kr_out = None
        self.grams[mode] = None

    def _gram(self, mode: int) -> np.ndarray:
        g = self.grams[mode]
        if g is None:
            f = self.pred[mode] if mode < self.n_pred else self.out[mode - self.n_pred]
            g = self.grams[mode] = f.T @ f
        return g

    def _gram_product(self, modes, g=None) -> np.ndarray:
        # g * G_k * ... in mode order; g=None starts at the first G, as ones would (1.0 * G == G)
        for k in modes:
            g = self._gram(k) if g is None else g * self._gram(k)
        return g

    def _outcome_products(self):
        if self.kr_out is None:
            v = self.kr_out = _kr(self.out, self.ones)
            self.kr_out_gram, self.y_kr_out = v.T @ v, v.T @ self.ws.y1.T
        return self.kr_out, self.kr_out_gram, self.y_kr_out

    def _predictor_z(self, l: int) -> np.ndarray:
        """Z_l = KR(other predictor factors)^T X_(l), a C-ordered (R, P_l, N) array.

        Z_l[r, p, n] is observation n's predictor at index p of mode l,
        contracted with component r's rank-1 term over the other predictor
        modes.  Its (R * P_l, N) view is the transposed design of mode l's
        system, blocked by component, which the Gram and the right-hand
        side read as it is.  The last mode's Z is kept in z_last.
        """
        if l == self.n_pred - 1 and self.z_last is not None:
            return self.z_last
        ws = self.ws
        kr = _kr([self.pred[k] for k in self._others[l]], self.ones)
        z = (kr.T @ ws.x_by_mode(l)).reshape(self.rank, ws.in_dims[l], ws.n)
        if l == self.n_pred - 1:
            self.z_last = z
        return z

    def _x_kr(self) -> np.ndarray:
        # T^T, (R, N): T[n, r] = sum_p Z[r, p, n] U[p, r] over the last
        # predictor mode; U^T is made C-ordered so its layout never picks the kernel
        if self.x_kr_pred is None:
            u = np.ascontiguousarray(self.pred[-1].T)
            self.x_kr_pred = np.matmul(u[:, None, :], self._predictor_z(self.n_pred - 1))[:, 0]
        return self.x_kr_pred

    def predictor_system(self, l: int, lam: float):
        """Normal equations (S, rhs) for predictor mode l.

        S = C^T C + lam * (G (x) I) and rhs = C^T vec(Y) where C is the
        design matrix whose block r holds X contracted with the mode-omitted
        rank-1 term of component r, so that C vec(U_l) = vec(<X, B>); the
        flat index is p + P_l * r, i.e. blocked by component.  C^T C =
        (W^T W) * (V^T V (x) 1) with W^T the (R * P_l, N) view of Z_l, so
        both Kronecker products are applied in place on the (R, P_l, R, P_l)
        view of W^T W instead of being built; rhs stacks Z_l[r] (Y1 V)[:, r].
        """
        ws, rank, others = self.ws, self.rank, self._others[l]
        pl = ws.in_dims[l]
        z = self._predictor_z(l)
        wt = z.reshape(rank * pl, ws.n)
        _, vgram, v_y = self._outcome_products()
        s = wt @ wt.T
        s4 = s.reshape(rank, pl, rank, pl)
        s4 *= vgram[:, None, :, None]
        if lam:
            g = self._gram_product(others, vgram)
            row, col = s.strides  # s4's entries (r, p, r', p) as an (R, R, P_l) view of s
            diag = np.ndarray((rank, rank, pl), buffer=s, strides=(pl * row, pl * col, row + col))
            diag += (lam * g)[:, :, None]
        rhs = np.matmul(z, v_y[:, :, None]).reshape(-1)
        return s, rhs

    def outcome_system(self, m: int, lam: float):
        """Normal equations (A, rhs) for outcome mode m.

        A = D^T D + lam * G (R x R) and rhs = D^T Ym^T (R x Q_m) where
        column r of D is X contracted with the rank-1 term of component r
        over every mode but outcome mode m.
        """
        ws, rank, others = self.ws, self.rank, self._others[self.n_pred + m]
        tt = self._x_kr()
        if self.x_kr_pred_gram is None:
            self.x_kr_pred_gram = tt @ tt.T
        wq = _kr([self.out[k] for k in others], self.ones)
        a = self.x_kr_pred_gram * (wq.T @ wq)
        if lam:
            a += lam * self._gram_product(self._penalty_modes[m])
        # t * ones is t; more factors fill the Fortran-ordered buffer that an
        # order="F" reshape of the (N, rows, R) product would
        d = t = tt.T
        if others:
            d = np.empty((ws.n * wq.shape[0], rank), order="F")
            np.multiply(t[:, None, :], wq[None, :, :], out=d.reshape(ws.n, -1, rank, order="F"))
        return a, (ws.y_by_mode(m) @ d).T

    def update(self, mode: int, lam: float, problem_lam: float):
        """(new factor, Cholesky factor of the system, rhs^T sol) of one mode.

        The sampler's full conditionals reuse the first two.  As
        S sol = rhs, the objective right after the update is
        ||Y||^2 - 2 rhs^T sol + sol^T S sol = ||Y||^2 - rhs^T sol.
        problem_lam is the penalty the singular message reports against.
        A rank above some mode's limit is refused before any system is built.
        """
        if self.refusal:
            raise SingularSystemError(self.refusal)
        if mode < self.n_pred:
            s, rhs = self.predictor_system(mode, lam)
            sol, low = _spd_solve(s, rhs, problem_lam)
            return sol.reshape(self.ws.in_dims[mode], self.rank, order="F"), low, float(rhs @ sol)
        a, rhs = self.outcome_system(mode - self.n_pred, lam)
        sol, low = _spd_solve(a, rhs, problem_lam)
        return sol.T, low, float(np.vdot(rhs, sol))

    def sweep(self, lam: float, problem_lam: float, take) -> list:
        """Replace every factor in turn, predictor modes first.

        take(mode, mean, low) gives the new factor from the update's mean
        and the Cholesky factor of its system: the mean itself in ALS, a
        draw from the full conditional in the sampler.  Returns each
        update's rhs^T sol.
        """
        gains = []
        for mode in range(len(self.grams)):
            mean, low, gain = self.update(mode, lam, problem_lam)
            self.set_factor(mode, take(mode, mean, low))
            gains.append(gain)
        return gains

    def rss(self) -> float:
        """||Y - <X, B>||_F^2 of the current factors."""
        resid = self.ws.y1 - self._x_kr().T @ self._outcome_products()[0].T
        resid *= resid
        return float(resid.sum())

    def objective(self, lam: float) -> float:
        """The penalized objective, lam * ||B||_F^2 from the all-mode Gram product."""
        rss = self.rss()
        return rss + lam * float(self._gram_product(range(len(self.grams))).sum()) if lam else rss


def _rank_limit_message(rank: int, in_dims, out_dims):
    """Why no update can solve at this rank, or None when every mode's system can be definite.

    Mode l's factor enters B only through U_l KR(other factors)^T, whose
    Khatri-Rao product has one row per coefficient cell outside mode l.
    With more components than that it has a null vector c, and U_l + z c^T
    gives the same B, residual and penalty for every z.
    """
    dims = (*in_dims, *out_dims)
    cells = [prod(dims) // d for d in dims]
    mode = cells.index(min(cells))
    if rank <= cells[mode]:
        return None
    where = f"predictor mode {mode}" if mode < len(in_dims) else f"outcome mode {mode - len(in_dims)}"
    return (f"rank {rank} is above {cells[mode]}, the number of coefficient cells outside {where}, "
            f"so that mode's subproblem is singular at every penalty; lower the rank")


def _spd_solve(s: np.ndarray, rhs: np.ndarray, lam: float):
    """Solve the SPD system via Cholesky; returns (solution, lower factor).

    s and rhs are left unchanged, and the factor's upper triangle is zero.
    lam is the problem's penalty, which picks the advice of the singular
    message.  While `fit` anneals it differs from the penalty s was built
    with, which is that sweep's lambda_t.
    """
    low, info = _POTRF(s, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    pivots = low.diagonal()
    # Without a penalty, a rank-deficient system can pass potrf on
    # round-off alone, with a squared pivot a tiny fraction of its diagonal
    # entry; the ratio does not change when the system is rescaled by a
    # diagonal matrix.  A penalty keeps the system definite.
    if info > 0 or (lam == 0.0 and (pivots * pivots < _PIVOT_FLOOR * s.diagonal()).any()):
        if lam == 0.0:
            raise SingularSystemError(
                "mode subproblem is singular at lambda=0; "
                "increase the penalty or lower the rank"
            )
        raise SingularSystemError("mode subproblem is numerically singular")
    # OpenBLAS potrf reports success on NaN or inf entries, which reach
    # the factor's diagonal
    if not np.isfinite(pivots).all():
        raise SingularSystemError("mode subproblem is not finite")
    sol, info = _POTRS(low, rhs, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return sol, low


# =====================================================================
# public single-step operations
# =====================================================================


def _checked_state(x: DenseTensor, y: DenseTensor, b: CpCoefficients) -> _SweepState:
    """A fresh sweep state of b's factors on x and y once they fit b's dims."""
    ws = _Workspace(x.array, y.array)
    if ws.in_dims != b.in_dims:
        raise ValueError(f"x trailing dims {ws.in_dims} do not match coefficients {b.in_dims}")
    if ws.out_dims != b.out_dims:
        raise ValueError(f"y trailing dims {ws.out_dims} do not match coefficients {b.out_dims}")
    return _SweepState(ws, b.predictor_factors, b.outcome_factors)


def objective(x: DenseTensor, y: DenseTensor, b: CpCoefficients, lam: float = 0.0) -> float:
    """Penalized residual sum of squares ||Y - <X,B>||_F^2 + lam * ||B||_F^2."""
    state = _checked_state(x, y, b)
    _check_lam(lam)
    return state.objective(lam)


def update_predictor_factor(
    x: DenseTensor, y: DenseTensor, b: CpCoefficients, mode: int, lam: float = 0.0
) -> np.ndarray:
    """Exact ridge update of one predictor factor, all others held fixed."""
    state = _checked_state(x, y, b)
    _check_lam(lam)
    if not 0 <= mode < len(state.pred):
        raise ValueError(f"predictor mode {mode} out of range")
    return state.update(mode, lam, lam)[0]


def update_outcome_factor(
    x: DenseTensor, y: DenseTensor, b: CpCoefficients, mode: int, lam: float = 0.0
) -> np.ndarray:
    """Exact ridge update of one outcome factor, all others held fixed."""
    state = _checked_state(x, y, b)
    _check_lam(lam)
    if not 0 <= mode < len(state.out):
        raise ValueError(f"outcome mode {mode} out of range")
    return state.update(len(state.pred) + mode, lam, lam)[0]


# =====================================================================
# the full fit
# =====================================================================


def _lambda_schedule(cfg: FitConfig):
    steps = cfg.anneal_steps
    if steps == 0:
        return []
    if cfg.lam > 0.0:
        start = _ANNEAL_START * max(cfg.lam, 1.0)
        end = cfg.lam
    else:
        # unpenalized target: decay from absolute 1.0, then drop to 0
        start = 1.0
        end = 1.0 / _ANNEAL_START
    ratio = (end / start) ** (1.0 / steps)
    return [start * ratio ** (i + 1) for i in range(steps)]


def _init_factors(cfg: FitConfig, in_dims, out_dims, start: int):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _FIT_STREAM, start)))
    pred = [rng.standard_normal((d, cfg.rank)) for d in in_dims]
    out = [rng.standard_normal((d, cfg.rank)) for d in out_dims]
    return pred, out


def _als(ws: _Workspace, cfg: FitConfig, start: int) -> FitResult:
    """One seeded run of annealed sweeps; the result carries no offsets."""
    state = _SweepState(ws, *_init_factors(cfg, ws.in_dims, ws.out_dims, start))
    schedule = _lambda_schedule(cfg)
    yy = float(np.vdot(ws.y1, ws.y1))
    trace, subtrace = [], []
    converged = False
    prev = None
    for it in range(cfg.max_iters):
        annealing = it < len(schedule)
        gains = state.sweep(schedule[it] if annealing else cfg.lam, cfg.lam,
                            lambda mode, mean, low: mean)
        obj = state.objective(cfg.lam)
        trace.append(obj)
        if not annealing:
            subtrace += [yy - gain for gain in gains]
            if prev is not None and prev - obj <= cfg.rel_tol * max(1.0, abs(prev)):
                converged = True
                break
            prev = obj
    return FitResult(coefficients=CpCoefficients(state.pred, state.out), objective_trace=trace,
                     substep_trace=subtrace, converged=converged, iterations=len(trace),
                     x_offsets=None, y_offsets=None)


def _fit_workspace(x: DenseTensor, y: DenseTensor, center_data: bool) -> _Workspace:
    """`fit`'s checks of x and y, and its workspace of them, centered when center_data is set."""
    if x.order < 2:
        raise ValueError("x must have an observation mode plus at least one predictor mode")
    return _Workspace(x.array, y.array, *(_means(x.array, y.array) if center_data else ()))


def fit(x: DenseTensor, y: DenseTensor, cfg: FitConfig) -> FitResult:
    """Fit the rank-R ridge-penalized coefficient array by mode-wise sweeps.

    Keeps the best of cfg.n_starts seeded runs by final objective; the
    first start wins a tie.  Identical data and config give a
    bit-identical result.  Raises SingularSystemError when a lambda=0
    subproblem is rank deficient instead of silently pseudo-inverting, and
    before it builds any mode system when the rank is above the cell count
    of the coefficient array outside some mode, min over l of
    prod_{k != l} d_k, where no penalty makes that mode's subproblem definite.
    """
    ws = _fit_workspace(x, y, cfg.center_data)
    best = None
    for start in range(cfg.n_starts):
        result = _als(ws, cfg, start)
        if best is None or result.objective_trace[-1] < best.objective_trace[-1]:
            best = result
    return replace(best, x_offsets=ws.x_offsets, y_offsets=ws.y_offsets)


class _Predictions:
    """Noiseless predictions of many coefficient sets on the rows of x_new.

    pred and out hold one stack per mode, shape (sets, rows, R), as
    `posterior.PosteriorDraws` keeps them; each is read as a C-ordered
    (sets, R, rows) array, a view when the stack is laid out so, as a
    chain's stacks are.  The one owner of new data's offsets: fitted's,
    when not None, are removed from x_new and added back to every set's
    prediction.  A batch of sets' Khatri-Rao products is formed from the
    stacks, and stacked matmuls give each set exactly the bits of its own
    (X1 KR(pred)) KR(out)^T.  The products run only on the
    row tiles in spans, _PREDICTION_ROWS rows from each multiple of it, so
    a row's bits never depend on the request: `predict`, the
    posterior-predictive blocks and `dic` agree bit for bit.
    """

    def __init__(self, x_new: DenseTensor, pred, out, fitted: FitResult):
        in_dims = tuple(s.shape[1] for s in pred)
        if x_new.dims[1:] != in_dims:
            raise ValueError(f"x trailing dims {x_new.dims[1:]} do not match coefficients {in_dims}")
        self.x, self.x_offsets = x_new, fitted.x_offsets
        self._y_cells = None if fitted.y_offsets is None else fitted.y_offsets.ravel(order="F")
        self.n, self.sets, self.rank = x_new.dims[0], pred[0].shape[0], pred[0].shape[2]
        self.spans = [(s0, min(s0 + _PREDICTION_ROWS, self.n))
                      for s0 in range(0, self.n, _PREDICTION_ROWS)]
        self.out_dims = tuple(s.shape[1] for s in out)
        # contiguous for `_batch_kr`'s elementwise products
        self._pred, self._out = ([np.ascontiguousarray(s.transpose(0, 2, 1)) for s in stacks]
                                 for stacks in (pred, out))

    def tiles(self, spans):
        """Yield (t0, t1, s0, s1, pm) per batch of sets and tile of spans, a sublist of self.spans.

        pm holds the predictions of sets t0..t1 on rows s0..s1 with the y
        offsets, shape (t1 - t0, s1 - s0, cells), cells first-index-fastest.
        """
        # a span's rows are built for the first batch and kept only while
        # another batch follows, so a one-batch call holds one span at a time
        x1s = {}
        for t0 in range(0, self.sets, _PREDICTION_BATCH):
            t1 = min(t0 + _PREDICTION_BATCH, self.sets)
            u = _batch_kr(self._pred, self.rank, t0, t1)
            vt = _batch_kr(self._out, self.rank, t0, t1).transpose(0, 2, 1)
            for s0, s1 in spans:
                x1 = x1s.pop(s0) if t0 else self._rows(s0, s1)
                if t1 < self.sets:
                    x1s[s0] = x1
                pm = (x1 @ u) @ vt
                if self._y_cells is not None:
                    pm += self._y_cells
                yield t0, t1, s0, s1, pm

    def _rows(self, s0: int, s1: int) -> np.ndarray:
        """Rows s0..s1 of x_new, offsets removed, first-index-fastest: shape (s1 - s0, cells)."""
        xa = self.x.array[s0:s1]
        if self.x_offsets is not None:
            xa = xa - self.x_offsets
        return xa.reshape(s1 - s0, -1, order="F")

    def batches(self):
        """Yield (t0, t1, preds) per batch of sets, preds of shape (t1 - t0, N, *out_dims)."""
        out_dims = self.out_dims
        # a C-order (N, Q) row read with reversed outcome modes is its order="F" reshape
        reverse = (0, 1) + tuple(range(len(out_dims) + 1, 1, -1))
        for t0, t1, s0, s1, pm in self.tiles(self.spans):
            if s0 == 0:
                preds = np.empty((t1 - t0, self.n) + out_dims)
            preds[:, s0:s1] = pm.reshape((t1 - t0, s1 - s0) + out_dims[::-1]).transpose(reverse)
            if s1 == self.n:
                yield t0, t1, preds


def _batch_kr(stacks, rank: int, t0: int, t1: int) -> np.ndarray:
    """Khatri-Rao products of sets t0..t1, stacked along a new first axis.

    stacks are (sets, R, rows), C-ordered.  BLAS results depend on operand
    layout, so the layout is fixed: each set's product is a Fortran-ordered
    matrix.  With no factors the ones row is shared.
    """
    if not stacks:
        return np.ones((1, 1, rank))
    # built as (sets, R, rows), later factors' indices slower, then transposed;
    # einsum forms the same products as broadcasting, in fewer inner loops
    kr = stacks[0][t0:t1]
    for nxt in stacks[1:]:
        kr = np.einsum("sri,srj->srij", nxt[t0:t1], kr).reshape(t1 - t0, rank, -1)
    return kr.transpose(0, 2, 1)


def predict(x_new: DenseTensor, result: FitResult) -> DenseTensor:
    """Predicted response <X_new, B> with the fit's centering offsets reapplied."""
    b = result.coefficients
    preds = _Predictions(x_new, [np.stack([f]) for f in b.predictor_factors],
                         [np.stack([f]) for f in b.outcome_factors], result)
    _, _, one = next(preds.batches())
    return DenseTensor._adopt(one[0])
