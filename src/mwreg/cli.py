"""Command-line interface.

Subcommands: fit, predict, gibbs, cv, simulate, experiment.  Every flag
can also be supplied through a config file of key=value lines (keys are
the long flag names with underscores); explicit flags win.  MWR_SEED in
the environment provides the default seed.  Exit codes are stable for
scripting: 0 success, 1 usage, 2 data or shape problems, 3 numerical
failure.  The default and the range of each setting live once, where it
is owned: FitConfig (fit and every cv candidate, all built before cv
prints its header), GibbsConfig (gibbs) and SimSpec (simulate).  A flag
left out takes the config's default, and the command line reports a
failed check as a usage error with the config's own message.  Only the
settings no config holds (--seed, --folds, --parallel) have their
defaults and checks here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .fileio import (
    read_draws,
    read_model,
    read_tensor,
    write_draws,
    write_model,
    write_tensor,
)
from .fitting import FitConfig, SingularSystemError, _rank_limit_message, fit, predict
from .posterior import (DegeneratePosteriorError, GibbsConfig, _dic_checks, _interval_checks,
                        _interval_scores, _predictive_intervals, dic, gibbs)
# module globals that perfbench's traced runs rebind to timing wrappers
from .posterior import credible_intervals, posterior_predictive  # noqa: F401
from .simulation import SimSpec, expand_grid, rpe, run_grid, simulate, write_results_csv
from .tensors import DenseTensor

__all__ = ["main", "entry", "UsageError"]

_PREDICTIVE_STREAM = 2
_FOLD_STREAM = 3


class UsageError(Exception):
    """Bad command line or config: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("MWR_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"MWR_SEED must be an integer, got {raw!r}") from None


def _parse_dims(text: str) -> tuple:
    parts = text.replace("x", ",").split(",")
    try:
        dims = tuple(int(p) for p in parts if p != "")
    except ValueError:
        raise UsageError(f"cannot parse dims from {text!r}") from None
    if not dims:
        raise UsageError(f"cannot parse dims from {text!r}")
    return dims


def _parse_list(text: str, kind, label: str) -> list:
    try:
        return [kind(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"cannot parse {label} list from {text!r}") from None


def _require(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"{flag} is required")
    return value


def _build_parsers():
    parser = _Parser(prog="mwreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    registry = {}

    def add(name, help_text):
        # add_parser reuses the parent class, so errors raise UsageError
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file mirroring the flags")
        registry[name] = p
        return p

    seed = _default_seed()

    p = add("fit", "fit a low-rank coefficient array")
    p.add_argument("--x", help="predictor tensor file")
    p.add_argument("--y", help="response tensor file")
    p.add_argument("--rank", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--out", help="model file to write")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--anneal-steps", type=int)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--restarts", type=int)
    p.set_defaults(func=cmd_fit)

    p = add("predict", "predict responses with a fitted model")
    p.add_argument("--model")
    p.add_argument("--x")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = add("gibbs", "sample the posterior over coefficients and noise")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--rank", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", help="draws file to write")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--x-new", help="predictors to form predictive intervals for")
    p.add_argument("--y-new", help="held-out responses to score coverage against")
    p.add_argument("--intervals-out", help="CSV for the intervals (default stdout)")
    p.add_argument("--dic", action="store_true", help="also report DIC")
    p.set_defaults(func=cmd_gibbs)

    p = add("cv", "cross-validate rank and penalty on one dataset")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--ranks", help="comma-separated candidate ranks")
    p.add_argument("--lambdas", help="comma-separated candidate penalties")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--no-center", action="store_true")
    p.set_defaults(func=cmd_cv)

    p = add("simulate", "generate one dataset from the factorial model")
    p.add_argument("--spec", help="JSON file of generator settings, instead of the flags below")
    p.add_argument("--n", type=int)
    p.add_argument("--in-dims")
    p.add_argument("--out-dims")
    p.add_argument("--rank", type=int)
    p.add_argument("--snr", type=float)
    p.add_argument("--seed", type=int, default=seed,
                   help="ignored with --spec, which uses the file's seed (0 if it has none)")
    p.add_argument("--correlation")
    p.add_argument("--rho", type=float)
    p.add_argument("--out-prefix", help="prefix for the x/y/b tensor files")
    p.set_defaults(func=cmd_simulate)

    p = add("experiment", "run a factorial grid and write the results CSV")
    p.add_argument("--grid", help="JSON grid description")
    p.add_argument("--out", help="results CSV path")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    return parser, registry


def _config_argv(path: str, cmd_parser) -> list:
    out = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        action = cmd_parser._option_string_actions.get(flag)
        if action is None or flag == "--config":
            raise UsageError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        if isinstance(action, argparse._StoreTrueAction):
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                out.append(flag)
            elif low not in ("0", "false", "no", "off"):
                raise UsageError(f"{path}:{lineno}: {key.strip()} must be boolean")
        else:
            out.extend([flag, value])
    return out


def _parse(argv):
    parser, registry = _build_parsers()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (fit, predict, gibbs, cv, simulate, experiment)")
    if getattr(args, "config", None):
        injected = _config_argv(args.config, registry[args.command])
        args = parser.parse_args([argv[0]] + injected + list(argv[1:]))
    return args


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------


def _config(kind, **fields):
    """kind(**fields) without the fields that are None, the flags left out.

    kind gives those fields its own defaults, and its range errors are
    raised as usage errors.
    """
    try:
        return kind(**{name: value for name, value in fields.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_fit(args) -> None:
    x = read_tensor(_require(args, "x", "--x"))
    y = read_tensor(_require(args, "y", "--y"))
    rank = _require(args, "rank", "--rank")
    out = _require(args, "out", "--out")
    cfg = _config(FitConfig, rank=rank, lam=args.lam, max_iters=args.max_iters, rel_tol=args.tol,
                  anneal_steps=args.anneal_steps, seed=args.seed,
                  center_data=not args.no_center, n_starts=args.restarts)
    result = fit(x, y, cfg)
    write_model(out, result, cfg.lam, cfg.seed)
    print(f"objective {result.objective_trace[-1]:.17g}")
    print(f"iterations {result.iterations}")
    print(f"converged {str(result.converged).lower()}")
    print(f"model written to {out}")


def cmd_predict(args) -> None:
    result, _, _ = read_model(_require(args, "model", "--model"))
    x = read_tensor(_require(args, "x", "--x"))
    out = _require(args, "out", "--out")
    y_hat = predict(x, result)
    write_tensor(out, y_hat)
    print(f"predictions written to {out}")


def _interval_rows(lo: DenseTensor, hi: DenseTensor) -> list:
    """CSV rows "i1x...xik,lo,hi" of the cells in first-index-fastest order."""
    dims = lo.dims
    idx = [(i + 1).tolist() for i in np.unravel_index(np.arange(lo.array.size), dims, order="F")]
    fmt = "x".join(["%d"] * len(dims)) + ",%.17g,%.17g"
    cols = idx + [lo.array.ravel(order="F").tolist(), hi.array.ravel(order="F").tolist()]
    return [fmt % row for row in zip(*cols)]


def cmd_gibbs(args) -> None:
    if args.x_new is None and (args.y_new is not None or args.intervals_out is not None):
        raise UsageError("--y-new and --intervals-out need --x-new")
    x = read_tensor(_require(args, "x", "--x"))
    y = read_tensor(_require(args, "y", "--y"))
    # the interval inputs are checked before the chain runs, so a bad one
    # costs no sampling and leaves no report or file behind
    x_new = y_new = None
    if args.x_new is not None:
        x_new = read_tensor(args.x_new)
        if x_new.dims[1:] != x.dims[1:]:
            raise ValueError(f"x-new trailing dims {x_new.dims[1:]} do not match x {x.dims[1:]}")
    if args.y_new is not None:
        y_new = read_tensor(args.y_new)
        want = x_new.dims[:1] + y.dims[1:]
        if y_new.dims != want:
            raise ValueError(f"y-new dims {y_new.dims} do not match intervals {want}")
    rank = _require(args, "rank", "--rank")
    out = _require(args, "out", "--out")
    cfg = _config(GibbsConfig, rank=rank, n_samples=args.samples, lam=args.lam,
                  burn_in=args.burn_in, thin=args.thin, seed=args.seed,
                  credible_level=args.level, center_data=not args.no_center)
    # intervals and DIC need two draws; a shorter chain is refused before it runs
    if x_new is not None:
        _interval_checks(cfg.n_samples, cfg.credible_level)
    if args.dic:
        _dic_checks(cfg.n_samples)
    draws = gibbs(x, y, cfg)
    # the chain's starting fit, on stderr so that the stdout report keeps its lines
    print(f"mode iterations {draws.mode.iterations}", file=sys.stderr)
    print(f"mode converged {str(draws.mode.converged).lower()}", file=sys.stderr)
    write_draws(out, draws, cfg.lam, cfg.seed)
    print(f"samples {len(draws)}")
    print(f"sigma2 mean {float(draws.sigma2s.mean()):.17g}")
    print(f"draws written to {out}")
    if args.dic:
        print(f"dic {dic(x, y, draws):.17g}")
    if x_new is None:
        return
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _PREDICTIVE_STREAM)))
    # the intervals of credible_intervals(posterior_predictive(...)), taken a
    # block of test rows at a time: no (draws, N, *out_dims) array is built
    lo, hi = _predictive_intervals(x_new, draws, rng, cfg.credible_level)
    lines = ["cell,lo,hi"] + _interval_rows(lo, hi)
    if args.intervals_out:
        with open(args.intervals_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"intervals written to {args.intervals_out}")
    else:
        print("\n".join(lines))
    if y_new is not None:
        coverage, length = _interval_scores(y_new, lo, hi)
        print(f"coverage {coverage:.6g}")
        print(f"mean relative length {length:.6g}")


def cmd_cv(args) -> None:
    x = read_tensor(_require(args, "x", "--x"))
    y = read_tensor(_require(args, "y", "--y"))
    ranks = _parse_list(_require(args, "ranks", "--ranks"), int, "rank")
    lams = _parse_list(_require(args, "lambdas", "--lambdas"), float, "lambda")
    if not ranks or not lams:
        raise UsageError("--ranks and --lambdas must be non-empty")
    cfgs = [_config(FitConfig, rank=rank, lam=lam, seed=args.seed, center_data=not args.no_center)
            for rank in ranks for lam in lams]
    # a rank above a mode's cell limit is refused before any row is printed; fit refuses an order-1 x
    for rank in ranks if x.order > 1 else ():
        if refusal := _rank_limit_message(rank, x.dims[1:], y.dims[1:]):
            raise SingularSystemError(refusal)
    n = x.dims[0]
    if args.folds < 2:
        raise UsageError("--folds must be at least 2")
    if args.folds > n:
        raise UsageError(f"--folds is {args.folds} but there are only {n} observations")
    # the largest fold, ceil(n / folds) rows, leaves the smallest training set
    train = n - -(-n // args.folds)
    if train < 2 and not args.no_center:
        raise UsageError(f"--folds is {args.folds}, which leaves {train} of {n} observations to "
                         "train on; centering needs at least two (or give --no-center)")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, _FOLD_STREAM)))
    perm = rng.permutation(n)
    folds = np.array_split(perm, args.folds)
    print("rank,lambda,mean_rpe")
    best = None
    for cfg in cfgs:
        scores = []
        for hold in folds:
            mask = np.ones(n, dtype=bool)
            mask[hold] = False
            x_tr = DenseTensor(x.array[mask])
            y_tr = DenseTensor(y.array[mask])
            res = fit(x_tr, y_tr, cfg)
            y_hat = predict(DenseTensor(x.array[~mask]), res)
            scores.append(rpe(DenseTensor(y.array[~mask]), y_hat))
        mean = float(np.mean(scores))
        print(f"{cfg.rank},{cfg.lam:g},{mean:.6g}")
        if best is None or mean < best[2]:
            best = (cfg.rank, cfg.lam, mean)
    print(f"selected rank={best[0]} lambda={best[1]:g} (mean_rpe={best[2]:.6g})")


def _from_json_file(path: str, what: str, build):
    """build(the JSON object in the file at path); its errors name the file.

    A value of the wrong type is as much a data problem as one out of
    range, so build's TypeError is reported like its ValueError.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"{what} must be a JSON object")
            return build(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _spec_from_json(raw: dict) -> SimSpec:
    unknown = set(raw) - {f.name for f in dataclasses.fields(SimSpec)}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return SimSpec(**raw)


# the generator flags that --spec replaces; --seed always has a value, so
# the spec file's seed is used instead of it
_SPEC_FLAGS = ("n", "in_dims", "out_dims", "rank", "snr", "correlation", "rho")


def _sim_spec_from_args(args) -> SimSpec:
    if args.spec is not None:
        given = [f"--{name.replace('_', '-')}" for name in _SPEC_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--spec cannot be combined with {' '.join(given)}")
        return _from_json_file(args.spec, "spec", _spec_from_json)
    n = _require(args, "n", "--n")
    rank = _require(args, "rank", "--rank")
    in_dims = _parse_dims(_require(args, "in_dims", "--in-dims"))
    out_dims = _parse_dims(args.out_dims) if args.out_dims else None
    return _config(SimSpec, n=n, in_dims=in_dims, out_dims=out_dims, rank=rank, snr=args.snr,
                   seed=args.seed, correlation=args.correlation, rho=args.rho)


def cmd_simulate(args) -> None:
    prefix = _require(args, "out_prefix", "--out-prefix")
    spec = _sim_spec_from_args(args)
    x, y, true_b = simulate(spec)
    if true_b is None:
        b_arr = np.zeros(spec.in_dims + spec.out_dims)
    else:
        b_arr = true_b.materialize().array
    paths = [f"{prefix}_x.mwt", f"{prefix}_y.mwt", f"{prefix}_b.mwt"]
    write_tensor(paths[0], x)
    write_tensor(paths[1], y)
    write_tensor(paths[2], DenseTensor(b_arr))
    for p in paths:
        print(f"wrote {p}")


def cmd_experiment(args) -> None:
    grid_path = _require(args, "grid", "--grid")
    out = _require(args, "out", "--out")
    if args.parallel < 1:
        raise UsageError("--parallel must be at least 1")
    cells = _from_json_file(grid_path, "grid", expand_grid)
    results = run_grid(cells, max_workers=args.parallel)
    write_results_csv(results, out)
    failures = sum(1 for _, _, err in results if err is not None)
    print(f"cells {len(results)}")
    print(f"failures {failures}")
    print(f"results written to {out}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(list(argv))
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, DegeneratePosteriorError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
