#!/usr/bin/env python3
"""mwreg benchmark: one workload per process, results as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload factorial_sample --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    factorial_sample  one full-scale replicate of ten full-factorial cells,
                      one per (n, fit_rank) pair, through `run_cell`
    fit_grid          120 full-factorial cells through `run_cell` with
                      gibbs_samples=0 (fit, test set, RPE)
    cli_files         file-backed passes of `mwreg simulate|fit|predict|gibbs`
                      through `mwreg.cli.main` in a temporary directory

`--trace 0` measures the end-to-end metrics with nothing traced.  `--trace 1`
runs the same operations untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  Every value is printed as a
`name value unit` line; the last line of standard output is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.  A fuller record (machine,
every figure, and in a traced run the spans) is written to
`.bench_out/<workload>-seed<seed>-trace<t>.json`.

BLAS is pinned to one thread and all load comes from this one process, so
the CPU-hour projection is a per-core figure.  The package is imported from
`src/` of the checkout the script sits in, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MWR_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from math import prod  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("factorial_sample", "fit_grid", "cli_files")
# Fresh interpreters timed besides this one, before and after the measured
# loop.  The shared machine's speed drifts within a run, so the median of
# samples from both ends of the run is steadier than samples taken together.
SETUP_PROBES = 3
# seed of the toy-size warm-up in staging, the same for every --seed so that
# set-up time does not depend on the sample (the warm-up's fits converge in a
# seed-dependent number of sweeps)
WARM_SEED = 0
STEP_REPEATS = 25
LEVEL = 0.95
LAM = 0.5  # the CLI pass and the step probes fit at this penalty

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ref": "ref",
}

PER_LAYER = {
    "simulation.run_cell_s": "s",
    "simulation.simulate_s": "s",
    "simulation.self_s": "s",
    "simulation.error_cells": "count",
    "fitting.fit_s": "s",
    "fitting.predict_s": "s",
    "fitting.fit_calls": "count",
    "fitting.sweeps": "count",
    "fitting.sweep_ms": "ms",
    "fitting.unconverged_share": "ratio",
    "fitting.update_predictor_ms.r3": "ms",
    "fitting.update_predictor_ms.r5": "ms",
    "fitting.update_outcome_ms.r3": "ms",
    "fitting.update_outcome_ms.r5": "ms",
    "fitting.objective_ms.r3": "ms",
    "fitting.objective_ms.r5": "ms",
    "posterior.gibbs_s": "s",
    "posterior.gibbs_iter_ms": "ms",
    "posterior.gibbs_iters": "count",
    "posterior.predictive_s": "s",
    "posterior.intervals_s": "s",
    "posterior.dic_s": "s",
    "posterior.predictive_mb": "MB",
    "posterior.conditional_ms.r3": "ms",
    "posterior.conditional_ms.r5": "ms",
    "posterior.draw_sigma2_ms": "ms",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "fileio.read_mb_s": "MB/s",
    "fileio.write_mb_s": "MB/s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.predict_s": "s",
    "cli.gibbs_s": "s",
    "cli.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
    "quality.rpe_mean": "ratio",
    "quality.coverage_gap": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark scale."""

    grid: str
    test_n: int
    gibbs_samples: int
    cli_n: int
    cli_test_n: int
    cli_score_n: int
    in_dims: tuple
    out_dims: tuple


FULL = Scale("full_factorial.json", 500, 1000, 120, 500, 5000, (15, 20), (5, 10))
# seconds-long sizes for perfbench/selfcheck.py; never used for reported numbers
TOY = Scale("smoke.json", 40, 40, 30, 40, 200, (4, 3), (2, 2))


# ---------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------


def load_package():
    """Import mwreg from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mwreg
        import mwreg.cli
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import mwreg from {src}: {exc}")
    if Path(mwreg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"benchmark: mwreg resolved to {mwreg.__file__}, not {src}")
    return mwreg


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def derived_seed(seed: int, *tags) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


class Outcome:
    """Operations and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def attempt(self, what: str, func, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception:  # a failing operation is recorded, the run goes on
            self.failed += 1
            self.messages.append(f"{what}: {traceback.format_exc(limit=2)}")
            print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None


# ---------------------------------------------------------------------
# cell samples of the full factorial
# ---------------------------------------------------------------------


def _levels(cells):
    keyed = {(c.spec.n, c.spec.snr, c.spec.rank, c.fit_rank, c.lam): c for c in cells}
    levels = [sorted({k[i] for k in keyed}) for i in range(5)]
    return keyed, levels


def factorial_cells(cells, rng) -> list:
    """One cell per (n, fit_rank) pair, other factors balanced where they can be.

    Within each n the penalties are a permutation over the fit ranks, and
    snr alternates between the n levels, so a sample never piles up on one
    penalty or one noise level.
    """
    keyed, (ns, snrs, trs, frs, lams) = _levels(cells)
    snr_bits = rng.integers(len(snrs), size=len(frs))
    picked = []
    for i, n in enumerate(ns):
        lam_idx = rng.permutation(max(len(lams), len(frs)))[: len(frs)] % len(lams)
        tr_pick = rng.choice(trs, size=len(frs), replace=len(trs) < len(frs))
        for j, fr in enumerate(frs):
            snr = snrs[(snr_bits[j] + i) % len(snrs)]
            picked.append(keyed[(n, snr, tr_pick[j], fr, lams[lam_idx[j]])])
    return picked


def fit_grid_cells(cells, rng) -> list:
    """Every (scenario, fit_rank) pair once, the penalty set by Latin squares.

    Scenarios are the (n, snr, true_rank) triples.  Taken in a seeded order
    and grouped in blocks of as many scenarios as there are penalties, each
    block pairs fit ranks with penalties through a random Latin square, so
    every penalty meets every fit rank about equally often.  A plain random
    sample of this size moved the median cell time by ~20% between seeds.
    """
    keyed, (ns, snrs, trs, frs, lams) = _levels(cells)
    scenarios = [(n, s, t) for n in ns for s in snrs for t in trs]
    order = rng.permutation(len(scenarios))
    k = len(lams)
    picked = []
    for start in range(0, len(order), k):
        rows, cols, syms = (rng.permutation(k),
                            rng.permutation(max(k, len(frs)))[: len(frs)] % k,
                            rng.permutation(k))
        for i, si in enumerate(order[start:start + k]):
            n, snr, tr = scenarios[si]
            for j, fr in enumerate(frs):
                picked.append(keyed[(n, snr, tr, fr, lams[syms[(rows[i] + cols[j]) % k]])])
    return picked


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


class StudyWorkload:
    """factorial_sample and fit_grid: cells of the full factorial via run_cell."""

    def __init__(self, mw, scale: Scale, seed: int, name: str, outcome: Outcome):
        self.mw, self.scale, self.outcome = mw, scale, outcome
        with open(ROOT / "grids" / scale.grid) as fh:
            grid = json.load(fh)
        cells = mw.expand_grid(grid)
        rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(name))))
        pick = factorial_cells if name == "factorial_sample" else fit_grid_cells
        self.cells = pick(cells, rng)
        self.study_replicates = len(cells) * int(grid["replicates"])
        self.gibbs_samples = scale.gibbs_samples if name == "factorial_sample" else 0
        self.ops_per_unit = 1
        self.max_lam = max(c.lam for c in cells)
        self.results = {}
        self.error_cells = {}
        self.errored = set()  # cell indices; their times are left out of the op figures

    def ops(self):
        return list(range(len(self.cells)))

    def known_degenerate(self, c, exc) -> bool:
        """The two documented program limitations a study chain may hit.

        `gibbs` raises SingularSystemError when true rank 0 under the largest
        penalty shrinks the mode to B = 0, where the factor conditionals are
        singular, and when a fit rank above the true rank at lambda 0 leaves
        a conditional rank deficient.  Any other exception is a failed
        operation.
        """
        from_gibbs = any(f.name == "gibbs" and Path(f.filename).name == "posterior.py"
                         for f in traceback.extract_tb(exc.__traceback__))
        zero_mode = c.spec.rank == 0 and c.lam == self.max_lam
        overfit_unpenalized = c.lam == 0.0 and c.fit_rank > c.spec.rank
        return (isinstance(exc, self.mw.SingularSystemError) and from_gibbs
                and self.gibbs_samples > 0 and (zero_mode or overfit_unpenalized))

    def run_op(self, i, tracer=None):
        c = self.cells[i]
        what = f"run_cell {_cell_label(c)}"
        if tracer is None:
            return self.outcome.attempt(what, self._run_cell, i)
        with tracer.span("simulation.run_cell"):
            return self.outcome.attempt(what, self._run_cell, i)

    def _run_cell(self, i):
        mw, c = self.mw, self.cells[i]
        try:
            return mw.simulation.run_cell(c.spec, c.fit_rank, c.lam, 1, test_n=self.scale.test_n,
                                          gibbs_samples=self.gibbs_samples, level=LEVEL)
        except mw.SingularSystemError as exc:
            # run_grid records such a cell as an error row and goes on; the
            # benchmark does the same and reports the count as error_cells
            if not self.known_degenerate(c, exc):
                raise
            self.error_cells[_cell_label(c)] = f"{type(exc).__name__}: {exc}"
            self.errored.add(i)
            return None

    def check(self, i, out):
        if out is None:
            return
        c = self.cells[i]
        values = out.rpe_values + out.coverage_values + out.length_values
        self.outcome.check(bool(np.all(np.isfinite(values))),
                           f"{_cell_label(c)}: non-finite rpe/coverage/length {values}")
        expect = 1 if self.gibbs_samples else 0
        self.outcome.check(len(out.coverage_values) == expect,
                           f"{_cell_label(c)}: {len(out.coverage_values)} coverage values")
        if i in self.results:
            self.outcome.check(self.results[i] == values,
                               f"{_cell_label(c)}: rerun gave {values}, first {self.results[i]}")
        self.results[i] = values

    def quality(self) -> dict:
        rpes = [v[0] for v in self.results.values()]
        covs = [v[1] for v in self.results.values() if len(v) > 1]
        out = {"rpe_mean": float(np.mean(rpes)) if rpes else 0.0,
               "error_cells": len(self.error_cells), "error_cell_reasons": self.error_cells}
        if covs:
            out["coverage_mean"] = float(np.mean(covs))
            out["coverage_gap"] = abs(out["coverage_mean"] - LEVEL)
        return out

    def replay(self, tracer=None):
        """Step-by-step replay of replicate 0 of the cheapest sampled cell.

        Goes through public calls only and re-derives run_cell's documented
        substreams (spec.seed, replicate, tag) for data, fit, test set, chain
        and predictive noise; the numbers must equal run_cell's exactly.
        """
        if not self.gibbs_samples:
            return
        mw, scale = self.mw, self.scale
        i = min(self.results, key=lambda k: (self.cells[k].fit_rank, -self.cells[k].spec.n),
                default=None)
        if i is None:
            return
        c = self.cells[i]
        spec = c.spec

        def sub(tag):
            return derived_seed(spec.seed, 0, tag)

        def sub_rng(tag):
            return np.random.default_rng(np.random.SeedSequence((spec.seed, 0, tag)))

        def step(name, func, *args, **kwargs):
            if tracer is None:
                return func(*args, **kwargs)
            return tracer.wrap(name, func)(*args, **kwargs)

        def body():
            x, y, true_b = step("simulation.simulate", mw.simulate, replace(spec, seed=sub(0)))
            res = step("fitting.fit", mw.fit, x, y,
                       mw.FitConfig(rank=c.fit_rank, lam=c.lam, seed=sub(1)))
            rng = sub_rng(2)
            xarr = rng.standard_normal((scale.test_n,) + spec.in_dims)
            earr = rng.standard_normal((scale.test_n,) + spec.out_dims)
            if true_b is None:
                yarr = earr
            else:
                signal = xarr.reshape(scale.test_n, -1, order="F") @ true_b.matricize()
                yarr = signal.reshape((scale.test_n,) + spec.out_dims, order="F") + earr
            x_new, y_new = mw.DenseTensor(xarr), mw.DenseTensor(yarr)
            r = mw.rpe(y_new, step("fitting.predict", mw.predict, x_new, res))
            gcfg = mw.GibbsConfig(rank=c.fit_rank, n_samples=self.gibbs_samples, lam=c.lam,
                                  seed=sub(3), credible_level=LEVEL)
            draws = step("posterior.gibbs", mw.gibbs, x, y, gcfg, mode_fit=res)
            pdraws = step("posterior.predictive", mw.posterior_predictive, x_new, draws,
                          sub_rng(4))
            lo, hi = step("posterior.intervals", mw.credible_intervals, pdraws, LEVEL)
            covered = (yarr >= lo.array) & (yarr <= hi.array)
            length = float((hi.array - lo.array).mean() / yarr.std())
            return (r, float(covered.mean()), length)

        if tracer is None:
            got = self.outcome.attempt("replay", body)
        else:
            with tracer.span("bench.replay"):
                got = self.outcome.attempt("replay", body)
        if got is not None:
            self.outcome.check(got == self.results[i],
                               f"replay of {_cell_label(c)} gave {got}, run_cell {self.results[i]}")


def _cell_label(c) -> str:
    s = c.spec
    return f"(n={s.n} snr={s.snr:g} rank={s.rank} fit_rank={c.fit_rank} lam={c.lam:g})"


class CliWorkload:
    """cli_files: the file-backed user path through mwreg.cli.main."""

    def __init__(self, mw, scale: Scale, seed: int, outcome: Outcome, workdir: Path):
        self.mw, self.scale, self.outcome, self.dir = mw, scale, outcome, workdir
        self.seed = derived_seed(seed, WORKLOADS.index("cli_files"))
        self.reference = None
        with open(ROOT / "grids" / FULL.grid) as fh:
            grid = json.load(fh)
        # a projection as if each of the study's replicates were one pass
        self.study_replicates = len(mw.expand_grid(grid)) * int(grid["replicates"])
        self.argvs = self._argvs()
        self.ops_per_unit = len(self.argvs)  # one pass of the user path
        self.errored = set()
        self.stdout = {}
        self.rpes = []

    def ops(self):
        return list(range(len(self.argvs)))

    def _argvs(self):
        s, d = self.scale, self.dir
        dims = ["--in-dims", "x".join(map(str, s.in_dims)),
                "--out-dims", "x".join(map(str, s.out_dims))]
        sim = [("train", s.cli_n, 1), ("test", s.cli_test_n, 2), ("score", s.cli_score_n, 3)]
        argvs = [["simulate", "--n", str(n), *dims, "--rank", "3", "--snr", "25",
                  "--seed", str(derived_seed(self.seed, tag)), "--out-prefix", str(d / name)]
                 for name, n, tag in sim]
        model = ["--rank", "3", "--lambda", str(LAM), "--seed", str(self.seed)]
        argvs.append(["fit", "--x", str(d / "train_x.mwt"), "--y", str(d / "train_y.mwt"),
                      *model, "--out", str(d / "model.json")])
        argvs.append(["predict", "--model", str(d / "model.json"),
                      "--x", str(d / "score_x.mwt"), "--out", str(d / "yhat.mwt")])
        argvs.append(["gibbs", "--x", str(d / "train_x.mwt"), "--y", str(d / "train_y.mwt"),
                      *model, "--samples", str(s.gibbs_samples),
                      "--x-new", str(d / "test_x.mwt"),
                      "--intervals-out", str(d / "intervals.csv"),
                      "--dic", "--out", str(d / "draws.json")])
        return argvs

    def run_op(self, k, tracer=None):
        """Command k of the pass; a pass starts from an empty directory."""
        if k == 0:
            for f in self.dir.iterdir():
                f.unlink()
        argv = self.argvs[k]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = self.outcome.attempt(argv[0], self.mw.cli.main, argv)
            else:
                with tracer.span(f"cli.{argv[0]}") as sp:
                    code = self.outcome.attempt(argv[0], self.mw.cli.main, argv)
                    sp.attrs["exit"] = code
        return code, sink.getvalue()

    def check(self, k, result):
        code, stdout = result
        argv = self.argvs[k]
        self.outcome.check(code == 0, f"mwreg {' '.join(argv)} exited {code}")
        self.stdout[argv[0]] = stdout
        if k == len(self.argvs) - 1:
            self._check_pass(self.stdout)

    def _check_pass(self, stdout):
        mw, s, d, ok = self.mw, self.scale, self.dir, self.outcome.check
        cells = s.in_dims + s.out_dims
        expect = {}
        for name, n in (("train", s.cli_n), ("test", s.cli_test_n), ("score", s.cli_score_n)):
            expect[f"{name}_x"] = (n,) + s.in_dims
            expect[f"{name}_y"] = (n,) + s.out_dims
            expect[f"{name}_b"] = cells
        expect["yhat"] = (s.cli_score_n,) + s.out_dims
        tensors = {}
        for name, dims in expect.items():
            t = self.outcome.attempt(f"read {name}", mw.read_tensor, str(d / f"{name}.mwt"))
            if t is not None and ok(t.dims == dims, f"{name}.mwt has dims {t.dims}, not {dims}"):
                tensors[name] = t
        model = self.outcome.attempt("read model", mw.read_model, str(d / "model.json"))
        if model is not None:
            b = model[0].coefficients
            ok((b.in_dims, b.out_dims, b.rank) == (s.in_dims, s.out_dims, 3),
               f"model.json holds {b}")
        draws = self.outcome.attempt("read draws", mw.read_draws, str(d / "draws.json"))
        if draws is not None:
            b = draws[0].coefficients[0]
            ok(len(draws[0]) == s.gibbs_samples and (b.in_dims, b.out_dims) == (s.in_dims, s.out_dims),
               f"draws.json holds {len(draws[0])} draws of {b}")
        rows = self.outcome.attempt("read intervals", _read_intervals, d / "intervals.csv")
        if rows is not None:
            lo, hi = rows
            ok(lo.size == s.cli_test_n * prod(s.out_dims) and bool(np.all(lo <= hi)),
               f"intervals.csv holds {lo.size} rows or has lo > hi")
        dic_line = [ln for ln in stdout.get("gibbs", "").splitlines() if ln.startswith("dic ")]
        ok(len(dic_line) == 1 and np.isfinite(float(dic_line[0].split()[1])),
           f"gibbs printed {dic_line} for dic")
        if {"train_x", "train_y", "score_x", "yhat"} <= tensors.keys():
            if self.reference is None:
                cfg = mw.FitConfig(rank=3, lam=LAM, seed=self.seed)
                self.reference = mw.fit(tensors["train_x"], tensors["train_y"], cfg)
            y_mem = mw.predict(tensors["score_x"], self.reference).array
            y_cli = tensors["yhat"].array
            ok(y_mem.shape == y_cli.shape and y_mem.tobytes() == y_cli.tobytes(),
               "mwreg predict differs from in-memory predict")
            # score and train come from separate `mwreg simulate` calls, so
            # their coefficient arrays differ; this rpe only tracks drift
            self.rpes.append(mw.rpe(tensors["score_y"], tensors["yhat"]))
        else:
            ok(False, "files needed for the predict comparison are missing")

    def quality(self) -> dict:
        out = {"error_cells": 0}
        if self.rpes:
            out["rpe_mean"] = float(np.mean(self.rpes))
        return out

    def replay(self, tracer=None):
        return


def _read_intervals(path: Path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "cell,lo,hi":
            raise ValueError(f"{path}: header {header!r}")
        vals = np.array([ln.rsplit(",", 2)[1:] for ln in fh.read().splitlines()], dtype=float)
    return vals[:, 0], vals[:, 1]


# ---------------------------------------------------------------------
# staging, timing, probes
# ---------------------------------------------------------------------


def stage(mw, workload: str, scale: Scale, seed: int, outcome: Outcome, workdir: Path):
    """Build the workload and warm every code path it uses once at toy size."""
    if workload == "cli_files":
        wl = CliWorkload(mw, scale, seed, outcome, workdir)
        warm = CliWorkload(mw, TOY, WARM_SEED, Outcome(), workdir)
        for k in warm.ops():
            warm.run_op(k)
        for f in workdir.iterdir():
            f.unlink()
    else:
        wl = StudyWorkload(mw, scale, seed, workload, outcome)
        spec = mw.SimSpec(n=TOY.cli_n, in_dims=TOY.in_dims, out_dims=TOY.out_dims, rank=2,
                          seed=WARM_SEED)
        mw.run_cell(spec, 2, LAM, 1, test_n=TOY.test_n, gibbs_samples=TOY.gibbs_samples)
    return wl


class SetupProbes:
    """Set-up seconds of fresh interpreters doing this run's import and staging."""

    def __init__(self, args, own: float):
        self.samples = [own]
        self._argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
        if args.toy:
            self._argv.append("--toy")

    def take(self, count: int) -> None:
        for _ in range(count):
            done = subprocess.run(self._argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120)
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
            self.samples.append(float(done.stdout.split()[-1]))


class Reference:
    """A fixed numpy, LAPACK and interpreter kernel, timed between operations.

    The machine this runs on is shared, and its speed drifts by tens of
    percent over tens of seconds as neighbours load it.  Such a drift slows
    this kernel and mwreg alike, so an operation's time in units of the
    kernel's time, both taken in the same run, cancels most of it.  The
    kernel uses no mwreg code, so no change to the package moves it.
    """

    SHARE = 0.05  # kernel time run after each operation, as a share of it

    def __init__(self):
        import scipy.linalg

        rng = np.random.default_rng(20170104)
        self._a = rng.standard_normal((120, 300))
        self._s = self._a.T @ self._a + np.eye(300)
        self._v = rng.standard_normal(400)
        self._cholesky = scipy.linalg.cholesky
        self.seconds = 0.0
        self.iterations = 0

    def _once(self):
        self._a @ self._a.T
        self._cholesky(self._s, lower=True, check_finite=False)
        " ".join(f"{v:.17g}" for v in self._v)
        sum(i * i for i in range(5000))

    def sample(self, op_seconds: float) -> None:
        """Time at least one iteration, about SHARE of the preceding operation."""
        self._once()  # re-warm the caches the operation left; not timed
        t0 = time.perf_counter()
        n = 0
        while True:
            self._once()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.SHARE * op_seconds:
                break
        self.seconds += elapsed
        self.iterations += n

    @property
    def iteration_s(self) -> float:
        return self.seconds / self.iterations


def run_ops(wl, tracer=None, passes=1, keys=None, ref=None):
    """Run the workload's ops (or `keys`) `passes` times; per-op wall and CPU.

    With a Reference, the kernel is sampled after each operation, outside
    its timing.
    """
    walls, cpus = {}, {}
    for _ in range(passes):
        for key in wl.ops() if keys is None else keys:
            w0, c0 = time.perf_counter(), time.process_time()
            if tracer is None:
                result = wl.run_op(key)
            else:
                with tracer.span("bench.op"):
                    result = wl.run_op(key, tracer)
            walls.setdefault(key, []).append(time.perf_counter() - w0)
            cpus.setdefault(key, []).append(time.process_time() - c0)
            if ref is not None:
                ref.sample(walls[key][-1])
            wl.check(key, result)
    return walls, cpus


def timed_loop(wl, seconds: float, ref: Reference):
    """Whole passes over the workload, as many as fill about `seconds`."""
    t0 = time.perf_counter()
    walls, cpus = run_ops(wl, ref=ref)
    first = time.perf_counter() - t0
    passes = max(1, round(seconds / first))
    if passes > 1:
        more_w, more_c = run_ops(wl, passes=passes - 1, ref=ref)
        for key in walls:
            walls[key] += more_w[key]
            cpus[key] += more_c[key]
    return walls, cpus, passes, time.perf_counter() - t0


def step_probes(mw, scale: Scale, seed: int) -> dict:
    """Median milliseconds of the public single-step calls at a fitted state.

    Each call builds its own workspace of unfoldings, as any caller of the
    public API does, so the figures include that cost.
    """
    spec = mw.SimSpec(n=scale.cli_n, in_dims=scale.in_dims, out_dims=scale.out_dims,
                      rank=3, snr=25.0, seed=derived_seed(seed, 99))
    x, y, _ = mw.simulate(spec)
    xc, yc, _ = mw.center(x, y)
    rng = np.random.default_rng(derived_seed(seed, 98))

    def median_ms(func, calls):
        times = []
        for _ in range(STEP_REPEATS):
            t0 = time.perf_counter()
            func()
            times.append((time.perf_counter() - t0) / calls)
        return 1e3 * statistics.median(times)

    out = {}
    n_pred, n_out = len(scale.in_dims), len(scale.out_dims)
    for r in (3, 5):
        b = mw.fit(x, y, mw.FitConfig(rank=r, lam=LAM, seed=seed)).coefficients
        sigma2 = mw.draw_sigma2(xc, yc, b, rng)
        out[f"fitting.update_predictor_ms.r{r}"] = median_ms(
            lambda: [mw.update_predictor_factor(xc, yc, b, m, LAM) for m in range(n_pred)], n_pred)
        out[f"fitting.update_outcome_ms.r{r}"] = median_ms(
            lambda: [mw.update_outcome_factor(xc, yc, b, m, LAM) for m in range(n_out)], n_out)
        out[f"fitting.objective_ms.r{r}"] = median_ms(lambda: mw.objective(xc, yc, b, LAM), 1)
        out[f"posterior.conditional_ms.r{r}"] = median_ms(
            lambda: [mw.conditional_factor_params(xc, yc, b, m, LAM, sigma2)
                     for m in range(b.order)], b.order)
        if r == 3:
            out["posterior.draw_sigma2_ms"] = median_ms(lambda: mw.draw_sigma2(xc, yc, b, rng), 1)
    return out


# ---------------------------------------------------------------------
# main
# ---------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="seconds-long sizes for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def main(argv=None) -> int:
    args = _parse(argv)
    scale = TOY if args.toy else FULL
    mw = load_package()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        outcome = Outcome()
        wl = stage(mw, args.workload, scale, args.seed, outcome, workdir)
        own_setup = time.perf_counter() - _START
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        probes = SetupProbes(args, own_setup)
        if args.trace:
            report = traced_run(mw, wl, scale, args)
        else:
            probes.take(SETUP_PROBES)
            report = untraced_run(wl, args)
            probes.take(SETUP_PROBES)
        tracer = report.pop("tracer", None)
        wl.replay(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    report["extra"]["setup_samples_s"] = probes.samples
    if not args.trace:
        report["metrics"]["setup_s"] = statistics.median(probes.samples)
        report["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = wl.quality()
    report["extra"].update(quality)
    report["extra"]["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        report["metrics"]["quality.rpe_mean"] = quality.get("rpe_mean", 0.0)
        report["metrics"]["quality.coverage_gap"] = quality.get("coverage_gap", 0.0)
        report["metrics"]["simulation.error_cells"] = quality["error_cells"]
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(report["metrics"][name]), "unit": unit}
               for name, unit in table.items()}

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in report["extra"].items():
        if isinstance(value, float) or name == "error_cells":
            print(f"{name} {value!r} {_extra_unit(name)}")
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "machine": info,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.messages, "metrics": metrics, **report["extra"]}
    if tracer is not None:
        record["spans"] = [sp.as_dict() for sp in tracer.spans]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-toy" if args.toy else ""
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def _extra_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_p50") or name.endswith("_p90"):
        return "s"
    if name.endswith("_h"):
        return "h"
    if name.endswith("_pct"):
        return "%"
    if name == "error_cells":
        return "count"
    return "ratio"


def untraced_run(wl, args) -> dict:
    ref = Reference()
    walls, cpus, passes, elapsed = timed_loop(wl, args.seconds, ref)
    # a cell that hit the known degenerate chain skipped it, so the figures
    # are per completed replicate; error_cells reports the rest
    if wl.outcome.check(len(wl.errored) < len(walls), "no operation completed"):
        walls = {k: v for k, v in walls.items() if k not in wl.errored}
        cpus = {k: v for k, v in cpus.items() if k not in wl.errored}
    # a unit is one cell, or one pass of the CLI's commands
    if wl.ops_per_unit == 1:
        units = [t for v in walls.values() for t in v]
        per_unit = [statistics.median(v) for v in walls.values()]
    else:
        units = per_unit = [sum(v[p] for v in walls.values()) for p in range(passes)]
    op_s = float(np.mean(units))
    # every sampled cell stands for an equal share of the study (stratified mean)
    mean_cpu = wl.ops_per_unit * float(np.mean([statistics.median(v) for v in cpus.values()]))
    metrics = {"op_ref": op_s / ref.iteration_s}
    extra = {
        "op_s": op_s,
        "op_s_p50": _pct(per_unit, 50),
        "op_s_p90": _pct(units, 90),
        "ops_per_s": 1.0 / op_s,
        "full_factorial_cpu_h": mean_cpu * wl.study_replicates / 3600.0,
        "ref_iteration_ms": 1e3 * ref.iteration_s,
        "ref_share": ref.seconds / elapsed,
        "loop_s": elapsed,
        "passes": passes,
        "ops": len(units),
        "op_walls_s": {str(k): v for k, v in walls.items()},
    }
    if args.workload == "fit_grid":
        extra.update(fit_cells_per_s=extra["ops_per_s"], fit_cell_s_p50=extra["op_s_p50"],
                     fit_cell_s_p90=extra["op_s_p90"])
    if args.workload == "cli_files":
        extra["cli_pass_s"] = extra["op_s_p50"]
        for cmd in ("simulate", "fit", "predict", "gibbs"):
            keys = [k for k, argv in enumerate(wl.argvs) if argv[0] == cmd]
            extra[f"cli_{cmd}_s"] = statistics.median(
                sum(walls[k][p] for k in keys) for p in range(passes))
    return {"metrics": metrics, "extra": extra}


def traced_run(mw, wl, scale: Scale, args) -> dict:
    """Each op untraced and traced, in alternating order; per-layer figures and overhead."""
    passes = 2 if args.workload == "cli_files" else 1
    tracer = Tracer()
    plain, traced = [], []
    for p in range(passes):
        for i, key in enumerate(wl.ops()):
            # alternate which of the pair runs first, so warm-up favours neither
            for with_trace in ((False, True) if (i + p) % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.patched():
                        traced += run_ops(wl, tracer, keys=[key])[0][key]
                else:
                    plain += run_ops(wl, keys=[key])[0][key]
    n_ops = len(traced) // wl.ops_per_unit
    layer = summarize(tracer.spans, "bench.op", n_ops)
    plain, traced = sum(plain) / n_ops, sum(traced) / n_ops
    metrics = {**layer, **step_probes(mw, scale, args.seed), "trace.overhead_s": traced - plain}
    # figures the JSON leaves out (self times that equal a sum of layer
    # times already in it) are printed and recorded
    extra = {"untraced_op_s": plain, "traced_op_s": traced,
             "trace.overhead_pct": 100.0 * (traced - plain) / plain,
             **{k: v for k, v in layer.items() if k not in PER_LAYER}}
    return {"metrics": metrics, "extra": extra, "tracer": tracer}


if __name__ == "__main__":
    sys.exit(main())
