"""Command-line tests.

Commands run in process through main() so exit codes and output are
asserted directly; one test drives the installed console script to check
the packaging wiring.  The golden objective value for the bundled tiny
dataset pins the full fit path end to end.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mwreg
from mwreg import (DenseTensor, FitConfig, GibbsConfig, SimSpec, fit, read_tensor, write_tensor, read_draws,
                   read_model)
from mwreg import cli
from mwreg.cli import _build_parsers, main
from reference import mwt2_bytes

DATA = os.path.join(os.path.dirname(__file__), "data")
TINY_X = os.path.join(DATA, "tiny_x.mwt")
TINY_Y = os.path.join(DATA, "tiny_y.mwt")
GOLDEN_OBJECTIVE = 0.87812638462934722


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fit_tiny(tmp_path, *extra):
    out = os.path.join(tmp_path, "model.json")
    code = main(["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                 "--lambda", "0.5", "--seed", "0", "--out", out, *extra])
    return code, out


class TestFit:
    def test_golden_objective(self, tmp_path, capsys):
        code, out = _fit_tiny(tmp_path)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        report = dict(l.split(" ", 1) for l in lines)
        assert float(report["objective"]) == pytest.approx(
            GOLDEN_OBJECTIVE, rel=1e-12
        )
        assert report["converged"] == "true"
        assert os.path.exists(out)

    def test_rank_zero_is_usage_error(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "0",
                     "--lambda", "0.5", "--out", out])
        assert code == 1
        assert "rank" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["fit", "--x", TINY_X, "--y", TINY_Y])
        assert code == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_shape_mismatch_names_sizes(self, tmp_path, capsys):
        bad_y = os.path.join(tmp_path, "bad_y.mwt")
        write_tensor(bad_y, DenseTensor(np.ones((5, 2))))
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--x", TINY_X, "--y", bad_y, "--rank", "1",
                     "--lambda", "0.5", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "8" in err and "5" in err

    def test_missing_file(self, tmp_path):
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--x", "no_such.mwt", "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--out", out])
        assert code == 2

    def test_malformed_tensor(self, tmp_path):
        bad = os.path.join(tmp_path, "bad.mwt")
        with open(bad, "wb") as fh:
            # three values' bytes where the header asks for four
            fh.write(mwt2_bytes((2, 2), np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes()))
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--x", bad, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--out", out])
        assert code == 2

    def test_singular_system_is_numerical_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, DenseTensor(rng.standard_normal((3, 8))))
        write_tensor(y, DenseTensor(rng.standard_normal((3, 2))))
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--x", x, "--y", y, "--rank", "3", "--lambda", "0",
                     "--anneal-steps", "0", "--out", out])
        assert code == 3
        assert "penalty" in capsys.readouterr().err

    def test_rank_above_a_mode_limit_is_numerical_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, DenseTensor(rng.standard_normal((30, 2))))
        write_tensor(y, DenseTensor(rng.standard_normal(30)))
        out = os.path.join(tmp_path, "m.json")
        for lam in ("0", "0.5", "50"):
            code = main(["fit", "--x", x, "--y", y, "--rank", "2", "--lambda", lam, "--out", out])
            assert code == 3
            assert capsys.readouterr().err == (
                "numerical error: rank 2 is above 1, the number of coefficient cells outside "
                "predictor mode 0, so that mode's subproblem is singular at every penalty; "
                "lower the rank\n")
        assert not os.path.exists(out)

    def test_config_file_equals_flags(self, tmp_path, capsys):
        cfg = os.path.join(tmp_path, "fit.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"x = {TINY_X}\ny = {TINY_Y}\nrank = 1\nlambda = 0.5\n"
                     f"seed = 0\n")
        m1 = os.path.join(tmp_path, "m1.json")
        m2 = os.path.join(tmp_path, "m2.json")
        assert main(["fit", "--config", cfg, "--out", m1]) == 0
        assert _fit_tiny(tmp_path)[0] == 0
        os.rename(os.path.join(tmp_path, "model.json"), m2)
        assert _sha(m1) == _sha(m2)

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = os.path.join(tmp_path, "fit.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"x = {TINY_X}\ny = {TINY_Y}\nrank = 1\nlambda = 99\n")
        out = os.path.join(tmp_path, "m.json")
        code = main(["fit", "--config", cfg, "--lambda", "0.5", "--seed", "0",
                     "--out", out])
        assert code == 0
        assert read_model(out)[1] == 0.5

    def test_env_seed_default(self, tmp_path, monkeypatch):
        m1 = os.path.join(tmp_path, "m1.json")
        m2 = os.path.join(tmp_path, "m2.json")
        monkeypatch.setenv("MWR_SEED", "7")
        assert main(["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--out", m1]) == 0
        monkeypatch.delenv("MWR_SEED")
        assert main(["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--seed", "7", "--out", m2]) == 0
        assert _sha(m1) == _sha(m2)


class TestPredict:
    def test_round_trip_reproduces_training_response(self, tmp_path, capsys):
        from mwreg import CpCoefficients, contract

        rng = np.random.default_rng(1)
        xt = DenseTensor(rng.standard_normal((40, 3, 2)))
        b = CpCoefficients(
            [rng.standard_normal((3, 1)), rng.standard_normal((2, 1))],
            [rng.standard_normal((2, 1))],
        )
        yt = contract(xt, b.materialize(), 2)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, xt)
        write_tensor(y, yt)
        model = os.path.join(tmp_path, "m.json")
        assert main(["fit", "--x", x, "--y", y, "--rank", "1", "--lambda", "0",
                     "--seed", "1", "--out", model]) == 0
        pred = os.path.join(tmp_path, "pred.mwt")
        assert main(["predict", "--model", model, "--x", x, "--out", pred]) == 0
        got = read_tensor(pred)
        err = np.sum((got.array - yt.array) ** 2) / np.sum(yt.array**2)
        assert err < 1e-6

    def test_zero_coefficient_model_outputs_offsets(self, tmp_path, capsys):
        model = os.path.join(tmp_path, "m.json")
        assert main(["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "1e14", "--seed", "0", "--out", model]) == 0
        pred = os.path.join(tmp_path, "p.mwt")
        assert main(["predict", "--model", model, "--x", TINY_X, "--out", pred]) == 0
        got = read_tensor(pred).array
        y_mean = read_tensor(TINY_Y).array.mean(axis=0)
        assert np.allclose(got, np.broadcast_to(y_mean, got.shape), atol=1e-6)

    def test_missing_model_file(self, tmp_path):
        pred = os.path.join(tmp_path, "p.mwt")
        assert main(["predict", "--model", "nope.json", "--x", TINY_X,
                     "--out", pred]) == 2

    def test_malformed_model_file(self, tmp_path, capsys):
        model = os.path.join(tmp_path, "m.json")
        pred = os.path.join(tmp_path, "p.mwt")
        for text in ('{"format":"mwreg-model"}', "[]"):
            with open(model, "w") as fh:
                fh.write(text)
            assert main(["predict", "--model", model, "--x", TINY_X, "--out", pred]) == 2
            assert "malformed model file" in capsys.readouterr().err

    def test_dim_mismatch(self, tmp_path):
        model = os.path.join(tmp_path, "m.json")
        assert _fit_tiny(tmp_path)[0] == 0
        os.rename(os.path.join(tmp_path, "model.json"), model)
        bad_x = os.path.join(tmp_path, "bad_x.mwt")
        write_tensor(bad_x, DenseTensor(np.ones((4, 5))))
        assert main(["predict", "--model", model, "--x", bad_x,
                     "--out", os.path.join(tmp_path, "p.mwt")]) == 2


class TestGibbs:
    def test_single_sample(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "1", "--seed", "0",
                     "--out", out])
        assert code == 0
        draws, _, _ = read_draws(out)
        assert len(draws) == 1

    def test_mode_fit_reported_on_stderr(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "3", "--seed", "2", "--out", out])
        assert code == 0
        cap = capsys.readouterr()
        mode = fit(read_tensor(TINY_X), read_tensor(TINY_Y), FitConfig(rank=1, lam=0.5, seed=2))
        assert cap.err.splitlines() == [
            f"mode iterations {mode.iterations}",
            f"mode converged {str(mode.converged).lower()}",
        ]
        assert [line.split()[0] for line in cap.out.splitlines()] == ["samples", "sigma2", "draws"]

    def test_same_seed_byte_identical(self, tmp_path):
        d1 = os.path.join(tmp_path, "d1.json")
        d2 = os.path.join(tmp_path, "d2.json")
        argv = ["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                "--lambda", "0.5", "--samples", "20", "--seed", "3"]
        assert main(argv + ["--out", d1]) == 0
        assert main(argv + ["--out", d2]) == 0
        assert _sha(d1) == _sha(d2)

    def test_dic_reported(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "30", "--seed", "0",
                     "--dic", "--out", out])
        assert code == 0
        dic_lines = [l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("dic ")]
        assert len(dic_lines) == 1
        float(dic_lines[0].split()[1])

    def test_intervals_and_coverage_report(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "d.json")
        ivals = os.path.join(tmp_path, "intervals.csv")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "80", "--seed", "0",
                     "--x-new", TINY_X, "--y-new", TINY_Y,
                     "--intervals-out", ivals, "--out", out])
        assert code == 0
        with open(ivals) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "cell,lo,hi"
        assert len(rows) == 1 + 16  # 8 observations x 2 response cells
        assert rows[1].startswith("1x1,")
        report = capsys.readouterr().out
        cov = [l for l in report.splitlines() if l.startswith("coverage ")]
        assert len(cov) == 1
        assert 0.0 <= float(cov[0].split()[1]) <= 1.0

    def test_coverage_near_nominal_on_simulated_data(self, tmp_path, capsys):
        prefix = os.path.join(tmp_path, "sim")
        assert main(["simulate", "--n", "120", "--in-dims", "5x4",
                     "--out-dims", "3x2", "--rank", "2", "--snr", "1",
                     "--seed", "9", "--out-prefix", prefix]) == 0
        test_prefix = os.path.join(tmp_path, "simtest")
        assert main(["simulate", "--n", "200", "--in-dims", "5x4",
                     "--out-dims", "3x2", "--rank", "2", "--snr", "1",
                     "--seed", "10", "--out-prefix", test_prefix]) == 0
        # build a test response from the training coefficients so coverage
        # is evaluated against the right generative signal
        b = read_tensor(f"{prefix}_b.mwt").array.reshape(20, 6, order="F")
        x_new = read_tensor(f"{test_prefix}_x.mwt")
        rng = np.random.default_rng(11)
        y_new = (x_new.array.reshape(200, 20, order="F") @ b).reshape(
            (200, 3, 2), order="F"
        ) + rng.standard_normal((200, 3, 2))
        y_new_path = os.path.join(tmp_path, "y_new.mwt")
        write_tensor(y_new_path, DenseTensor(y_new))
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", f"{prefix}_x.mwt", "--y", f"{prefix}_y.mwt",
                     "--rank", "2", "--lambda", "0.5", "--samples", "300",
                     "--seed", "12", "--x-new", f"{test_prefix}_x.mwt",
                     "--y-new", y_new_path,
                     "--intervals-out", os.path.join(tmp_path, "iv.csv"),
                     "--out", out])
        assert code == 0
        cov = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("coverage ")]
        assert 0.88 <= float(cov[0].split()[1]) <= 1.0

    @pytest.mark.parametrize("x_new_dims, y_new_dims, message", [
        ((10, 2, 3), None, "x-new trailing dims (2, 3) do not match x (3, 2)"),
        ((10, 3), None, "x-new trailing dims (3,) do not match x (3, 2)"),
        ((10, 3, 2), (10, 3), "y-new dims (10, 3) do not match intervals (10, 2)"),
        ((10, 3, 2), (9, 2), "y-new dims (9, 2) do not match intervals (10, 2)"),
    ])
    def test_bad_interval_inputs_are_refused_before_sampling(
            self, tmp_path, capsys, x_new_dims, y_new_dims, message):
        inputs, outputs = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        outputs.mkdir()
        prefix = str(inputs / "sim")
        assert main(["simulate", "--n", "60", "--in-dims", "3x2", "--out-dims", "2",
                     "--rank", "1", "--seed", "4", "--out-prefix", prefix]) == 0
        rng = np.random.default_rng(5)
        x_new = str(inputs / "x_new.mwt")
        write_tensor(x_new, DenseTensor(rng.standard_normal(x_new_dims)))
        argv = ["gibbs", "--x", f"{prefix}_x.mwt", "--y", f"{prefix}_y.mwt", "--rank", "1",
                "--lambda", "0.5", "--samples", "3000", "--x-new", x_new,
                "--intervals-out", str(outputs / "iv.csv"), "--out", str(outputs / "d.json")]
        if y_new_dims is not None:
            y_new = str(inputs / "y_new.mwt")
            write_tensor(y_new, DenseTensor(rng.standard_normal(y_new_dims)))
            argv += ["--y-new", y_new]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        # no chain ran: no mode report, no samples report, no file
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not os.listdir(outputs)

    @pytest.mark.parametrize("flags, message", [
        (["--x-new", TINY_X], "need at least two draws for an interval"),
        (["--dic"], "need at least two draws"),
    ])
    def test_one_draw_intervals_and_dic_are_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch, flags, message):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(cli, "gibbs", no_chain)
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1", "--lambda", "0.5",
                     "--samples", "1", "--out", os.path.join(tmp_path, "d.json"), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag", ["--y-new", "--intervals-out"])
    def test_interval_flags_without_x_new_are_usage_errors(self, tmp_path, capsys, flag):
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "5", "--out", out,
                     flag, os.path.join(tmp_path, "iv.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: --y-new and --intervals-out need --x-new\n"
        assert not os.listdir(tmp_path)

    def test_level_validation(self, tmp_path):
        out = os.path.join(tmp_path, "d.json")
        code = main(["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
                     "--lambda", "0.5", "--samples", "5", "--level", "1.0",
                     "--out", out])
        assert code == 1


class TestCv:
    def test_single_candidate(self, capsys):
        code = main(["cv", "--x", TINY_X, "--y", TINY_Y, "--ranks", "1",
                     "--lambdas", "0.5", "--folds", "2", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,lambda,mean_rpe"
        assert lines[1].startswith("1,0.5,")
        assert lines[2].startswith("selected rank=1 lambda=0.5")

    def test_selects_true_rank_on_noiseless_data(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        xt = DenseTensor(rng.standard_normal((36, 4, 3)))
        u1, u2, v = (rng.standard_normal((4, 2)), rng.standard_normal((3, 2)),
                     rng.standard_normal((3, 2)))
        from mwreg import CpCoefficients, contract

        b = CpCoefficients([u1, u2], [v])
        yt = contract(xt, b.materialize(), 2)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, xt)
        write_tensor(y, yt)
        code = main(["cv", "--x", x, "--y", y, "--ranks", "1,2", "--lambdas",
                     "0.1", "--folds", "3", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected rank=2" in out

    def test_rank_above_a_mode_limit_refused_before_any_row(self, tmp_path, capsys):
        # the rank-1 candidate would fit; the rank-2 one never can on these dims
        rng = np.random.default_rng(0)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, DenseTensor(rng.standard_normal((30, 2))))
        write_tensor(y, DenseTensor(rng.standard_normal(30)))
        code = main(["cv", "--x", x, "--y", y, "--ranks", "1,2", "--lambdas", "0.5",
                     "--folds", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "numerical error: rank 2 is above 1, the number of coefficient cells outside "
            "predictor mode 0, so that mode's subproblem is singular at every penalty; "
            "lower the rank\n")

    def test_too_many_folds(self, capsys):
        code = main(["cv", "--x", TINY_X, "--y", TINY_Y, "--ranks", "1",
                     "--lambdas", "0.5", "--folds", "9"])
        assert code == 1

    def test_single_fold_rejected(self, capsys):
        code = main(["cv", "--x", TINY_X, "--y", TINY_Y, "--ranks", "1",
                     "--lambdas", "0.5", "--folds", "1"])
        assert code == 1

    def test_training_set_too_small_to_center_refused_before_the_header(self, tmp_path, capsys):
        # 2 observations in 2 folds train each candidate on 1, which centering refuses
        rng = np.random.default_rng(5)
        x = os.path.join(tmp_path, "x.mwt")
        y = os.path.join(tmp_path, "y.mwt")
        write_tensor(x, DenseTensor(rng.standard_normal((2, 3))))
        write_tensor(y, DenseTensor(rng.standard_normal((2, 2))))
        argv = ["cv", "--x", x, "--y", y, "--ranks", "1", "--lambdas", "0.5", "--folds", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--folds is 2, which leaves 1 of 2 observations to train on" in captured.err
        # uncentered fits take one observation
        assert main(argv + ["--no-center"]) == 0
        assert capsys.readouterr().out.startswith("rank,lambda,mean_rpe\n1,0.5,")


# (command, flag, invalid values, the owning config's message); each flag
# takes 0, a negative, nan and inf where they apply to its type and range
_BAD_SETTINGS = [
    ("fit", "--rank", ("0", "-1"), "rank must be at least 1"),
    ("fit", "--lambda", ("-0.5", "nan", "inf"), "lam must be finite and non-negative"),
    ("fit", "--max-iters", ("0", "-1"), "max_iters must be at least 1"),
    ("fit", "--tol", ("0", "-1e-8", "nan", "inf"), "rel_tol must be positive"),
    ("fit", "--anneal-steps", ("-1",), "anneal_steps must be non-negative"),
    ("fit", "--restarts", ("0", "-1"), "n_starts must be at least 1"),
    ("gibbs", "--rank", ("0", "-1"), "rank must be at least 1"),
    ("gibbs", "--lambda", ("-0.5", "nan", "inf"), "lam must be finite and non-negative"),
    ("gibbs", "--samples", ("0", "-1"), "n_samples must be at least 1"),
    ("gibbs", "--burn-in", ("-1",), "burn_in must be non-negative"),
    ("gibbs", "--thin", ("0", "-1"), "thin must be at least 1"),
    ("gibbs", "--level", ("0", "-0.5", "1", "nan", "inf"), "credible_level must be in (0, 1)"),
    # a bad candidate after a good one: every candidate is checked before any output
    ("cv", "--ranks", ("0", "-1", "1,0"), "rank must be at least 1"),
    ("cv", "--lambdas", ("-0.5", "nan", "inf", "0.5,nan"), "lam must be finite and non-negative"),
    ("cv", "--folds", ("0", "-1"), "--folds must be at least 2"),
]
_VALID_ARGS = {
    "fit": ["--rank", "1", "--lambda", "0.5"],
    "gibbs": ["--rank", "1", "--lambda", "0.5", "--samples", "5"],
    "cv": ["--ranks", "1", "--lambdas", "0.5", "--folds", "2"],
}


@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(c, f, v, m, id=f"{c} {f}={v}") for c, f, values, m in _BAD_SETTINGS for v in values
])
def test_invalid_setting_is_usage_error(tmp_path, capsys, command, flag, value, message):
    out = [] if command == "cv" else ["--out", os.path.join(tmp_path, "out.json")]
    code = main([command, "--x", TINY_X, "--y", TINY_Y, *_VALID_ARGS[command], *out,
                 f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
    assert not os.listdir(tmp_path)


# the settings no config holds: their defaults belong to the command line
_CLI_OWNED = {"seed", "folds", "parallel"}


def test_only_cli_owned_settings_have_flag_defaults():
    # a config-held setting left off the command line takes the config's default
    _, registry = _build_parsers()
    for command, parser in registry.items():
        for action in parser._actions:
            if isinstance(action, (argparse._StoreTrueAction, argparse._HelpAction)):
                continue
            assert action.default is None or action.dest in _CLI_OWNED, (
                f"mwreg {command} {action.option_strings[0]} has default {action.default!r}")


class _Built(Exception):
    """Raised by a stand-in library call with the config it was given."""


@pytest.mark.parametrize("argv, callee, want", [
    (["fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1", "--out", "m.json"],
     "fit", FitConfig(rank=1)),
    (["gibbs", "--x", TINY_X, "--y", TINY_Y, "--rank", "1", "--out", "d.json"],
     "gibbs", GibbsConfig(rank=1)),
    (["simulate", "--n", "5", "--in-dims", "3", "--rank", "1", "--out-prefix", "s"],
     "simulate", SimSpec(n=5, in_dims=(3,), rank=1)),
])
def test_left_out_flags_take_the_config_defaults(tmp_path, monkeypatch, argv, callee, want):
    def stand_in(*args):
        raise _Built(args[-1])

    monkeypatch.setattr(cli, callee, stand_in)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(_Built) as info:
        main(argv + ["--seed", "0"])
    assert info.value.args[0] == want
    assert not os.listdir(tmp_path)


class TestSimulate:
    def test_writes_three_tensors(self, tmp_path, capsys):
        prefix = os.path.join(tmp_path, "sim")
        code = main(["simulate", "--n", "10", "--in-dims", "3x2",
                     "--out-dims", "2", "--rank", "1", "--snr", "2",
                     "--seed", "5", "--out-prefix", prefix])
        assert code == 0
        x = read_tensor(f"{prefix}_x.mwt")
        y = read_tensor(f"{prefix}_y.mwt")
        b = read_tensor(f"{prefix}_b.mwt")
        assert x.dims == (10, 3, 2) and y.dims == (10, 2) and b.dims == (3, 2, 2)

    def test_rank_zero_writes_zero_coefficients(self, tmp_path):
        prefix = os.path.join(tmp_path, "null")
        code = main(["simulate", "--n", "6", "--in-dims", "3", "--out-dims",
                     "2", "--rank", "0", "--out-prefix", prefix])
        assert code == 0
        assert not read_tensor(f"{prefix}_b.mwt").array.any()

    def test_correlated_error_path(self, tmp_path):
        prefix = os.path.join(tmp_path, "corr")
        code = main(["simulate", "--n", "6", "--in-dims", "3", "--out-dims",
                     "3x4", "--rank", "1", "--correlation", "corr_e",
                     "--rho", "0.6", "--out-prefix", prefix])
        assert code == 0

    def test_invalid_rho_flag_is_usage_error(self, tmp_path, capsys):
        prefix = os.path.join(tmp_path, "bad")
        code = main(["simulate", "--n", "6", "--in-dims", "3", "--out-dims",
                     "3x4", "--rank", "1", "--correlation", "corr_e",
                     "--rho", "1.5", "--out-prefix", prefix])
        assert code == 1
        assert "rho" in capsys.readouterr().err

    def test_invalid_rho_in_spec_file_is_data_error(self, tmp_path, capsys):
        spec = os.path.join(tmp_path, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"n": 6, "in_dims": [3], "out_dims": [3, 4], "rank": 1,
                       "correlation": "corr_e", "rho": 1.5}, fh)
        code = main(["simulate", "--spec", spec,
                     "--out-prefix", os.path.join(tmp_path, "s")])
        assert code == 2

    @pytest.mark.parametrize("field, value", [("n", "30"), ("rank", 1.5), ("in_dims", 3),
                                              ("snr", None)])
    def test_wrongly_typed_spec_field_is_data_error(self, tmp_path, capsys, field, value):
        spec = os.path.join(tmp_path, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"n": 30, "in_dims": [3], "rank": 1, field: value}, fh)
        code = main(["simulate", "--spec", spec,
                     "--out-prefix", os.path.join(tmp_path, "s")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: {field} must be")
        assert os.listdir(tmp_path) == ["spec.json"]

    @pytest.mark.parametrize("flags, config, named", [
        (["--n", "99", "--rank", "2"], None, "--n --rank"),
        (["--in-dims", "4x2", "--out-dims", "3"], None, "--in-dims --out-dims"),
        (["--snr", "2", "--correlation", "corr_x", "--rho", "0.3"], None,
         "--snr --correlation --rho"),
        ([], "n=99\nrho=0.3\n", "--n --rho"),
    ])
    def test_spec_refuses_the_generator_flags_it_replaces(self, tmp_path, capsys, flags, config,
                                                          named):
        spec = os.path.join(tmp_path, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"n": 10, "in_dims": [3, 2], "rank": 1}, fh)
        if config is not None:
            cfg = os.path.join(tmp_path, "sim.cfg")
            with open(cfg, "w") as fh:
                fh.write(config)
            flags = flags + ["--config", cfg]
        before = sorted(os.listdir(tmp_path))
        code = main(["simulate", "--spec", spec, "--out-prefix", os.path.join(tmp_path, "s"),
                     *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"usage error: --spec cannot be combined with {named}\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_spec_uses_the_files_seed(self, tmp_path, capsys):
        spec = os.path.join(tmp_path, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"n": 10, "in_dims": [3, 2], "rank": 1, "seed": 6}, fh)
        for prefix, seed in (("a", "6"), ("b", "7")):
            assert main(["simulate", "--spec", spec, "--seed", seed,
                         "--out-prefix", os.path.join(tmp_path, prefix)]) == 0
        assert _sha(os.path.join(tmp_path, "a_y.mwt")) == _sha(os.path.join(tmp_path, "b_y.mwt"))

    def test_spec_file_unknown_key(self, tmp_path, capsys):
        spec = os.path.join(tmp_path, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"n": 6, "in_dims": [3], "rank": 1, "bogus": 1}, fh)
        code = main(["simulate", "--spec", spec,
                     "--out-prefix", os.path.join(tmp_path, "s")])
        assert code == 2


class TestExperiment:
    def test_smoke_grid(self, tmp_path, capsys):
        grid = {
            "n": [15], "snr": [1.0], "true_ranks": [0, 1],
            "in_dims": [3, 2], "out_dims": [2], "fit_ranks": [1],
            "lambdas": [0.5, 5.0], "replicates": 2, "seed": 77,
            "test_n": 40, "gibbs_samples": 10,
        }
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        out = os.path.join(tmp_path, "results.csv")
        code = main(["experiment", "--grid", grid_path, "--out", out])
        assert code == 0
        report = capsys.readouterr().out
        assert "cells 4" in report and "failures 0" in report
        with open(out) as fh:
            rows = fh.read().splitlines()
        # header + 4 cells x (2 replicate rows + mean + se)
        assert len(rows) == 1 + 4 * 4

    def test_parallel_matches_serial_bytes(self, tmp_path):
        grid = {
            "n": [15], "snr": [1.0], "true_ranks": [1],
            "in_dims": [3, 2], "out_dims": [2], "fit_ranks": [1, 2],
            "lambdas": [0.5], "replicates": 2, "seed": 78,
            "test_n": 40, "gibbs_samples": 10,
        }
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        o1 = os.path.join(tmp_path, "r1.csv")
        o2 = os.path.join(tmp_path, "r2.csv")
        assert main(["experiment", "--grid", grid_path, "--out", o1]) == 0
        assert main(["experiment", "--grid", grid_path, "--out", o2,
                     "--parallel", "2"]) == 0
        assert _sha(o1) == _sha(o2)

    @pytest.mark.parametrize("key, value", [("n", 30), ("in_dims", 3)])
    def test_wrongly_typed_grid_key_is_data_error(self, tmp_path, capsys, key, value):
        grid = {
            "n": [15], "snr": [1.0], "true_ranks": [1], "in_dims": [3, 2], "out_dims": [2],
            "fit_ranks": [1], "lambdas": [0.5], "replicates": 1, "seed": 79, key: value,
        }
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        out = os.path.join(tmp_path, "r.csv")
        assert main(["experiment", "--grid", grid_path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {grid_path}: grid key '{key}' must be a list, got {value}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value, noun", [
        ("n", [30.7], "an integer"), ("true_ranks", [True], "an integer"),
        ("n", ["30"], "an integer"), ("snr", ["25"], "a number"),
    ])
    def test_grid_value_of_the_wrong_json_type_is_data_error(self, tmp_path, capsys, key, value,
                                                             noun):
        grid = {
            "n": [15], "snr": [1.0], "true_ranks": [1], "in_dims": [3, 2], "out_dims": [2],
            "fit_ranks": [1], "lambdas": [0.5], "replicates": 1, "seed": 79, key: value,
        }
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        out = os.path.join(tmp_path, "r.csv")
        assert main(["experiment", "--grid", grid_path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {grid_path}: grid key '{key}' must be {noun}, got {value[0]!r}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value, message", [
        ("fit_ranks", [1, 0], "rank must be at least 1"),
        ("lambdas", [-1.0], "lam must be finite and non-negative"),
        ("replicates", 0, "replicates must be positive"),
        ("test_n", 0, "test_n must be positive"),
        ("gibbs_samples", -1, "gibbs_samples must be non-negative"),
        ("gibbs_samples", 1, "gibbs_samples must be 0 or at least 2: an interval needs two draws"),
        ("true_ranks", [-1], "rank must be non-negative"),
    ])
    def test_out_of_range_procedure_value_is_data_error(self, tmp_path, capsys, monkeypatch,
                                                        key, value, message):
        def no_cell_runs(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_grid", no_cell_runs)
        grid = {
            "n": [15], "snr": [1.0], "true_ranks": [1], "in_dims": [3, 2], "out_dims": [2],
            "fit_ranks": [1], "lambdas": [0.5], "replicates": 1, "seed": 79, key: value,
        }
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        out = os.path.join(tmp_path, "r.csv")
        assert main(["experiment", "--grid", grid_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # a list key whose config field has another name is named in the message
        named = (f"grid key {key!r} holds {value[-1]!r}: "
                 if key in ("fit_ranks", "lambdas", "true_ranks") else "")
        assert captured.err == f"error: {grid_path}: {named}{message}\n"
        assert not os.path.exists(out)

    def test_bad_grid_key(self, tmp_path, capsys):
        grid_path = os.path.join(tmp_path, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump({"n": [10]}, fh)
        code = main(["experiment", "--grid", grid_path,
                     "--out", os.path.join(tmp_path, "r.csv")])
        assert code == 2


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("mwreg")
        if exe is None:
            pytest.skip("console script not installed")
        out = os.path.join(tmp_path, "model.json")
        proc = subprocess.run(
            [exe, "fit", "--x", TINY_X, "--y", TINY_Y, "--rank", "1",
             "--lambda", "0.5", "--seed", "0", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "model written to" in proc.stdout

    def test_module_entry_point(self, tmp_path):
        out = os.path.join(tmp_path, "model.json")
        src = os.path.dirname(os.path.dirname(mwreg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "mwreg.cli", "fit", "--x", TINY_X, "--y", TINY_Y,
             "--rank", "1", "--lambda", "0.5", "--seed", "0", "--out", out],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "model written to" in proc.stdout
        in_process = tmp_path / "in_process"
        in_process.mkdir()
        code, want = _fit_tiny(in_process)
        assert code == 0
        assert _sha(out) == _sha(want)
