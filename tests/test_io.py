"""File format tests: bit-exact round trips and malformed-input errors."""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitConfig,
    GibbsConfig,
    fit,
    gibbs,
    read_draws,
    read_model,
    read_tensor,
    write_draws,
    write_model,
    write_tensor,
)


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestTensorFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for dims in [(5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)]:
            t = DenseTensor(rng.standard_normal(dims))
            path = os.path.join(tmp_path, "t.mwt")
            write_tensor(path, t)
            back = read_tensor(path)
            assert back.dims == t.dims
            assert np.array_equal(back.array, t.array)

    def test_extreme_magnitudes_round_trip(self, tmp_path):
        vals = np.array([1e300, -1e300, 1e-300, -0.0, 0.0, np.pi])
        t = DenseTensor(vals)
        path = os.path.join(tmp_path, "x.mwt")
        write_tensor(path, t)
        assert np.array_equal(read_tensor(path).array, vals)

    def test_layout_is_first_index_fastest(self, tmp_path):
        t = DenseTensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
        path = os.path.join(tmp_path, "m.mwt")
        write_tensor(path, t)
        lines = open(path).read().splitlines()
        assert lines[0] == "mwt 1"
        assert lines[1] == "2"
        assert lines[2] == "2 2"
        assert [float(v) for v in lines[3].split()] == [1.0, 2.0, 3.0, 4.0]

    def test_eight_values_per_line(self, tmp_path):
        t = DenseTensor(np.arange(20.0))
        path = os.path.join(tmp_path, "v.mwt")
        write_tensor(path, t)
        lines = open(path).read().splitlines()
        assert [len(l.split()) for l in lines[3:]] == [8, 8, 4]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = DenseTensor(rng.standard_normal((4, 3)))
        path = os.path.join(tmp_path, "m.csv")
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dims == (4, 3)
        assert np.array_equal(back.array, t.array)

    def test_csv_single_row(self, tmp_path):
        path = os.path.join(tmp_path, "r.csv")
        with open(path, "w") as fh:
            fh.write("1.5,2.5,3.5\n")
        assert read_tensor(path).dims == (1, 3)

    def test_csv_rejects_higher_order(self, tmp_path):
        t = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="order-2"):
            write_tensor(os.path.join(tmp_path, "t.csv"), t)

    def test_malformed_files(self, tmp_path):
        cases = {
            "count.mwt": "mwt 1\n2\n2 2\n1 2 3\n",
            "order.mwt": "mwt 1\n3\n2 2\n1 2 3 4\n",
            "dims.mwt": "mwt 1\n2\n2 0\n\n",
            "parse.mwt": "mwt 1\n2\n2 2\n1 2 three 4\n",
            "inf.mwt": "mwt 1\n1\n2\n1 inf\n",
            "text.csv": "not,numbers\nat,all\n",
        }
        for name, content in cases.items():
            path = os.path.join(tmp_path, name)
            with open(path, "w") as fh:
                fh.write(content)
            with pytest.raises(ValueError):
                read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(os.path.join(tmp_path, "nope.mwt"))


def _rewrite(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _edited(path, edit):
    """The JSON text of the file at path after edit(payload)."""
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    return json.dumps(payload)


def _fit_pair(rng, center=True):
    x = DenseTensor(rng.standard_normal((12, 3, 2)))
    y = DenseTensor(rng.standard_normal((12, 2, 2)))
    res = fit(x, y, FitConfig(rank=2, lam=0.5, seed=3, center_data=center))
    return x, y, res


class TestModelFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        _, _, res = _fit_pair(rng)
        path = os.path.join(tmp_path, "model.json")
        write_model(path, res, lam=0.5, seed=3)
        back, lam, seed = read_model(path)
        assert lam == 0.5 and seed == 3
        for fa, fb in zip(res.coefficients.factors, back.coefficients.factors):
            assert np.array_equal(fa, fb)
        assert np.array_equal(res.x_offsets, back.x_offsets)
        assert np.array_equal(res.y_offsets, back.y_offsets)
        assert back.objective_trace[-1] == res.objective_trace[-1]
        assert back.iterations == res.iterations
        assert back.converged == res.converged

    def test_uncentered_offsets_stay_none(self, tmp_path):
        rng = np.random.default_rng(3)
        _, _, res = _fit_pair(rng, center=False)
        path = os.path.join(tmp_path, "model.json")
        write_model(path, res, lam=0.5, seed=3)
        back, _, _ = read_model(path)
        assert back.x_offsets is None and back.y_offsets is None

    def test_serialization_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        _, _, res = _fit_pair(rng)
        p1 = os.path.join(tmp_path, "a.json")
        p2 = os.path.join(tmp_path, "b.json")
        write_model(p1, res, lam=0.5, seed=3)
        write_model(p2, res, lam=0.5, seed=3)
        assert _sha(p1) == _sha(p2)

    def test_wrong_format_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "w.json")
        with open(path, "w") as fh:
            fh.write('{"format":"other"}\n')
        with pytest.raises(ValueError, match="model"):
            read_model(path)

    def test_malformed_content_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        path = os.path.join(tmp_path, "m.json")
        write_model(path, _fit_pair(rng)[2], lam=0.5, seed=3)
        short_factor = _edited(
            path, lambda p: p["coefficients"]["predictor_factors"][0].update(values=[1.0])
        )
        for text in ('{"format":"mwreg-model"}', "[]", '{"format":', short_factor):
            _rewrite(path, text)
            with pytest.raises(ValueError, match=re.escape(path) + ": malformed model file"):
                read_model(path)


class TestDrawsFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        x = DenseTensor(rng.standard_normal((10, 3)))
        y = DenseTensor(rng.standard_normal((10, 2)))
        draws = gibbs(x, y, GibbsConfig(rank=1, n_samples=5, lam=0.7, seed=6))
        path = os.path.join(tmp_path, "draws.json")
        write_draws(path, draws, lam=0.7, seed=6)
        back, lam, seed = read_draws(path)
        assert lam == 0.7 and seed == 6
        assert np.array_equal(back.sigma2s, draws.sigma2s)
        assert len(back) == len(draws)
        for ba, bb in zip(draws.coefficients, back.coefficients):
            for fa, fb in zip(ba.factors, bb.factors):
                assert np.array_equal(fa, fb)
        for fa, fb in zip(
            draws.mode.coefficients.factors, back.mode.coefficients.factors
        ):
            assert np.array_equal(fa, fb)
        assert np.array_equal(draws.mode.x_offsets, back.mode.x_offsets)

    def test_wrong_format_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "w.json")
        with open(path, "w") as fh:
            fh.write('{"format":"mwreg-model"}\n')
        with pytest.raises(ValueError, match="draws"):
            read_draws(path)

    def _draws_file(self, tmp_path):
        x = DenseTensor(np.random.default_rng(7).standard_normal((10, 3)))
        y = DenseTensor(np.random.default_rng(8).standard_normal((10, 2)))
        draws = gibbs(x, y, GibbsConfig(rank=1, n_samples=4, lam=0.7, seed=6))
        path = os.path.join(tmp_path, "draws.json")
        write_draws(path, draws, lam=0.7, seed=6)
        return path

    def _rejects(self, path, text, match):
        _rewrite(path, text)
        with pytest.raises(ValueError, match=re.escape(path) + ": malformed draws file: " + match):
            read_draws(path)

    def test_malformed_content_rejected(self, tmp_path):
        path = self._draws_file(tmp_path)
        no_mode = _edited(path, lambda p: p.pop("mode"))
        for text in ('{"format":"mwreg-draws"}', "[]", "{", no_mode):
            self._rejects(path, text, "")

    def test_sigma2_length_must_match_samples(self, tmp_path):
        path = self._draws_file(tmp_path)
        self._rejects(path, _edited(path, lambda p: p["sigma2"].pop()), "sigma2 holds 3 values")

    def test_sigma2_entries_must_be_finite_and_positive(self, tmp_path):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            path = self._draws_file(tmp_path)

            def set_bad(payload):
                payload["sigma2"][1] = bad

            self._rejects(path, _edited(path, set_bad), "sigma2 values")

    def test_samples_must_match_the_mode(self, tmp_path):
        path = self._draws_file(tmp_path)

        def shorter_outcome(payload):
            payload["samples"][2]["outcome_factors"][0] = {"rows": 1, "values": [0.5]}

        def wider_rank(payload):
            sample = payload["samples"][1]
            sample["rank"] = 2
            for item in sample["predictor_factors"] + sample["outcome_factors"]:
                item["values"] = item["values"] * 2

        self._rejects(path, _edited(path, shorter_outcome),
                      re.escape("sample 2 has dims (3,) -> (1,) at rank 1, the mode has (3,) -> (2,)"))
        self._rejects(path, _edited(path, wider_rank), "sample 1 has dims .* at rank 2")
