"""File format tests: bit-exact round trips and malformed-input errors."""

import hashlib
import json
import os
import re
import tempfile
import threading
import tracemalloc
import zlib
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitConfig,
    FitResult,
    GibbsConfig,
    PosteriorDraws,
    SimSpec,
    credible_intervals,
    fit,
    gibbs,
    posterior_predictive,
    read_draws,
    read_model,
    read_tensor,
    simulate,
    write_draws,
    write_model,
    write_tensor,
)
from mwreg.cli import _PREDICTIVE_STREAM, _interval_rows, main
import mwreg.fileio as fileio
from reference import mwt2_bytes


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
        payload = np.array([1.0, 2.0, 3.0, 4.0]).astype("<f8").tobytes()
        with open(path, "rb") as fh:
            assert fh.read() == b"mwt 2\n2\n2 2\n" + payload + b"end %08x\n" % zlib.crc32(payload)

    def test_eight_bytes_per_value(self, tmp_path):
        t = DenseTensor(np.arange(20.0))
        path = os.path.join(tmp_path, "v.mwt")
        write_tensor(path, t)
        with open(path, "rb") as fh:
            raw = fh.read()
        header, end = b"mwt 2\n1\n20\n", len(b"end 00000000\n")
        assert len(raw) == len(header) + 8 * 20 + end
        values = np.frombuffer(raw, dtype="<f8", count=20, offset=len(header))
        assert values.tolist() == list(range(20))

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
            "count.mwt": _v2((2, 2), [1, 2, 3]),
            "order.mwt": _v2((2, 2), [1, 2, 3, 4]).replace(b"\n2\n", b"\n3\n", 1),
            "dims.mwt": _v2((2, 0), []),
            "parse.mwt": _v2((2, 2), [1, 2, 3, 4]).replace(b"\n2 2\n", b"\n2 two\n", 1),
            "inf.mwt": _v2((2,), [1, np.inf]),
            "text.csv": b"not,numbers\nat,all\n",
        }
        for name, content in cases.items():
            path = os.path.join(tmp_path, name)
            with open(path, "wb") as fh:
                fh.write(content)
            with pytest.raises(ValueError):
                read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(os.path.join(tmp_path, "nope.mwt"))


# doubles at the edges of the format: signed zero, the smallest subnormal, a
# subnormal with few digits, the largest finite value, an exact power of ten
# and a value with no short binary form
_EDGE_VALUES = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, 1e22, 0.1]


def _mwt2(t):
    """The version-2 file of t, spelled out from the format's definition."""
    return mwt2_bytes(t.dims, t.array.ravel(order="F").astype("<f8").tobytes())


# the values the version-1 writer formatted at once, and the writer's slab size
_V1_BLOCK = 1024 * 8
_SLAB = fileio._WRITE_VALUES


def _dims_of(size, order):
    """order dims with product size: small factors first, then 1s."""
    dims = []
    rest = size
    for _ in range(order - 1):
        f = next((p for p in range(2, 8) if rest % p == 0), 1)
        dims.append(f)
        rest //= f
    return tuple(dims) + (rest,)


def _edge_array(rng, size):
    """size doubles over the whole exponent range, edge values at both ends."""
    vals = rng.standard_normal(size) * 10.0 ** rng.uniform(-320, 300, size)
    k = min(len(_EDGE_VALUES), size)
    vals[:k] = _EDGE_VALUES[:k]
    vals[size - k:] = [-v for v in _EDGE_VALUES[:k]]
    return vals


class TestWriterBytes:
    """The writers emit exactly the bytes their formats define."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, _V1_BLOCK - 1, _V1_BLOCK, _V1_BLOCK + 1,
                                      3 * _V1_BLOCK + 5, _SLAB - 1, _SLAB, _SLAB + 1,
                                      3 * _SLAB + 5])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_tensor_bytes_are_header_payload_and_end_line(self, tmp_path, size, order, layout):
        rng = np.random.default_rng(size * 10 + order)
        vals = _edge_array(rng, size).reshape(_dims_of(size, order), order="F")
        t = DenseTensor(np.asarray(vals, order=layout))
        assert t.array.flags[f"{layout}_CONTIGUOUS"]
        path = os.path.join(tmp_path, "t.mwt")
        write_tensor(path, t)
        with open(path, "rb") as fh:
            assert fh.read() == _mwt2(t)
        back = read_tensor(path)
        assert back.dims == t.dims
        assert back.array.tobytes() == t.array.tobytes()

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 7, 16])
    def test_slab_writer_at_small_limits(self, tmp_path, monkeypatch, limit):
        # C-ordered and axis-permuted arrays go a slab, or a cut of one, at a time
        monkeypatch.setattr(fileio, "_WRITE_VALUES", limit)
        rng = np.random.default_rng(limit)
        arrays = [rng.standard_normal(dims) for dims in [(9,), (4, 5), (3, 4, 5), (2, 3, 2, 4)]]
        arrays += [np.asfortranarray(a) for a in arrays[1:]]
        arrays += [rng.standard_normal((3, 4, 5)).transpose(1, 0, 2),
                   rng.standard_normal((6, 2, 3))[::2]]
        path = os.path.join(tmp_path, "t.mwt")
        for arr in arrays:
            t = DenseTensor(arr)
            write_tensor(path, t)
            with open(path, "rb") as fh:
                assert fh.read() == _mwt2(t)
            assert _same_bits(read_tensor(path).array, arr)

    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_write_makes_no_whole_array_copy(self, tmp_path, layout):
        arr = np.asarray(np.random.default_rng(3).standard_normal((400, 30, 50)), order=layout)
        t = DenseTensor(arr)
        path = os.path.join(tmp_path, "t.mwt")
        tracemalloc.start()
        try:
            write_tensor(path, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the array is 4.8 MB; a piece is at most _WRITE_VALUES doubles, and
        # the writer holds one piece while the next is cut
        assert peak < 2 * 8 * fileio._WRITE_VALUES + (1 << 16)
        with open(path, "rb") as fh:
            assert fh.read() == _mwt2(t)

    @pytest.mark.parametrize("dims", [(7,), (7, 3), (5, 2, 3), (4, 2, 2, 3)])
    def test_interval_rows_equal_per_cell_formatting(self, dims):
        rng = np.random.default_rng(len(dims))
        size = int(np.prod(dims))
        lo = DenseTensor(_edge_array(rng, size).reshape(dims, order="F"))
        hi = DenseTensor(_edge_array(rng, size).reshape(dims, order="F"))
        idx = np.unravel_index(np.arange(size), dims, order="F")
        lo_v, hi_v = lo.array.ravel(order="F"), hi.array.ravel(order="F")
        want = [
            "x".join(str(int(idx[d][k]) + 1) for d in range(len(dims)))
            + f",{lo_v[k]:.17g},{hi_v[k]:.17g}"
            for k in range(size)
        ]
        assert _interval_rows(lo, hi) == want

    @pytest.mark.parametrize("out_dims", [(), (3,), (2, 3), (2, 1, 2)])
    def test_intervals_file_equals_per_cell_formatting(self, tmp_path, out_dims):
        # the intervals are recomputed from the written draws, which read back
        # bit-exactly, with the predictive stream the command uses
        x, y, _ = simulate(SimSpec(n=24, in_dims=(3, 2), out_dims=out_dims, rank=1, seed=5))
        x_new, _, _ = simulate(SimSpec(n=6, in_dims=(3, 2), out_dims=out_dims, rank=1, seed=6))
        paths = {name: os.path.join(tmp_path, f"{name}.mwt") for name in ("x", "y", "x_new")}
        for name, t in (("x", x), ("y", y), ("x_new", x_new)):
            write_tensor(paths[name], t)
        draws_path = os.path.join(tmp_path, "draws.json")
        ivals = os.path.join(tmp_path, "intervals.csv")
        assert main(["gibbs", "--x", paths["x"], "--y", paths["y"], "--rank", "1",
                     "--lambda", "0.5", "--samples", "40", "--seed", "4", "--level", "0.9",
                     "--x-new", paths["x_new"], "--intervals-out", ivals,
                     "--out", draws_path]) == 0
        draws, _, seed = read_draws(draws_path)
        rng = np.random.default_rng(np.random.SeedSequence((seed, _PREDICTIVE_STREAM)))
        lo, hi = credible_intervals(posterior_predictive(read_tensor(paths["x_new"]), draws, rng), 0.9)
        idx = np.unravel_index(np.arange(lo.array.size), lo.dims, order="F")
        lo_v, hi_v = lo.array.ravel(order="F"), hi.array.ravel(order="F")
        want = ["cell,lo,hi"] + [
            "x".join(str(int(idx[d][k]) + 1) for d in range(lo.order))
            + f",{lo_v[k]:.17g},{hi_v[k]:.17g}"
            for k in range(lo_v.size)
        ]
        assert lo.dims == (6,) + out_dims
        with open(ivals, "rb") as fh:
            assert fh.read() == ("\n".join(want) + "\n").encode()


# finite doubles, -0.0 and subnormals included
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _fit_records(draw, centered=None):
    """A FitResult with random dims, rank and finite values, offsets or none."""
    rank = draw(st.integers(1, 3))
    in_dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple))
    out_dims = draw(st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple))
    dims = in_dims + out_dims
    factors = [draw(hnp.arrays(float, (d, rank), elements=_FINITE)) for d in dims]
    if centered is None:
        centered = draw(st.booleans())
    x_off = draw(hnp.arrays(float, in_dims, elements=_FINITE)) if centered else None
    y_off = draw(hnp.arrays(float, out_dims, elements=_FINITE)) if centered else None
    return FitResult(
        coefficients=CpCoefficients(factors[:len(in_dims)], factors[len(in_dims):]),
        objective_trace=[draw(_FINITE)],
        substep_trace=[],
        converged=draw(st.booleans()),
        iterations=draw(st.integers(1, 10**6)),
        x_offsets=x_off,
        y_offsets=y_off,
    )


def _assert_same_fit(a, b):
    for fa, fb in zip(a.coefficients.factors, b.coefficients.factors, strict=True):
        assert _same_bits(fa, fb)
    assert (a.coefficients.in_dims, a.coefficients.out_dims) == (
        b.coefficients.in_dims, b.coefficients.out_dims)
    assert _same_bits(a.objective_trace[-1], b.objective_trace[-1])
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    for oa, ob in ((a.x_offsets, b.x_offsets), (a.y_offsets, b.y_offsets)):
        assert (oa is None) == (ob is None)
        if oa is not None:
            assert _same_bits(oa, ob)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
                      elements=_FINITE))
    def test_tensor_round_trip_is_bit_exact(self, arr):
        t = DenseTensor(arr)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.mwt")
            write_tensor(path, t)
            with open(path, "rb") as fh:
                assert fh.read() == _mwt2(t)
            back = read_tensor(path)
        assert back.dims == t.dims
        assert _same_bits(back.array, t.array)

    @settings(max_examples=30, deadline=None)
    @given(_fit_records(), _FINITE, st.integers(0, 2**63 - 1))
    def test_model_round_trip_is_bit_exact(self, record, lam, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            write_model(path, record, lam, seed)
            back, lam_back, seed_back = read_model(path)
        _assert_same_fit(record, back)
        assert _same_bits(lam_back, lam) and seed_back == seed

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_draws_round_trip_is_bit_exact(self, data):
        # random draw counts, ranks and dims: 1-3 predictor and 0-2 outcome modes
        mode = data.draw(_fit_records())
        m = mode.coefficients
        n = data.draw(st.integers(1, 4))
        pred, out = ([data.draw(hnp.arrays(float, (n, d, m.rank), elements=_FINITE)) for d in dims]
                     for dims in (m.in_dims, m.out_dims))
        positive = st.floats(min_value=5e-324, allow_infinity=False, width=64)
        sigma2s = data.draw(hnp.arrays(float, (n,), elements=positive))
        draws = PosteriorDraws(pred, out, sigma2s, mode)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "draws.json")
            write_draws(path, draws, 0.5, 7)
            with open(path) as fh:
                text = fh.read()
            back, _, _ = read_draws(path)
        assert _same_bits(back.sigma2s, sigma2s)
        assert len(back) == n
        for a, b in zip(pred + out, back.predictor_factors + back.outcome_factors, strict=True):
            assert _same_bits(a, b)
        _assert_same_fit(mode, back.mode)
        # the version 1 text: one coefficients record per draw
        samples = [{"rank": m.rank, **{
            key: [{"rows": f.shape[0], "values": f.ravel(order="F").tolist()} for f in fs]
            for key, fs in (("predictor_factors", b.predictor_factors),
                            ("outcome_factors", b.outcome_factors))}}
            for b in draws.coefficients]
        want = {"format": "mwreg-draws", "version": 1, "lam": 0.5, "seed": 7,
                "sigma2": sigma2s.tolist(), "samples": samples, "mode": json.loads(text)["mode"]}
        assert text == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


class TestChunkedReader:
    # chunk sizes that cut inside values and inside the end line
    CHUNKS = (1, 2, 3, 5, 7, 16)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                      elements=_FINITE), st.sampled_from(CHUNKS))
    def test_round_trip_at_small_chunks(self, arr, chunk):
        t = DenseTensor(arr)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_READ_CHUNK", chunk):
            path = os.path.join(tmp, "t.mwt")
            write_tensor(path, t)
            back = read_tensor(path)
        assert back.dims == t.dims
        assert _same_bits(back.array, t.array)

    @pytest.mark.parametrize("chunk", (7, 1 << 20))
    def test_reads_from_a_pipe(self, tmp_path, monkeypatch, chunk):
        # a FIFO reports no size, so a reader that trusted one would lose the values
        monkeypatch.setattr(fileio, "_READ_CHUNK", chunk)
        t = DenseTensor(np.arange(24.0).reshape(2, 3, 4) / 7.0 - 1.5)
        data = _mwt2(t)
        fifo = os.path.join(tmp_path, "fifo.mwt")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as out:
                out.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            back = read_tensor(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert back.dims == t.dims
        assert _same_bits(back.array, t.array)


def _v2(dims, values, end=None):
    """A version-2 file of the given values, its end line replaced when end is given."""
    data = mwt2_bytes(dims, np.array(values, dtype="<f8").tobytes())
    return data if end is None else data[:-len(b"end 00000000\n")] + end


class TestVersion2Reader:
    @pytest.mark.parametrize("chunk", (3, 1 << 20))
    def test_malformed_files_are_named_and_refused(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_READ_CHUNK", chunk)
        good = _v2((2, 2), [1, 2, 3, 4])
        crc = good[-9:-1].decode()
        # one bit of the first value flipped
        h = len(b"mwt 2\n2\n2 2\n")
        flipped = bytearray(good)
        flipped[h] ^= 0x01
        flipped_crc = f"{zlib.crc32(flipped[h:h + 32]):08x}"
        cases = {
            "few.mwt": (_v2((2, 2), [1, 2, 3]),
                        "expected 32 bytes of 4 values for dims (2, 2), found 24"),
            "many.mwt": (_v2((2, 2), [1, 2, 3, 4, 5]),
                         "more than the 32 bytes of 4 values for dims (2, 2) before the end line"),
            "no_end.mwt": (_v2((2, 2), [1, 2, 3, 4], end=b""), "missing or altered end line"),
            "capital.mwt": (_v2((2, 2), [1, 2, 3, 4], end=f"End {crc}\n".encode()),
                            "missing or altered end line"),
            "short_crc.mwt": (_v2((2, 2), [1, 2, 3, 4], end=f"end {crc[1:]}\n".encode()),
                              "missing or altered end line"),
            "no_newline.mwt": (good[:-1], "missing or altered end line"),
            "crlf.mwt": (good[:-1] + b"\r\n", "more than the 32 bytes of 4 values for dims (2, 2) "
                                               "before the end line"),
            "flipped.mwt": (bytes(flipped),
                            f"checksum {flipped_crc} of the values does not match the end line's {crc}"),
            "nan.mwt": (_v2((1, 3), [1, np.nan, 2]), "values must be finite"),
            "inf.mwt": (_v2((2,), [1, -np.inf]), "values must be finite"),
            "order.mwt": (good.replace(b"\n2\n", b"\n3\n", 1), "dim count 2 does not match order 3"),
            "dims.mwt": (_v2((2, 0), []), "dims must be positive"),
            # digit grouping, which int() allows, in the dims and order lines
            "underscore.mwt": (_v2((10,), range(10)).replace(b"\n10\n", b"\n1_0\n", 1),
                               "malformed tensor file: invalid literal for int() with base 10: "
                               "'1_0'"),
            "underscore_order.mwt": (_v2((10,) * 10, []).replace(b"\n10\n", b"\n1_0\n", 1),
                                     "malformed tensor file: invalid literal for int() with "
                                     "base 10: '1_0\\n'"),
            "cut_header.mwt": (b"mwt 2\n2\n2 2", "malformed tensor file: header line b'2 2' is "
                                                  "cut short or too long"),
        }
        for name, (content, message) in cases.items():
            path = os.path.join(tmp_path, name)
            with open(path, "wb") as fh:
                fh.write(content)
            with pytest.raises(ValueError) as info:
                read_tensor(path)
            assert str(info.value) == f"{path}: {message}", name

    def test_huge_header_is_refused_without_a_large_allocation(self, tmp_path):
        # the header asks for 8e15 bytes; the reader allocates what the file holds
        path = os.path.join(tmp_path, "huge.mwt")
        with open(path, "wb") as fh:
            fh.write(_v2((3,), [1, 2, 3]).replace(b"\n1\n3\n", b"\n3\n100000 100000 100000\n"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"{path}: expected 8000000000000000 bytes of 1000000000000000 values for dims "
            "(100000, 100000, 100000), found 24")
        # one read of at most _READ_CHUNK bytes, never 8e15
        assert peak < 2 * fileio._READ_CHUNK

    def test_every_proper_prefix_is_refused(self, tmp_path, capsys):
        # a cut anywhere, inside the header, a value or the end line, exits 2
        x = DenseTensor(np.random.default_rng(8).standard_normal((4, 2)))
        y = DenseTensor(np.random.default_rng(9).standard_normal((4,)))
        model = os.path.join(tmp_path, "m.json")
        write_model(model, fit(x, y, FitConfig(rank=1, lam=0.5)), 0.5, 0)
        path, out = os.path.join(tmp_path, "x.mwt"), os.path.join(tmp_path, "p.mwt")
        write_tensor(path, x)
        with open(path, "rb") as fh:
            data = fh.read()
        assert main(["predict", "--model", model, "--x", path, "--out", out]) == 0
        os.remove(out)
        for cut in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
                read_tensor(path)
            capsys.readouterr()
            assert main(["predict", "--model", model, "--x", path, "--out", out]) == 2, cut
            assert capsys.readouterr().err.startswith(f"error: {path}: ")
            assert not os.path.exists(out)

    def test_readme_recipe_reads_what_the_writer_wrote(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        recipe = next(b for b in blocks if "def read_mwt2" in b)
        namespace = {}
        exec(recipe, namespace)
        rng = np.random.default_rng(12)
        for dims in [(1,), (5,), (3, 4), (2, 3, 4)]:
            t = DenseTensor(np.asarray(_edge_array(rng, prod(dims)).reshape(dims), order="C"))
            path = os.path.join(tmp_path, "t.mwt")
            write_tensor(path, t)
            assert _same_bits(namespace["read_mwt2"](path), t.array)


class TestOtherVersions:
    @pytest.mark.parametrize("version", ("1", "3"))
    def test_other_versions_are_refused_before_the_csv_reader(self, tmp_path, capsys, version):
        # a version-1 file's header and decimal values, and the same text marked version 3
        path = os.path.join(tmp_path, "v.mwt")
        with open(path, "w") as fh:
            fh.write(f"mwt {version}\n2\n2 2\n1 2 3 4\n")
        message = f"{path}: tensor file version {version} is not supported; this reader reads 2"
        no_csv = mock.patch.object(fileio, "_read_csv", side_effect=AssertionError("CSV read"))
        with no_csv, pytest.raises(ValueError) as info:
            read_tensor(path)
        assert str(info.value) == message
        x = DenseTensor(np.random.default_rng(8).standard_normal((4, 2)))
        model, out = os.path.join(tmp_path, "m.json"), os.path.join(tmp_path, "p.mwt")
        write_model(model, fit(x, DenseTensor(x.array[:, 0]), FitConfig(rank=1, lam=0.5)), 0.5, 0)
        capsys.readouterr()
        with no_csv:
            assert main(["predict", "--model", model, "--x", path, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not os.path.exists(out)

    def test_fixtures_hold_their_values(self):
        # the CLI tests' example tensors, rewritten as version 2 from their version-1 text
        data = os.path.join(os.path.dirname(__file__), "data")
        for name, dims, digest in (("tiny_x", (8, 3, 2), "89dc0cead4aa2b51"),
                                   ("tiny_y", (8, 2), "a0e838cf943d0234")):
            t = read_tensor(os.path.join(data, f"{name}.mwt"))
            assert t.dims == dims
            payload = t.array.ravel(order="F").astype("<f8").tobytes()
            assert hashlib.sha256(payload).hexdigest().startswith(digest), name

    def test_readme_conversion_recipe_keeps_every_value(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        recipe = next(b for b in blocks if "def mwt1_to_mwt2" in b)
        namespace = {}
        exec(recipe, namespace)
        rng = np.random.default_rng(13)
        src, dst = os.path.join(tmp_path, "old.mwt"), os.path.join(tmp_path, "new.mwt")
        for dims in [(1,), (5,), (3, 4), (2, 3, 4), (9, 3)]:
            vals = _edge_array(rng, prod(dims))
            # the old writer's text: "mwt 1", the order, the dims, then "%.17g" values 8 to a line
            lines = ["mwt 1", str(len(dims)), " ".join(map(str, dims))]
            lines += [" ".join(f"{v:.17g}" for v in vals[k:k + 8]) for k in range(0, vals.size, 8)]
            with open(src, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            namespace["mwt1_to_mwt2"](src, dst)
            back = read_tensor(dst)
            assert back.dims == dims
            assert _same_bits(back.array.ravel(order="F"), vals)


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
        nan_offset = _edited(path, lambda p: p["x_offsets"].__setitem__(1, float("nan")))
        inf_offset = _edited(path, lambda p: p["y_offsets"].__setitem__(0, float("inf")))
        # JSON booleans, which Python counts as the ints 1 and 0, where numbers belong
        true_value = _edited(
            path, lambda p: p["coefficients"]["predictor_factors"][0]["values"].__setitem__(0, True)
        )
        true_rank = _edited(path, lambda p: p["coefficients"].update(rank=True))
        false_offset = _edited(path, lambda p: p["x_offsets"].__setitem__(0, False))
        # a boolean that is not one, and integers with a fraction or an exponent
        string_converged = _edited(path, lambda p: p.update(converged="false"))
        number_converged = _edited(path, lambda p: p.update(converged=0))
        fractional = [
            _edited(path, lambda p: p.update(iterations=p["iterations"] + 0.5)),
            _edited(path, lambda p: p.update(seed=3.5)),
            _edited(path, lambda p: p["coefficients"].update(rank=2.0)),
            _edited(path, lambda p: p["coefficients"]["outcome_factors"][1].update(rows=2.0)),
        ]
        for text in ['{"format":"mwreg-model"}', "[]", '{"format":', short_factor, nan_offset,
                     inf_offset, true_value, true_rank, false_offset, string_converged,
                     number_converged] + fractional:
            _rewrite(path, text)
            with pytest.raises(ValueError, match=re.escape(path) + ": malformed model file"):
                read_model(path)
        _rewrite(path, string_converged)
        with pytest.raises(ValueError, match="expected true or false, found 'false'"):
            read_model(path)
        _rewrite(path, fractional[0])
        with pytest.raises(ValueError, match=r"expected an integer, found \d+\.5$"):
            read_model(path)


    def test_other_versions_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        x, _, res = _fit_pair(rng)
        path, x_path = os.path.join(tmp_path, "m.json"), os.path.join(tmp_path, "x.mwt")
        write_model(path, res, lam=0.5, seed=3)
        write_tensor(x_path, x)
        out = os.path.join(tmp_path, "p.mwt")
        assert main(["predict", "--model", path, "--x", x_path, "--out", out]) == 0
        texts = {v: _edited(path, lambda p, v=v: p.update(version=v)) for v in (0, 2, 7)}
        for version, text in texts.items():
            _rewrite(path, text)
            message = f"{path}: model file version {version} is not supported; this reader reads 1"
            with pytest.raises(ValueError) as info:
                read_model(path)
            assert str(info.value) == message
            assert main(["predict", "--model", path, "--x", x_path, "--out", out]) == 2
            assert message in capsys.readouterr().err
        # a version that is not a JSON integer is a malformed field
        for version in (1.0, True, "1"):
            _rewrite(path, _edited(path, lambda p: p.update(version=version)))
            malformed = re.escape(path) + ": malformed model file: expected an integer"
            with pytest.raises(ValueError, match=malformed):
                read_model(path)
        _rewrite(path, _edited(path, lambda p: p.pop("version")))
        with pytest.raises(ValueError, match="malformed model file: missing key 'version'$"):
            read_model(path)

    def test_factor_rows_below_one_refused(self, tmp_path):
        # rows -1 used to reach reshape, which inferred the row count
        rng = np.random.default_rng(11)
        path = os.path.join(tmp_path, "m.json")
        write_model(path, _fit_pair(rng)[2], lam=0.5, seed=3)
        for rows in (-1, 0):
            _rewrite(path, _edited(
                path, lambda p: p["coefficients"]["predictor_factors"][0].update(rows=rows)))
            with pytest.raises(ValueError) as info:
                read_model(path)
            assert str(info.value) == (
                f"{path}: malformed model file: factor rows must be at least 1, found {rows}")


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
        inf_offset = _edited(path, lambda p: p["mode"]["y_offsets"].__setitem__(0, float("-inf")))
        for text in ('{"format":"mwreg-draws"}', "[]", "{", no_mode, inf_offset):
            self._rejects(path, text, "")

    def test_other_versions_refused(self, tmp_path):
        path = self._draws_file(tmp_path)
        read_draws(path)
        for version in (0, 2):
            _rewrite(path, _edited(path, lambda p: p.update(version=version)))
            with pytest.raises(ValueError) as info:
                read_draws(path)
            assert str(info.value) == (
                f"{path}: draws file version {version} is not supported; this reader reads 1")

    def test_factor_rows_below_one_refused(self, tmp_path):
        path = self._draws_file(tmp_path)
        for rows in (-1, 0):
            def edit(payload):
                payload["samples"][2]["predictor_factors"][0]["rows"] = rows

            self._rejects(path, _edited(path, edit),
                          f"factor rows must be at least 1, found {rows}$")

    def test_sigma2_length_must_match_samples(self, tmp_path):
        path = self._draws_file(tmp_path)
        fewer = _edited(path, lambda p: p["sigma2"].pop())
        more = _edited(path, lambda p: p["sigma2"].extend([1.0, 2.0]))
        self._rejects(path, fewer, "3 sigma2 values for 4 draws")
        self._rejects(path, more, "6 sigma2 values for 4 draws")

    def test_sigma2_entries_must_be_finite_and_positive(self, tmp_path):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            path = self._draws_file(tmp_path)

            def set_bad(payload):
                payload["sigma2"][1] = bad

            self._rejects(path, _edited(path, set_bad), "sigma2 values")

    def test_samples_must_match_the_mode(self, tmp_path):
        path = self._draws_file(tmp_path)

        def shorter_outcome(payload, samples=(2,)):
            for t in samples:
                payload["samples"][t]["outcome_factors"][0] = {"rows": 1, "values": [0.5]}

        def wider_rank(payload):
            sample = payload["samples"][1]
            sample["rank"] = 2
            for item in sample["predictor_factors"] + sample["outcome_factors"]:
                item["values"] = item["values"] * 2

        def extra_mode(payload, samples=(3,)):
            for t in samples:
                payload["samples"][t]["outcome_factors"].append({"rows": 1, "values": [0.5]})

        every = (0, 1, 2, 3)
        stack = "all input arrays must have the same shape"
        cases = [
            # one sample unlike the others cannot be stacked
            (shorter_outcome, stack),
            (wider_rank, stack),
            (extra_mode, re.escape("zip() argument 4 is longer")),
            # samples alike, but unlike the mode
            (lambda p: shorter_outcome(p, every), re.escape(
                "factor stacks of shapes [(4, 3, 1), (4, 1, 1)] are not 4 draws of the mode's "
                "(3,) -> (2,) at rank 1")),
            (lambda p: extra_mode(p, every),
             re.escape("factor stacks of shapes [(4, 3, 1), (4, 2, 1), (4, 1, 1)]")),
            (lambda p: p.update(samples=[], sigma2=[]), "draws are empty$"),
        ]
        for text, match in [(_edited(path, edit), match) for edit, match in cases]:
            self._rejects(path, text, match)


class TestNumberRule:
    @pytest.mark.parametrize("text", ["3", "-2.5e3", "1e400", "true", "false", '"3"', "null",
                                      "[1]", "{}"])
    def test_one_value_and_a_list_share_the_rule(self, text):
        # every JSON value kind, alone through _number and as list items through _numbers
        value = json.loads(text)

        def accepts(parse, arg):
            try:
                parse(arg)
            except TypeError:
                return False
            return True

        number = not isinstance(value, (bool, str, list, dict, type(None)))
        assert accepts(fileio._number, value) is number
        assert accepts(fileio._numbers, [value]) is number
        assert accepts(fileio._numbers, [1, 2.5, value] * 1000) is number
