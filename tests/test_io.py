"""File format tests: bit-exact round trips and malformed-input errors."""

import base64
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
    dic,
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
from mwreg import posterior
from mwreg.cli import _PREDICTIVE_STREAM, _interval_rows, main
import mwreg.fileio as fileio
from reference import mwt2_bytes, traced_peak


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

    @pytest.mark.parametrize("in_dims, out_dims, rank", [((3, 2), (), 1), ((3, 2), (3,), 1),
                                                         ((3, 2), (2, 3), 1), ((3, 2), (2, 1, 2), 1),
                                                         ((4,), (3,), 2)])
    def test_intervals_file_equals_per_cell_formatting(self, tmp_path, in_dims, out_dims, rank):
        # the intervals are recomputed from the written draws, which read back
        # bit-exactly, with the predictive stream the command uses; with one
        # predictor mode, the bits of a prediction may depend on the read-back
        # stacks' memory layout
        x, y, _ = simulate(SimSpec(n=24, in_dims=in_dims, out_dims=out_dims, rank=rank, seed=5))
        x_new, _, _ = simulate(SimSpec(n=6, in_dims=in_dims, out_dims=out_dims, rank=rank, seed=6))
        paths = {name: os.path.join(tmp_path, f"{name}.mwt") for name in ("x", "y", "x_new")}
        for name, t in (("x", x), ("y", y), ("x_new", x_new)):
            write_tensor(paths[name], t)
        draws_path = os.path.join(tmp_path, "draws.json")
        ivals = os.path.join(tmp_path, "intervals.csv")
        assert main(["gibbs", "--x", paths["x"], "--y", paths["y"], "--rank", str(rank),
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
# finite doubles that often are signed zero, the smallest subnormal or 1e300
_CODED = st.one_of(st.sampled_from([-0.0, 5e-324, 1e300]), _FINITE)


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
    factors = [draw(hnp.arrays(float, (d, rank), elements=_CODED)) for d in dims]
    if centered is None:
        centered = draw(st.booleans())
    x_off = draw(hnp.arrays(float, in_dims, elements=_CODED)) if centered else None
    y_off = draw(hnp.arrays(float, out_dims, elements=_CODED)) if centered else None
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
        pred, out = ([data.draw(hnp.arrays(float, (n, d, m.rank), elements=_CODED)) for d in dims]
                     for dims in (m.in_dims, m.out_dims))
        positive = st.one_of(st.sampled_from([5e-324, 1e300]),
                             st.floats(min_value=5e-324, allow_infinity=False, width=64))
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
        # the version 3 text: one coefficients record whose values hold each
        # draw's factor first-index-fastest, one draw after another, as base64
        coefficients = {"rank": m.rank, **{
            key: [{"rows": s.shape[1],
                   "values": _b64([v for t in range(n) for v in s[t].ravel(order="F")])}
                  for s in stacks]
            for key, stacks in (("predictor_factors", pred), ("outcome_factors", out))}}
        want = {"format": "mwreg-draws", "version": 3, "lam": 0.5, "seed": 7,
                "sigma2": _b64(sigma2s), "coefficients": coefficients,
                "mode": json.loads(text)["mode"]}
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
        back = _read_via("pipe", os.path.join(tmp_path, "fifo.mwt"), _mwt2(t))
        assert back.dims == t.dims
        assert _same_bits(back.array, t.array)


def _read_via(via, path, data):
    """read_tensor of data at path, written as a regular file or fed through a FIFO."""
    if via == "file":
        with open(path, "wb") as fh:
            fh.write(data)
        return read_tensor(path)
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_tensor(path)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def _v2(dims, values, end=None):
    """A version-2 file of the given values, its end line replaced when end is given."""
    data = mwt2_bytes(dims, np.array(values, dtype="<f8").tobytes())
    return data if end is None else data[:-len(b"end 00000000\n")] + end


class TestVersion2Reader:
    @pytest.mark.parametrize("via", ("file", "pipe"))
    @pytest.mark.parametrize("chunk", (3, 1 << 20))
    def test_malformed_files_are_named_and_refused(self, tmp_path, monkeypatch, chunk, via):
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
            with pytest.raises(ValueError) as info:
                _read_via(via, path, content)
            assert str(info.value) == f"{path}: {message}", name

    @pytest.mark.parametrize("via", ("file", "pipe"))
    def test_huge_header_is_refused_without_a_large_allocation(self, tmp_path, via):
        # the header asks for 8e15 bytes; the reader allocates what the file holds
        path = os.path.join(tmp_path, "huge.mwt")
        data = _v2((3,), [1, 2, 3]).replace(b"\n1\n3\n", b"\n3\n100000 100000 100000\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                _read_via(via, path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"{path}: expected 8000000000000000 bytes of 1000000000000000 values for dims "
            "(100000, 100000, 100000), found 24")
        # a regular file's length is checked before any value is read; a
        # stream takes one read of at most _READ_CHUNK bytes, never 8e15
        assert peak < (1 << 16 if via == "file" else 2 * fileio._READ_CHUNK)

    def test_regular_file_is_read_into_one_array(self, tmp_path):
        # 12 MB of values: the tensor's own array and a finiteness mask, no second copy
        x = DenseTensor(np.random.default_rng(31).standard_normal((5000, 15, 20)))
        path = os.path.join(tmp_path, "x.mwt")
        write_tensor(path, x)
        back, peak = traced_peak(lambda: read_tensor(path))
        assert _same_bits(back.array, x.array)
        assert back.array.flags.f_contiguous and not back.array.flags.writeable
        assert peak < 1.2 * x.array.nbytes

    def test_pipe_is_read_into_one_buffer(self, tmp_path):
        # 12 MB of values through a FIFO: a buffer that grows in place, the
        # values a view of it, and a finiteness mask; no chunk list and its join
        x = DenseTensor(np.random.default_rng(31).standard_normal((5000, 15, 20)))
        data = _mwt2(x)
        back, peak = traced_peak(lambda: _read_via("pipe", os.path.join(tmp_path, "x.mwt"), data))
        assert _same_bits(back.array, x.array)
        assert back.array.flags.f_contiguous and not back.array.flags.writeable
        assert peak < 1.3 * x.array.nbytes

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
        namespace = _readme_recipes("read_mwt2")
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
        namespace = _readme_recipes("mwt1_to_mwt2")
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


def _b64(values) -> str:
    """values as the format stores a float array: base64 of their little-endian doubles."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unb64(text) -> list:
    """The doubles of a float array's base64 text, as a list."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").tolist()


def _edit_values(record, key, edit):
    """Apply edit to the list of record[key]'s doubles and store them back as base64."""
    values = _unb64(record[key])
    edit(values)
    record[key] = _b64(values)


# the keys whose values are float arrays, base64 in the current versions
_ARRAY_KEYS = ("values", "x_offsets", "y_offsets", "sigma2")


def _as_lists(node):
    """A model or draws document with every float array as a JSON list: the
    text of model version 1 and draws version 2, whose version it does not set."""
    if isinstance(node, list):
        return [_as_lists(v) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: _unb64(v) if k in _ARRAY_KEYS and isinstance(v, str) else _as_lists(v)
            for k, v in node.items()}


def _old_text(doc) -> str:
    """A document as the list writers wrote it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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

    def test_file_text_is_pinned(self, tmp_path):
        # a small centered fit whose values include -0.0, a subnormal and 1e300
        res = FitResult(
            coefficients=CpCoefficients([np.array([[1.0, -0.0], [0.1, 5e-324], [-2.5, 1e300]])],
                                        [np.array([[3.0, 0.25], [-1.0, 7.0]])]),
            objective_trace=[12.5], substep_trace=[], converged=True, iterations=9,
            x_offsets=np.array([0.5, -1.0, 2.0]), y_offsets=np.array([1.0, -0.125]))
        path = os.path.join(tmp_path, "m.json")
        write_model(path, res, 0.5, 3)
        with open(path) as fh:
            text = fh.read()
        assert text == (
            '{"coefficients":{"outcome_factors":[{"rows":2,"values":'
            '"AAAAAAAACEAAAAAAAADwvwAAAAAAANA/AAAAAAAAHEA="}],"predictor_factors":[{"rows":3,'
            '"values":"AAAAAAAA8D+amZmZmZm5PwAAAAAAAATAAAAAAAAAAIABAAAAAAAAAJx1AIg85Dd+"}],'
            '"rank":2},"converged":true,"format":"mwreg-model","iterations":9,"lam":0.5,'
            '"objective":12.5,"seed":3,"version":2,"x_offsets":"AAAAAAAA4D8AAAAAAADwvwAAAAAAAABA",'
            '"y_offsets":"AAAAAAAA8D8AAAAAAADAvw=="}\n')
        # the same text spelled out from the format: each factor first index fastest
        want = {"coefficients": {
                    "outcome_factors": [{"rows": 2, "values": _b64([3.0, -1.0, 0.25, 7.0])}],
                    "predictor_factors": [{"rows": 3, "values": _b64([1.0, 0.1, -2.5, -0.0,
                                                                      5e-324, 1e300])}],
                    "rank": 2},
                "converged": True, "format": "mwreg-model", "iterations": 9, "lam": 0.5,
                "objective": 12.5, "seed": 3, "version": 2, "x_offsets": _b64([0.5, -1.0, 2.0]),
                "y_offsets": _b64([1.0, -0.125])}
        assert text == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"
        _assert_same_fit(res, read_model(path)[0])

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
            path, lambda p: p["coefficients"]["predictor_factors"][0].update(values=_b64([1.0]))
        )
        nan_offset = _edited(
            path, lambda p: _edit_values(p, "x_offsets", lambda v: v.__setitem__(1, float("nan"))))
        inf_offset = _edited(
            path, lambda p: _edit_values(p, "y_offsets", lambda v: v.__setitem__(0, float("inf"))))
        # JSON booleans, which Python counts as the ints 1 and 0, where numbers
        # or base64 text belong
        true_value = _edited(
            path, lambda p: p["coefficients"]["predictor_factors"][0].update(values=True)
        )
        true_rank = _edited(path, lambda p: p["coefficients"].update(rank=True))
        false_offset = _edited(path, lambda p: p.update(x_offsets=False))
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
        # a real version-1 file: TestOldJsonVersions
        texts = {v: _edited(path, lambda p, v=v: p.update(version=v)) for v in (0, 1, 3, 7)}
        for version, text in texts.items():
            _rewrite(path, text)
            message = f"{path}: model file version {version} is not supported; this reader reads 2"
            with pytest.raises(ValueError) as info:
                read_model(path)
            assert str(info.value) == message
            assert main(["predict", "--model", path, "--x", x_path, "--out", out]) == 2
            assert message in capsys.readouterr().err
        # a version that is not a JSON integer is a malformed field
        for version in (2.0, True, "2"):
            _rewrite(path, _edited(path, lambda p: p.update(version=version)))
            malformed = re.escape(path) + ": malformed model file: expected an integer"
            with pytest.raises(ValueError, match=malformed):
                read_model(path)
        _rewrite(path, _edited(path, lambda p: p.pop("version")))
        with pytest.raises(ValueError, match="malformed model file: missing key 'version'$"):
            read_model(path)

    def test_offsets_come_as_a_pair(self, tmp_path, capsys):
        # one offset list without the other, or neither key, used to load as
        # uncentered, or fail with "expected a list of numbers"
        rng = np.random.default_rng(12)
        x, _, res = _fit_pair(rng)
        path, x_path = os.path.join(tmp_path, "m.json"), os.path.join(tmp_path, "x.mwt")
        out = os.path.join(tmp_path, "p.mwt")
        write_model(path, res, lam=0.5, seed=3)
        write_tensor(x_path, x)
        pair = "x_offsets and y_offsets must both be lists or both be null"
        cases = [(_edited(path, lambda p, key=key: p.update({key: None})), pair)
                 for key in ("x_offsets", "y_offsets")]
        cases.append((_edited(path, lambda p: [p.pop("x_offsets"), p.pop("y_offsets")]),
                      "missing key 'x_offsets'"))
        for text, fault in cases:
            message = f"{path}: malformed model file: {fault}"
            _rewrite(path, text)
            with pytest.raises(ValueError) as info:
                read_model(path)
            assert str(info.value) == message
            capsys.readouterr()
            assert main(["predict", "--model", path, "--x", x_path, "--out", out]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not os.path.exists(out)

    def test_value_count_must_match_rows_and_rank(self, tmp_path):
        # (3, 2) -> (2, 2) at rank 2: outcome factor 0 holds 2 rows x 2 components
        rng = np.random.default_rng(11)
        path = os.path.join(tmp_path, "m.json")
        write_model(path, _fit_pair(rng)[2], lam=0.5, seed=3)
        _rewrite(path, _edited(path, lambda p: _edit_values(
            p["coefficients"]["outcome_factors"][0], "values", lambda v: v.append(0.5))))
        with pytest.raises(ValueError) as info:
            read_model(path)
        assert str(info.value) == (
            f"{path}: malformed model file: outcome factor 0 holds 5 values, not 2 rows x 2 components")

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
        inf_offset = _edited(path, lambda p: _edit_values(
            p["mode"], "y_offsets", lambda v: v.__setitem__(0, float("-inf"))))
        for text in ('{"format":"mwreg-draws"}', "[]", "{", no_mode, inf_offset):
            self._rejects(path, text, "")

    def test_mode_offsets_come_as_a_pair(self, tmp_path):
        path = self._draws_file(tmp_path)
        ones = [_edited(path, lambda p, key=key: p["mode"].update({key: None}))
                for key in ("x_offsets", "y_offsets")]
        for one in ones:
            self._rejects(path, one, "x_offsets and y_offsets must both be lists or both be null$")

    def test_other_versions_refused(self, tmp_path):
        path = self._draws_file(tmp_path)
        read_draws(path)
        # real version-1 and version-2 files: TestOldJsonVersions
        for version in (0, 1, 2, 4):
            _rewrite(path, _edited(path, lambda p: p.update(version=version)))
            with pytest.raises(ValueError) as info:
                read_draws(path)
            assert str(info.value) == (
                f"{path}: draws file version {version} is not supported; this reader reads 3")

    def test_factor_rows_below_one_refused(self, tmp_path):
        path = self._draws_file(tmp_path)
        for rows in (-1, 0):
            def edit(payload):
                payload["coefficients"]["predictor_factors"][0]["rows"] = rows

            self._rejects(path, _edited(path, edit),
                          f"factor rows must be at least 1, found {rows}$")

    def test_sigma2_and_value_counts_must_match(self, tmp_path):
        # 4 draws of a (3,) -> (2,) chain at rank 1: 12 and 8 values
        path = self._draws_file(tmp_path)

        def drop_value(payload):
            _edit_values(payload["coefficients"]["outcome_factors"][0], "values", list.pop)

        cases = [
            (lambda p: _edit_values(p, "sigma2", list.pop),
             "3 sigma2 values for 4 draws in predictor factor 0"),
            (lambda p: _edit_values(p, "sigma2", lambda v: v.extend([1.0, 2.0])),
             "6 sigma2 values for 4 draws in predictor factor 0"),
            (drop_value, "outcome factor 0 holds 7 values, not 4 draws x 2 rows x 1 components"),
        ]
        for text, match in [(_edited(path, edit), match) for edit, match in cases]:
            self._rejects(path, text, re.escape(match) + "$")

    def test_sigma2_entries_must_be_finite_and_positive(self, tmp_path):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            path = self._draws_file(tmp_path)

            def set_bad(payload):
                _edit_values(payload, "sigma2", lambda v: v.__setitem__(1, bad))

            self._rejects(path, _edited(path, set_bad), "sigma2 values")

    def test_stacks_must_match_the_mode(self, tmp_path):
        path = self._draws_file(tmp_path)

        def items(payload):
            return payload["coefficients"]["predictor_factors"] + payload["coefficients"]["outcome_factors"]

        def shorter_outcome(payload):
            payload["coefficients"]["outcome_factors"][0] = {"rows": 1, "values": _b64([0.5] * 4)}

        def wider_rank(payload):
            payload["coefficients"]["rank"] = 2
            for item in items(payload):
                item["values"] = _b64(_unb64(item["values"]) * 2)

        def extra_mode(payload):
            payload["coefficients"]["outcome_factors"].append({"rows": 1, "values": _b64([0.5] * 4)})

        def no_draws(payload):
            payload["sigma2"] = _b64([])
            for item in items(payload):
                item["values"] = _b64([])

        cases = [
            (shorter_outcome, re.escape(
                "factor stacks of shapes [(4, 3, 1), (4, 1, 1)] are not 4 draws of the mode's "
                "(3,) -> (2,) at rank 1")),
            (wider_rank, re.escape("factor stacks of shapes [(4, 3, 2), (4, 2, 2)]")),
            (extra_mode, re.escape("factor stacks of shapes [(4, 3, 1), (4, 2, 1), (4, 1, 1)]")),
            (no_draws, "draws are empty$"),
        ]
        for text, match in [(_edited(path, edit), match) for edit, match in cases]:
            self._rejects(path, text, match)

    def test_file_text_is_pinned(self, tmp_path):
        # two draws of a (2,) -> (1,) chain at rank 1 whose values include -0.0,
        # a subnormal and 1e300, from an uncentered mode
        mode = FitResult(coefficients=CpCoefficients([np.array([[0.5], [-2.0]])], [np.array([[4.0]])]),
                         objective_trace=[1.5], substep_trace=[], converged=False, iterations=500,
                         x_offsets=None, y_offsets=None)
        pred, out = np.array([[[-0.0], [5e-324]], [[1e300], [0.75]]]), np.array([[[2.0]], [[-3.0]]])
        draws = PosteriorDraws([pred], [out], np.array([0.5, 2.0]), mode)
        path = os.path.join(tmp_path, "d.json")
        write_draws(path, draws, 0.25, 11)
        with open(path) as fh:
            text = fh.read()
        assert text == (
            '{"coefficients":{"outcome_factors":[{"rows":1,"values":"AAAAAAAAAEAAAAAAAAAIwA=="}],'
            '"predictor_factors":[{"rows":2,"values":"AAAAAAAAAIABAAAAAAAAAJx1AIg85Dd+AAAAAAAA6D8="}],'
            '"rank":1},"format":"mwreg-draws","lam":0.25,"mode":{"coefficients":{"outcome_factors":'
            '[{"rows":1,"values":"AAAAAAAAEEA="}],"predictor_factors":[{"rows":2,"values":'
            '"AAAAAAAA4D8AAAAAAAAAwA=="}],"rank":1},"converged":false,"iterations":500,'
            '"objective":1.5,"x_offsets":null,"y_offsets":null},"seed":11,'
            '"sigma2":"AAAAAAAA4D8AAAAAAAAAQA==","version":3}\n')
        # each draw's factor first index fastest, one draw after another
        record = json.loads(text)
        assert _unb64(record["coefficients"]["predictor_factors"][0]["values"]) == [-0.0, 5e-324,
                                                                                  1e300, 0.75]
        assert _unb64(record["coefficients"]["outcome_factors"][0]["values"]) == [2.0, -3.0]
        assert _unb64(record["sigma2"]) == [0.5, 2.0]
        back, _, _ = read_draws(path)
        for a, b in zip((pred, out), back.predictor_factors + back.outcome_factors, strict=True):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("in_dims, out_dims", [((15, 20), (10,)), ((6,), (3, 4, 2)), ((6,), (10,)),
                                                   ((4, 3), (2, 2)), ((3, 2, 2), ())])
    def test_read_back_stacks_keep_bits_and_strides(self, tmp_path, in_dims, out_dims):
        # every stack of a chain is a C-ordered (draws, R, rows) array, the file's
        # value order, so the reader gives BLAS the operands the chain gave it
        rng = np.random.default_rng(15)
        x = DenseTensor(rng.standard_normal((24,) + in_dims))
        y = DenseTensor(rng.standard_normal((24,) + out_dims))
        x_new = DenseTensor(rng.standard_normal((21,) + in_dims))
        draws = gibbs(x, y, GibbsConfig(rank=2, n_samples=6, lam=0.5, seed=4))
        path = os.path.join(tmp_path, "d.json")
        write_draws(path, draws, 0.5, 4)
        back, _, _ = read_draws(path)
        stacks = draws.predictor_factors + draws.outcome_factors
        for a, b in zip(stacks, back.predictor_factors + back.outcome_factors, strict=True):
            assert _same_bits(a, b)
            assert a.strides == b.strides
            assert a.swapaxes(1, 2).flags.c_contiguous
        assert _same_bits(posterior_predictive(x_new, back, 3), posterior_predictive(x_new, draws, 3))
        lo, hi = posterior._predictive_intervals(x_new, draws, 3, 0.9)
        lo_back, hi_back = posterior._predictive_intervals(x_new, back, 3, 0.9)
        assert _same_bits(lo.array, lo_back.array) and _same_bits(hi.array, hi_back.array)
        assert _same_bits(dic(x, y, back), dic(x, y, draws))


def _refused(read, path, fault):
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: {fault}"


def _readme_recipes(*names) -> dict:
    """The namespace of the README's python blocks that define names."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    namespace = {}
    for name in names:
        exec(next(b for b in blocks if f"def {name}(" in b), namespace)
    return namespace


class TestOldJsonVersions:
    """Model files of version 1 and draws files of versions 1 and 2, which hold
    every float array as a JSON list of decimal numbers."""

    def test_old_versions_are_refused_and_the_readme_recipes_convert_them(self, tmp_path):
        recipes = _readme_recipes("draws1_to_draws2", "lists_to_base64")
        rng = np.random.default_rng(14)

        def at(name):
            return os.path.join(tmp_path, name)

        for n, center in ((1, True), (3, False), (5, True)):
            mode = _fit_pair(rng, center)[2]
            write_model(at("m.json"), mode, 0.5, 3)
            with open(at("m.json")) as fh:
                doc = _as_lists(json.load(fh))
            _rewrite(at("m1.json"), _old_text({**doc, "version": 1}))
            _refused(read_model, at("m1.json"),
                     "model file version 1 is not supported; this reader reads 2")
            recipes["lists_to_base64"](at("m1.json"), at("m2.json"))
            back, lam, seed = read_model(at("m2.json"))
            assert (lam, seed) == (0.5, 3)
            _assert_same_fit(mode, back)

            b = mode.coefficients
            pred, out = ([_edge_array(rng, n * d * b.rank).reshape(n, d, b.rank) for d in dims]
                         for dims in (b.in_dims, b.out_dims))
            draws = PosteriorDraws(pred, out, rng.uniform(0.5, 2.0, n), mode)
            write_draws(at("d.json"), draws, 0.5, 7)
            with open(at("d.json")) as fh:
                v2 = {**_as_lists(json.load(fh)), "version": 2}
            # the version-1 writer's text: one coefficients record per draw under "samples"
            v1 = {key: v for key, v in v2.items() if key != "coefficients"}
            v1.update(version=1, samples=[{"rank": b.rank, **{
                key: [{"rows": f.shape[0], "values": f.ravel(order="F").tolist()} for f in fs]
                for key, fs in (("predictor_factors", c.predictor_factors),
                                ("outcome_factors", c.outcome_factors))}}
                for c in draws.coefficients])
            for version, doc in ((1, v1), (2, v2)):
                _rewrite(at(f"d{version}.json"), _old_text(doc))
                _refused(read_draws, at(f"d{version}.json"),
                         f"draws file version {version} is not supported; this reader reads 3")
            # a version-1 file goes through the version-2 recipe first
            recipes["draws1_to_draws2"](at("d1.json"), at("d1to2.json"))
            for src in ("d2.json", "d1to2.json"):
                recipes["lists_to_base64"](at(src), at("d3.json"))
                back, lam, seed = read_draws(at("d3.json"))
                assert (lam, seed) == (0.5, 7)
                assert _same_bits(back.sigma2s, draws.sigma2s)
                for a, c in zip(pred + out, back.predictor_factors + back.outcome_factors,
                                strict=True):
                    assert _same_bits(a, c)
                _assert_same_fit(mode, back.mode)


# little-endian bit patterns that are not finite doubles: a quiet and a
# signalling NaN, and both infinities
_NOT_FINITE = ("000000000000f87f", "010000000000f07f", "000000000000f07f", "000000000000f0ff")


def _with_first_double(text, pattern):
    """base64 text with its first double's bytes replaced by the hex pattern."""
    return base64.b64encode(bytes.fromhex(pattern) + base64.b64decode(text)[8:]).decode("ascii")


class TestCodec:
    """The one float-array codec of model and draws files."""

    # (kind, where the array is, its key, the check that refuses a value that is not finite)
    ARRAYS = [
        ("model", ("coefficients", "predictor_factors", 0), "values", "factor matrices must be finite"),
        ("model", ("coefficients", "outcome_factors", 1), "values", "factor matrices must be finite"),
        ("model", (), "x_offsets", "offsets must be finite"),
        ("model", (), "y_offsets", "offsets must be finite"),
        ("draws", (), "sigma2", "sigma2 values must be finite and positive"),
        ("draws", ("coefficients", "predictor_factors", 0), "values", "factor matrices must be finite"),
        ("draws", ("coefficients", "outcome_factors", 0), "values", "factor matrices must be finite"),
        ("draws", ("mode", "coefficients", "predictor_factors", 0), "values",
         "factor matrices must be finite"),
        ("draws", ("mode",), "x_offsets", "offsets must be finite"),
    ]

    @pytest.mark.parametrize("kind, where, key, not_finite", ARRAYS)
    def test_faults_are_refused_naming_the_file(self, tmp_path, capsys, kind, where, key, not_finite):
        rng = np.random.default_rng(16)
        x, y, res = _fit_pair(rng)
        path, x_path = os.path.join(tmp_path, f"{kind}.json"), os.path.join(tmp_path, "x.mwt")
        write_tensor(x_path, x)
        if kind == "model":
            write_model(path, res, 0.5, 3)
        else:
            write_draws(path, gibbs(x, y, GibbsConfig(rank=2, n_samples=4, lam=0.5, seed=3)), 0.5, 3)

        def spoiled(value):
            def edit(payload):
                record = payload
                for step in where:
                    record = record[step]
                record[key] = value(record[key])
            return _edited(path, edit)

        # (spoiled text, a pattern of the fault)
        cases = [
            # a JSON list, as older versions hold, where base64 text belongs
            (spoiled(_unb64), r"expected base64 text, found \[.*"),
            (spoiled(lambda text: text[:5] + "*" + text[6:]),
             re.escape("not base64 text: Only base64 data is allowed")),
            (spoiled(lambda text: text[:5] + "\u00e9" + text[6:]),
             re.escape("not base64 text: string argument should contain only ASCII characters")),
            (spoiled(lambda text: _b64([0.5, 2.0])[:-1]), re.escape("not base64 text: Incorrect padding")),
            (spoiled(lambda text: base64.b64encode(bytes(7)).decode()),
             re.escape("7 bytes are not a whole number of 8-byte doubles")),
            # the last byte dropped
            (spoiled(lambda text: base64.b64encode(base64.b64decode(text)[:-1]).decode()),
             r"\d*[1-7] bytes are not a whole number of 8-byte doubles"),
        ] + [(spoiled(lambda text, p=p: _with_first_double(text, p)), re.escape(not_finite))
             for p in _NOT_FINITE]
        read = read_model if kind == "model" else read_draws
        with open(path) as fh:
            valid = fh.read()
        for text, fault in cases:
            _rewrite(path, text)
            with pytest.raises(ValueError) as info:
                read(path)
            assert re.fullmatch(re.escape(f"{path}: malformed {kind} file: ") + fault, str(info.value))
            if kind == "model":
                out = os.path.join(tmp_path, "p.mwt")
                capsys.readouterr()
                assert main(["predict", "--model", path, "--x", x_path, "--out", out]) == 2
                assert capsys.readouterr() == ("", f"error: {info.value}\n")
                assert not os.path.exists(out)
        _rewrite(path, valid)
        read(path)

    def test_encoder_reads_a_chain_stack_without_a_copy(self, tmp_path):
        rng = np.random.default_rng(17)
        x = DenseTensor(rng.standard_normal((20, 4, 3)))
        y = DenseTensor(rng.standard_normal((20, 2, 2)))
        draws = gibbs(x, y, GibbsConfig(rank=2, n_samples=5, lam=0.5, seed=1))
        with mock.patch.object(fileio.base64, "b64encode", wraps=base64.b64encode) as encode:
            write_draws(os.path.join(tmp_path, "d.json"), draws, 0.5, 1)
        buffers = [args[0] for args, _ in encode.call_args_list]
        for stack in draws.predictor_factors + draws.outcome_factors:
            assert any(np.shares_memory(b, stack) for b in buffers)


class TestNumberRule:
    @pytest.mark.parametrize("text", ["3", "-2.5e3", "1e400", "true", "false", '"3"', "null",
                                      "[1]", "{}"])
    def test_number_and_array_type_rules(self, text):
        # every JSON value kind through _number, and through _decoded, which takes only text
        value = json.loads(text)
        number = not isinstance(value, (bool, str, list, dict, type(None)))
        try:
            fileio._number(value)
        except TypeError:
            assert not number
        else:
            assert number
        if not isinstance(value, str):
            with pytest.raises(TypeError, match="^expected base64 text, found "):
                fileio._decoded(value)
