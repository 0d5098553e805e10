"""Property tests over random shapes, orders and values.

The example-based tests pin hand-derived cases; these check the algebraic
invariants the package rests on for every shape hypothesis draws: the
first-index-fastest layout, the CP/Khatri-Rao identity, the normalization
map, the closed-form global optimum of a low-rank fit, the exit code of an
unpenalized fit whose system is rank deficient, and the exit code of a
command given a corrupted input file.
"""

import base64
import functools
import json
import os
import tempfile
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mwreg import (
    CpCoefficients,
    DenseTensor,
    FitConfig,
    FitResult,
    GibbsConfig,
    PosteriorDraws,
    cp_compose,
    fit,
    gibbs,
    khatri_rao,
    normalize,
    predict,
    read_draws,
    unfold,
    vec,
    write_draws,
    write_model,
    write_tensor,
)
from mwreg.cli import main
from reference import mwt2_bytes, reduced_rank_ridge

_VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4)


@st.composite
def _factor_lists(draw, min_modes=1, max_modes=4):
    """(factor matrices, number of predictor modes) sharing one rank."""
    rank = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 4), min_size=min_modes, max_size=max_modes))
    factors = [draw(hnp.arrays(float, (d, rank), elements=_VALUES)) for d in dims]
    return factors, draw(st.integers(1, len(dims)))


@st.composite
def _normalize_cases(draw):
    """(factors, number of predictor modes, x) with x shaped for those modes."""
    factors, n_pred = draw(_factor_lists(min_modes=2))
    in_dims = tuple(f.shape[0] for f in factors[:n_pred])
    x = draw(hnp.arrays(float, (draw(st.integers(1, 5)),) + in_dims, elements=_VALUES))
    return factors, n_pred, x


class TestLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(float, _SHAPES, elements=_VALUES))
    def test_vec_round_trip(self, arr):
        t = DenseTensor(arr)
        back = DenseTensor.from_values(t.dims, vec(t))
        assert back.dims == t.dims
        assert np.array_equal(back.array, t.array)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(float, _SHAPES, elements=_VALUES), st.data())
    def test_unfold_round_trip(self, arr, data):
        t = DenseTensor(arr)
        mode = data.draw(st.integers(0, t.order - 1))
        u = unfold(t, mode)
        others = tuple(d for k, d in enumerate(t.dims) if k != mode)
        assert u.shape == (t.dims[mode], int(np.prod(others, dtype=int)))
        folded = np.moveaxis(u.reshape((t.dims[mode],) + others, order="F"), 0, mode)
        assert np.array_equal(folded, t.array)
        i = data.draw(st.integers(0, t.dims[mode] - 1))
        assert np.array_equal(u[i], np.take(t.array, i, axis=mode).ravel(order="F"))


class TestCpProperties:
    @settings(max_examples=40, deadline=None)
    @given(_factor_lists())
    def test_cp_compose_equals_khatri_rao_row_sums(self, drawn):
        factors, _ = drawn
        got = vec(cp_compose(factors))
        want = khatri_rao(factors).sum(axis=1)
        # both sum the same R products, in different orders
        bound = khatri_rao([np.abs(f) for f in factors]).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * bound)

    @settings(max_examples=40, deadline=None)
    @given(_normalize_cases())
    # x * 2 is two subnormal steps; after rebalancing each Khatri-Rao product
    # is 2**0.5, and x * 2**0.5 rounds to one step, which times 2**0.5 stays one
    @example(([np.array([[1.0]]), np.array([[2.0]]), np.array([[0.0], [1.0]]),
               np.array([[1.0]])], 2, np.full((1, 1, 1), 5e-324)))
    def test_normalize_is_idempotent_and_keeps_predictions(self, case):
        factors, n_pred, xarr = case
        # a zero column at order 3 and above is rejected by design
        assume(all(np.linalg.norm(f, axis=0).min() > 1e-3 for f in factors))
        b = CpCoefficients(factors[:n_pred], factors[n_pred:])
        once = normalize(b).coefficients
        twice = normalize(once).coefficients
        for f1, f2 in zip(once.factors, twice.factors, strict=True):
            assert np.array_equal(f1, f2)
        x = DenseTensor(xarr)
        n = xarr.shape[0]

        def predicted(coefficients):
            res = FitResult(coefficients, [0.0], [], True, 1, None, None)
            return predict(x, res).array

        # round-off bound: the magnitudes of the summed terms, and for the
        # order-2 SVD rebuild the spectral scale of the coefficient matrix
        x1 = np.abs(x.array.reshape(n, -1, order="F"))
        terms = x1 @ np.abs(khatri_rao(b.predictor_factors))
        if b.outcome_factors:
            terms = terms @ np.abs(khatri_rao(b.outcome_factors)).T
        else:
            terms = terms.sum(axis=1, keepdims=True)
        spectral = np.linalg.norm(b.matricize(), 2) * x1.sum(axis=1, keepdims=True)
        shape = predicted(b).shape
        bound = 1e-12 * (terms + spectral).reshape(shape, order="F")
        # that bound is 0 on subnormal x; the subnormal steps of both
        # predictions are allowed on top
        steps = _subnormal_half_steps(x1, b) + _subnormal_half_steps(x1, once)
        whole = np.ceil(steps / 2).reshape(shape, order="F")
        bound += np.finfo(float).smallest_subnormal * whole
        assert np.all(np.abs(predicted(once) - predicted(b)) <= bound)


_DRAWS_FAULTS = ("stack rows", "stack rank", "stack draws", "stack dropped", "stack added",
                 "sigma2 count", "sigma2 value", "factor value")


@st.composite
def _draws_cases(draw):
    """(mode fit, predictor stacks, outcome stacks, sigma2s, fault or None).

    1-3 predictor and 0-2 outcome modes, ranks 1-3 and 1-4 draws; a fault
    spoils one part of otherwise valid draws.
    """
    rank = draw(st.integers(1, 3))
    in_dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    out_dims = tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=2)))
    mode = FitResult(CpCoefficients([np.ones((d, rank)) for d in in_dims],
                                    [np.ones((d, rank)) for d in out_dims]),
                     [0.0], [], True, 1, None, None)
    n = draw(st.integers(1, 4))
    stacks = [draw(hnp.arrays(float, (n, d, rank), elements=_VALUES)) for d in in_dims + out_dims]
    sigma2s = draw(hnp.arrays(float, (n,), elements=st.floats(1e-3, 10.0)))
    fault = draw(st.sampled_from((None,) + _DRAWS_FAULTS))
    k = draw(st.integers(0, len(stacks) - 1))
    if fault in ("stack rows", "stack rank", "stack draws"):
        shape = list(stacks[k].shape)
        axis = ("stack draws", "stack rows", "stack rank").index(fault)
        shape[axis] = draw(st.integers(1 if axis else 0, 6).filter(lambda v: v != shape[axis]))
        stacks[k] = np.ones(shape)
    elif fault == "stack dropped":
        del stacks[k]
    elif fault == "stack added":
        stacks.insert(k, np.array(stacks[k]))
    elif fault == "sigma2 count":
        sigma2s = np.ones(draw(st.integers(0, 7).filter(lambda m: m != n)))
    elif fault == "sigma2 value":
        sigma2s[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [0.0, -0.0, -1e-300, -1.0, np.nan, np.inf, -np.inf]))
    elif fault == "factor value":
        stacks[k][draw(st.integers(0, n - 1)), 0, 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    split = draw(st.integers(0, len(stacks))) if fault == "stack added" else len(in_dims)
    return mode, stacks[:split], stacks[split:], sigma2s, fault


class TestDrawsProperties:
    @settings(max_examples=150, deadline=None)
    @given(_draws_cases())
    def test_the_constructor_refuses_every_broken_chain(self, case):
        mode, pred, out, sigma2s, fault = case
        if fault is None:
            draws = PosteriorDraws(pred, out, sigma2s, mode)
            assert len(draws) == len(sigma2s)
            for got, want in zip(draws.predictor_factors + draws.outcome_factors, pred + out,
                                 strict=True):
                assert np.array_equal(got, want) and not got.flags.writeable
            return
        with pytest.raises(ValueError):
            PosteriorDraws(pred, out, sigma2s, mode)


def _kr_half_steps(factors) -> tuple:
    """(|KR(factors)|, bound on its subnormal rounding in half steps)."""
    mag, err = np.abs(factors[0]), np.zeros(factors[0].shape)
    for f in factors[1:]:
        mag, err = khatri_rao([mag, np.abs(f)]), khatri_rao([err, np.abs(f)]) + 1.0
    return mag, err


def _subnormal_half_steps(x1, c) -> np.ndarray:
    """Bound, in half subnormal steps, on the subnormal rounding of X1 KR(U) KR(V)^T.

    A product that lands in the subnormal range rounds by up to half a
    step whatever its size, so a relative bound misses it.  Each product
    of the Khatri-Rao products, of X1 @ KR(U) and of its product with
    KR(V)^T adds one half step, which the later products scale by the
    magnitudes they multiply it with; x1 holds |X1|.
    """
    mu, eu = _kr_half_steps(c.predictor_factors)
    if c.outcome_factors:
        mv, ev = _kr_half_steps(c.outcome_factors)
    else:
        mv, ev = np.ones((1, c.rank)), np.zeros((1, c.rank))
    mt, et = x1 @ mu, x1 @ eu + x1.shape[1]
    return et @ mv.T + mt @ ev.T + c.rank


def _fit_and_bound(seed: int, in_dims: tuple, out_dims: tuple, lam: float, rank: int):
    """(objective of an uncentered fit, reduced-rank ridge objective) on seeded data."""
    rng = np.random.default_rng(seed)
    p, q = prod(in_dims), prod(out_dims)
    n = int(rng.integers(p + 2, p + 40))
    x = rng.standard_normal((n,) + in_dims)
    signal = x.reshape(n, p, order="F") @ rng.standard_normal((p, q))
    y = signal.reshape((n,) + out_dims, order="F") + rng.standard_normal((n,) + out_dims)
    cfg = FitConfig(rank=rank, lam=lam, seed=seed, center_data=False, n_starts=3)
    got = fit(DenseTensor(x), DenseTensor(y), cfg).objective_trace[-1]
    _, bound = reduced_rank_ridge(x.reshape(n, p, order="F"), y.reshape(n, q, order="F"), lam, rank)
    return got, bound


_LAMBDAS = st.sampled_from([0.5, 5.0, 50.0])


class TestGlobalOptimumProperties:
    """A fit against reduced-rank ridge regression, its closed-form optimum.

    With an order-1 predictor and response, a CP coefficient array of rank
    R is any matrix of rank at most R, so the best fit reaches the closed
    form.  At higher orders the matricized closed form bounds every fit
    from below; a fit under it would be a bug.  The reported objective's
    penalty, lam * ||B||^2 from the factor Grams, rounds more than an
    explicit sum over B's entries: 2 of 1500 random order-1 fits reported
    up to 4e-12 relative below the closed form, hence the slack on the
    bound.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 10), st.integers(2, 8), st.just(0.0) | _LAMBDAS,
           st.integers(0, 2**32 - 1), st.data())
    def test_order_one_fit_reaches_the_closed_form(self, p, q, lam, seed, data):
        rank = data.draw(st.integers(1, min(p, q)))
        got, want = _fit_and_bound(seed, (p,), (q,), lam, rank)
        assert got == pytest.approx(want, rel=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3),
           st.lists(st.integers(2, 4), max_size=2), _LAMBDAS, st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_higher_order_fit_stays_above_the_matricized_bound(self, in_dims, out_dims, lam,
                                                               rank, seed):
        assume(len(in_dims) > 1 or len(out_dims) != 1)
        # a mode's system is singular at every lam when the rank exceeds the
        # number of cells in the other modes
        dims = in_dims + out_dims
        assume(all(rank <= prod(dims) // d for d in dims))
        got, bound = _fit_and_bound(seed, tuple(in_dims), tuple(out_dims), lam, rank)
        assert got >= bound * (1.0 - 1e-9)


class TestExitCodeProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(0, 2**32 - 1), st.data())
    def test_rank_deficient_unpenalized_fit_exits_3(self, n, q, rank, anneal, seed, data):
        # the predictor system is (rank * p) square from n * q rows
        p = data.draw(st.integers(n * q // rank + 1, n * q // rank + 4))
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            x, y = os.path.join(tmp, "x.mwt"), os.path.join(tmp, "y.mwt")
            write_tensor(x, DenseTensor(rng.standard_normal((n, p))))
            write_tensor(y, DenseTensor(rng.standard_normal((n, q))))
            code = main(["fit", "--x", x, "--y", y, "--rank", str(rank), "--lambda", "0",
                         "--anneal-steps", str(anneal), "--no-center",
                         "--out", os.path.join(tmp, "m.json")])
        assert code == 3

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["x.mwt", "y.mwt", "model.json", "draws.json"]), st.data())
    def test_corrupted_input_file_exits_2(self, name, data):
        files = _valid_files()
        if name.endswith(".json"):
            fault, text = _corrupt_json(data.draw, files[name].decode())
            bad = text.encode()
        else:
            fault, bad = _corrupt_tensor_v2(data.draw, files[name])
        with tempfile.TemporaryDirectory() as tmp:
            path = functools.partial(os.path.join, tmp)
            for valid, valid_bytes in files.items():
                with open(path(valid), "wb") as fh:
                    fh.write(valid_bytes)
            with open(path("bad"), "wb") as fh:
                fh.write(bad)
            if name == "draws.json":
                # no command reads a draws file: read_draws raises the
                # ValueError that main reports with exit code 2
                with pytest.raises(ValueError):
                    read_draws(path("bad"))
                return
            given_as = {"--model": "model.json", "--x": "x.mwt", "--y": "y.mwt", "--x-new": "x.mwt"}
            flag = data.draw(st.sampled_from([f for f, n in given_as.items() if n == name]))
            given_as[flag] = "bad"

            def flags(*names):
                return [arg for f in names for arg in (f, path(given_as[f]))]

            if flag == "--model" or (flag == "--x" and data.draw(st.booleans())):
                argv = ["predict", "--out", path("p.mwt")] + flags("--model", "--x")
            else:
                argv = ["gibbs", "--rank", "2", "--lambda", "0.5", "--samples", "3",
                        "--out", path("d.json")] + flags("--x", "--y", "--x-new")
            code = main(argv)
        assert code == 2, fault


# faults of a float array's base64 text: the decoded doubles with one
# dropped, added or made non-finite, or the text itself spoiled
_VALUE_FAULTS = ("dropped value", "extra value", "non-finite value", "partial value",
                 "non-alphabet character", "character dropped", "list for text")
# characters outside the base64 alphabet: URL-safe base64's, separators, non-ASCII
_BAD_CHARACTERS = ("-", "_", ".", " ", "\n", ",", "\u00e9")
# the keys whose values are float arrays
_ARRAY_KEYS = ("values", "x_offsets", "y_offsets", "sigma2")
# keys a reader may find absent: the format version, and x_offsets, whose
# absence marks an uncentered fit
_OPTIONAL_KEYS = ("version", "x_offsets")


@functools.cache
def _valid_files() -> dict:
    """The bytes of a predictor and a response .mwt, a model and a draws file, by name."""
    rng = np.random.default_rng(5)
    x = DenseTensor(rng.standard_normal((8, 3, 2)))
    y = DenseTensor(rng.standard_normal((8, 2)))
    names = ("x.mwt", "y.mwt", "model.json", "draws.json")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in names]
        write_tensor(paths[0], x)
        write_tensor(paths[1], y)
        write_model(paths[2], fit(x, y, FitConfig(rank=2, lam=0.5)), 0.5, 0)
        write_draws(paths[3], gibbs(x, y, GibbsConfig(rank=2, n_samples=3, lam=0.5)), 0.5, 0)
        files = []
        for p in paths:
            with open(p, "rb") as fh:
                files.append(fh.read())
    return dict(zip(names, files))


_V2_FAULTS = ("cut", "dropped value", "extra value", "flipped byte", "non-finite value",
              "header dims", "end line removed", "end line altered")
_END_SIZE = len(b"end 00000000\n")


def _corrupt_tensor_v2(draw, data: bytes) -> tuple:
    """(fault, bytes) of a version-2 .mwt file cut short, with a value dropped,
    added, spoiled or made non-finite, a header dim raised, or its end line
    removed or altered.  A dropped, added or non-finite value comes with the
    checksum of the new values, so only the length or the finiteness check
    can refuse it."""
    fault = draw(st.sampled_from(_V2_FAULTS))
    if fault == "cut":
        return fault, data[:draw(st.integers(0, len(data) - 1))]
    h = data.index(b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1) + 1
    header, payload, end = data[:h], data[h:-_END_SIZE], data[-_END_SIZE:]
    dims = [int(d) for d in header.split(b"\n")[2].split()]
    n = len(payload) // 8
    if fault == "dropped value":
        i = 8 * draw(st.integers(0, n - 1))
        return fault, mwt2_bytes(dims, payload[:i] + payload[i + 8:])
    if fault == "extra value":
        i = 8 * draw(st.integers(0, n))
        return fault, mwt2_bytes(dims, payload[:i] + np.array([0.5], "<f8").tobytes() + payload[i:])
    if fault == "non-finite value":
        i = 8 * draw(st.integers(0, n - 1))
        value = np.array([draw(st.sampled_from((np.inf, -np.inf, np.nan)))], "<f8").tobytes()
        return fault, mwt2_bytes(dims, payload[:i] + value + payload[i + 8:])
    if fault == "flipped byte":
        i = draw(st.integers(0, len(payload) - 1))
        spoiled = payload[:i] + bytes([payload[i] ^ draw(st.integers(1, 255))]) + payload[i + 1:]
        return fault, header + spoiled + end
    if fault == "header dims":
        j = draw(st.integers(0, len(dims) - 1))
        dims[j] += draw(st.integers(1, 3))
        return fault, mwt2_bytes(dims, b"")[:-_END_SIZE] + payload + end
    if fault == "end line removed":
        return fault, header + payload
    k = draw(st.integers(0, _END_SIZE - 1))
    other = draw(st.integers(0, 255).filter(lambda b: b != end[k]))
    return fault, header + payload + end[:k] + bytes([other]) + end[k + 1:]


def _entries(node):
    """(container, key, child) of every dict entry and list item, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield node, key, child
        yield from _entries(child)


def _corrupt_json(draw, text: str) -> tuple:
    """(fault, text) of a JSON file cut short, missing a key, with one value
    spoiled, or with one float array's base64 text or its doubles spoiled."""
    fault = draw(st.sampled_from(_VALUE_FAULTS + ("truncated", "key removed", "number made true",
                                                  "integer made fractional", "boolean made a string")))
    if fault == "truncated":
        # every cut before the closing brace leaves invalid JSON
        return fault, text[:draw(st.integers(0, text.rindex("}") - 1))]
    doc = json.loads(text)
    if fault == "key removed":
        keys = [(c, k) for c, k, _ in _entries(doc)
                if isinstance(c, dict) and k not in _OPTIONAL_KEYS]
        container, key = draw(st.sampled_from(keys))
        del container[key]
        return fault, json.dumps(doc)
    if fault == "number made true":
        # JSON's true is an int to Python; "converged" is the one boolean field
        numbers = [(c, k) for c, k, v in _entries(doc)
                   if type(v) in (int, float) and k not in _OPTIONAL_KEYS]
        container, key = draw(st.sampled_from(numbers))
        container[key] = True
        return fault, json.dumps(doc)
    if fault == "integer made fractional":
        integers = [(c, k) for c, k, v in _entries(doc) if type(v) is int and k not in _OPTIONAL_KEYS]
        container, key = draw(st.sampled_from(integers))
        container[key] += 0.5
        return fault, json.dumps(doc)
    if fault == "boolean made a string":
        containers = [c for c, k, _ in _entries(doc) if k == "converged"]
        draw(st.sampled_from(containers))["converged"] = draw(st.sampled_from(["false", "true"]))
        return fault, json.dumps(doc)
    container, key = draw(st.sampled_from([(c, k) for c, k, v in _entries(doc)
                                           if k in _ARRAY_KEYS and isinstance(v, str)]))
    text = container[key]
    if fault == "non-alphabet character":
        i = draw(st.integers(0, len(text)))
        container[key] = text[:i] + draw(st.sampled_from(_BAD_CHARACTERS)) + text[i:]
        return fault, json.dumps(doc)
    if fault == "character dropped":
        i = draw(st.integers(0, len(text) - 1))
        container[key] = text[:i] + text[i + 1:]
        return fault, json.dumps(doc)
    data = base64.b64decode(text)
    n = len(data) // 8
    if fault == "list for text":
        container[key] = np.frombuffer(data, "<f8").tolist()
        return fault, json.dumps(doc)
    i = 8 * draw(st.integers(0, n - 1))
    if fault == "dropped value":
        data = data[:i] + data[i + 8:]
    elif fault == "extra value":
        data = data[:i] + np.array([0.5], "<f8").tobytes() + data[i:]
    elif fault == "partial value":
        data = data[:i] + data[i + draw(st.integers(1, 7)):]
    else:
        value = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        data = data[:i] + np.array([value], "<f8").tobytes() + data[i + 8:]
    container[key] = base64.b64encode(data).decode("ascii")
    return fault, json.dumps(doc)
