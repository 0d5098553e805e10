"""File formats: text tensors, order-2 CSV, and JSON model/draw files.

The tensor format is line-oriented text: a magic line "mwt 1", the order
K, the K dims, then the values in first-index-fastest order, 8 to a line,
printed with 17 significant digits so every finite double round-trips
bit-exactly.  The writer emits exactly the bytes of formatting each value
with "%.17g", but formats a block of lines with one `%` operation; the
reader is a correctly rounded decimal parse, run on fixed-size chunks of
text.  CSV files are accepted for order-2 tensors (rows are mode 1).
Model and draw files are JSON, written by the C encoder of `json.dumps`;
Python's float repr is shortest-round-trip, so these round-trip
bit-exactly as well.  A model file's fit and a draws file's "mode" block
hold the same fit record.  A file that parses but lacks a key or holds a
value of the wrong type or shape (a true or false where a number belongs,
too) is rejected with a ValueError naming the file.
"""

from __future__ import annotations

import json
from math import prod

import numpy as np

from .coefficients import CpCoefficients
from .fitting import FitResult
from .posterior import PosteriorDraws
from .tensors import DenseTensor

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_model",
    "write_model",
    "read_draws",
    "write_draws",
]

_MAGIC = "mwt 1"
_VALUES_PER_LINE = 8
_LINE = " ".join(["%.17g"] * _VALUES_PER_LINE) + "\n"
_BLOCK_VALUES = 1024 * _VALUES_PER_LINE
# characters of a tensor file's values parsed at once
_READ_CHUNK = 1 << 20
# the one model and draws file version, written and read
_JSON_VERSION = 1


def write_tensor(path: str, t: DenseTensor) -> None:
    """Write one tensor in the text format (or CSV when path ends .csv)."""
    if str(path).lower().endswith(".csv"):
        _write_csv(path, t)
        return
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"{t.order}\n")
        fh.write(" ".join(str(d) for d in t.dims) + "\n")
        _write_values(fh, t.array.ravel(order="F"))


def _write_values(fh, vals: np.ndarray) -> None:
    """Write vals 8 to a line, each as "%.17g", with one `%` per block of lines.

    The output equals formatting value by value: `tolist()` gives Python
    floats, and "%.17g" on them is the conversion f"{v:.17g}" makes.
    """
    for start in range(0, vals.size, _BLOCK_VALUES):
        chunk = vals[start:start + _BLOCK_VALUES].tolist()
        lines, rest = divmod(len(chunk), _VALUES_PER_LINE)
        fmt = _LINE * lines + (" ".join(["%.17g"] * rest) + "\n" if rest else "")
        fh.write(fmt % tuple(chunk))


def _write_csv(path: str, t: DenseTensor) -> None:
    if t.order != 2:
        raise ValueError("CSV output is limited to order-2 tensors")
    np.savetxt(path, t.array, delimiter=",", fmt="%.17g")


def read_tensor(path: str) -> DenseTensor:
    """Read a tensor file; CSV falls back to an order-2 read."""
    with open(path) as fh:
        first = fh.readline()
        if first.strip() != _MAGIC:
            return _read_csv(path)
        try:
            order = _header_int(fh.readline())
            dims = tuple(_header_int(v) for v in fh.readline().split())
            values = _parse_values(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed tensor file: {exc}") from None
    if order < 1 or len(dims) != order:
        raise ValueError(f"{path}: dim count {len(dims)} does not match order {order}")
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: dims must be positive")
    if values.size != prod(dims):
        raise ValueError(
            f"{path}: expected {prod(dims)} values for dims {dims}, found {values.size}"
        )
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: values must be finite")
    return DenseTensor.from_values(dims, values)


def _header_int(text: str) -> int:
    """int(text), without the digit grouping ("1_0" is 10) the writer never emits."""
    if "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _parse_values(fh) -> np.ndarray:
    """The whitespace-separated floats left in fh, as one array.

    The text is read _READ_CHUNK characters at a time and cut after its
    last newline (or space), so no token is split.  Each piece goes
    through the `np.array(piece.split(), dtype=float)` conversion of a
    whole-file parse, so only one piece's str objects exist at a time.
    That conversion follows Python's float grammar, which allows digit
    grouping ("5_0" is 50.0); the writer never emits an underscore, so a
    piece holding one is refused, after one scan of its text.
    """
    pieces, carry = [], ""
    while True:
        chunk = fh.read(_READ_CHUNK)
        text = carry + chunk
        cut = (text.rfind("\n") + 1 or text.rfind(" ") + 1) if chunk else len(text)
        carry, piece = text[cut:], text[:cut]
        if "_" in piece:
            # the first token refused by either rule, so every chunk size names the same one
            for token in piece.split():
                if "_" in token:
                    raise ValueError(f"could not convert string to float: {token!r}")
                float(token)
        pieces.append(np.array(piece.split(), dtype=float))
        if not chunk:
            return np.concatenate(pieces)


def _read_csv(path: str) -> DenseTensor:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: not a tensor file or numeric CSV: {exc}") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: values must be finite")
    return DenseTensor(arr)


def _factor_list(factors) -> list:
    return [
        {"rows": int(f.shape[0]), "values": f.ravel(order="F").tolist()}
        for f in factors
    ]


def _number(value, kind=float):
    """A JSON number as kind; true and false, which Python counts as ints, are
    refused, and so is a number with a fraction or exponent where kind is int."""
    integral = kind is int
    if type(value) not in ((int,) if integral else (int, float)):
        raise TypeError(f"expected {'an integer' if integral else 'a number'}, found {value!r:.40}")
    return kind(value)


def _numbers(values) -> np.ndarray:
    """A JSON list of numbers as a float array."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise TypeError("expected a list of numbers")
    return np.asarray(values, dtype=float)


def _factors_from(items, rank: int) -> list:
    factors = []
    for d in items:
        rows = _number(d["rows"], int)
        # reshape would infer a row count of -1
        if rows < 1:
            raise ValueError(f"factor rows must be at least 1, found {rows}")
        factors.append(_numbers(d["values"]).reshape(rows, rank, order="F"))
    return factors


def _coeff_dict(pred, out) -> dict:
    return {
        "rank": pred[0].shape[1],
        "predictor_factors": _factor_list(pred),
        "outcome_factors": _factor_list(out),
    }


def _coeff_factors(d: dict) -> tuple:
    """(predictor factors, outcome factors) of a coefficients record."""
    rank = _number(d["rank"], int)
    return _factors_from(d["predictor_factors"], rank), _factors_from(d["outcome_factors"], rank)


def _fit_dict(result: FitResult) -> dict:
    """Fit record shared by model files and the "mode" block of draws files."""
    b = result.coefficients
    centered = result.x_offsets is not None
    return {
        "coefficients": _coeff_dict(b.predictor_factors, b.outcome_factors),
        "x_offsets": result.x_offsets.ravel(order="F").tolist() if centered else None,
        "y_offsets": result.y_offsets.ravel(order="F").tolist() if centered else None,
        "objective": float(result.objective_trace[-1]),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _fit_from(d: dict) -> FitResult:
    b = CpCoefficients(*_coeff_factors(d["coefficients"]))
    x_off = y_off = None
    if d.get("x_offsets") is not None:
        x_off = _numbers(d["x_offsets"]).reshape(b.in_dims, order="F")
        y_off = _numbers(d["y_offsets"]).reshape(b.out_dims, order="F")
        if not (np.isfinite(x_off).all() and np.isfinite(y_off).all()):
            raise ValueError("offsets must be finite")
    converged = d["converged"]
    if type(converged) is not bool:
        raise TypeError(f"expected true or false, found {converged!r:.40}")
    return FitResult(
        coefficients=b,
        objective_trace=[_number(d["objective"])],
        substep_trace=[],
        converged=converged,
        iterations=_number(d["iterations"], int),
        x_offsets=x_off,
        y_offsets=y_off,
    )


def _draws_from(d: dict) -> PosteriorDraws:
    samples = [_coeff_factors(c) for c in d["samples"]]
    # per mode, the samples' factors stacked; a sample with another mode
    # count or factor shape cannot be stacked
    pred, out = ([np.stack(fs) for fs in zip(*(s[k] for s in samples), strict=True)]
                 for k in (0, 1))
    return PosteriorDraws(pred, out, _numbers(d["sigma2"]), _fit_from(d["mode"]))


def _write_json(path: str, kind: str, lam: float, seed: int, body: dict) -> None:
    payload = {"format": f"mwreg-{kind}", "version": _JSON_VERSION, "lam": float(lam),
               "seed": int(seed), **body}
    # dumps runs the C encoder; dump to a file takes the pure-Python path
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_json(path: str, kind: str, parse) -> tuple:
    """(parse(payload), lam, seed) of a JSON file of the given kind.

    A structural fault (bad JSON, a missing key, a value of the wrong type
    or shape) is reported as a ValueError naming the file, and so is a
    file of another kind or of a version other than _JSON_VERSION.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise TypeError(f"top level is a JSON {type(payload).__name__}, not an object")
        if payload.get("format") != f"mwreg-{kind}":
            fault = f"not a {kind} file"
        elif (version := _number(payload["version"], int)) != _JSON_VERSION:
            fault = (f"{kind} file version {version} is not supported; "
                     f"this reader reads {_JSON_VERSION}")
        else:
            return parse(payload), _number(payload["lam"]), _number(payload["seed"], int)
    except KeyError as exc:
        raise ValueError(f"{path}: malformed {kind} file: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {kind} file: {exc}") from None
    raise ValueError(f"{path}: {fault}")


def write_model(path: str, result: FitResult, lam: float, seed: int) -> None:
    """Serialize a fit: factors, centering offsets, and fit metadata."""
    _write_json(path, "model", lam, seed, _fit_dict(result))


def read_model(path: str) -> tuple:
    """Load a model file; returns (FitResult, lam, seed)."""
    return _read_json(path, "model", _fit_from)


def write_draws(path: str, draws: PosteriorDraws, lam: float, seed: int) -> None:
    """Serialize a chain: every retained factor set, sigma2s, and the mode."""
    _write_json(path, "draws", lam, seed, {
        "sigma2": draws.sigma2s.tolist(),
        "samples": [_coeff_dict([s[t] for s in draws.predictor_factors],
                                [s[t] for s in draws.outcome_factors]) for t in range(len(draws))],
        "mode": _fit_dict(draws.mode),
    })


def read_draws(path: str) -> tuple:
    """Load a draws file; returns (PosteriorDraws, lam, seed)."""
    return _read_json(path, "draws", _draws_from)
