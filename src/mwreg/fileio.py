"""File formats: binary tensors, order-2 CSV, and JSON model/draw files.

A tensor file (.mwt, version 2) starts with three text lines: the magic
line "mwt 2", the order K, and the K dims separated by spaces.  The values
follow as raw little-endian IEEE-754 doubles in first-index-fastest order,
8 bytes each with no separators, and the file ends with the line
"end <CRC-32 of those bytes as 8 lowercase hex digits>".  Every double is
stored as its own bits, so it round-trips bit-exactly by construction.
The writer goes a bounded slab at a time and makes no whole-array copy.
The reader checks a regular file's length against the header first and
then reads its values once, straight into the tensor's array; a pipe or
other stream it reads a bounded chunk at a time, up to the bytes the
header asks for plus an end line.  Either way a header's count alone
allocates nothing.  It refuses a payload of the wrong length, a missing
or altered end line, a checksum mismatch and a non-finite value, each
with a ValueError that names the file.

A file whose magic line names another version ("mwt 1", the old decimal
text, or "mwt 3") is refused with a ValueError naming the file and the
version.  CSV files are accepted for order-2 tensors (rows are mode 1).

Model files (version 2) and draws files (version 3) are JSON, written by
the C encoder of `json.dumps`.  Scalars (rank, rows, lam, seed,
objective, iterations, converged) are JSON values; every float array is
one string, the standard base64 of its little-endian doubles, so it
round-trips bit-exactly by construction, as .mwt values do.  One encoder
and one decoder serve both kinds; the decoder refuses a value that is not
a string, text that is not base64 and a byte count that is not whole
doubles.  A model file's fit and a draws file's "mode" block hold the
same fit record, whose x_offsets and y_offsets are both arrays (a centered
fit) or both null.  A draws file holds one coefficients record whose
values give len(sigma2) factors per mode, one draw after another.  A
file that parses but lacks a key or holds a value of the wrong type or
shape (a true or false where a number belongs, too) is rejected with a
ValueError naming the file, and so is a file of another version.
"""

from __future__ import annotations

import base64
import json
import os
import re
import stat
import warnings
import zlib
from math import prod

import numpy as np

from .coefficients import CpCoefficients
from .fitting import FitResult
from .posterior import PosteriorDraws
from .tensors import _KINDS, DenseTensor, _is_kind

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_model",
    "write_model",
    "read_draws",
    "write_draws",
]

# the one tensor file version, written and read
_TENSOR_VERSION = 2
_MAGIC = b"mwt %d" % _TENSOR_VERSION
# the longest header line a reader takes: far past any real dims line
_HEADER_LINE = 1 << 16
# values of a tensor file written at once
_WRITE_VALUES = 1 << 16
# bytes of a tensor file's values read at once
_READ_CHUNK = 1 << 20
_END_LINE = re.compile(rb"end ([0-9a-f]{8})\n")
_END_SIZE = len(b"end 00000000\n")
# the one version of each JSON file kind, written and read
_JSON_VERSION = {"model": 2, "draws": 3}


def write_tensor(path: str, t: DenseTensor) -> None:
    """Write one tensor as a version-2 .mwt file (or CSV when path ends .csv).

    The file holds the text lines "mwt 2", the order and the dims, then the
    values as little-endian doubles in first-index-fastest order, then the
    line "end %08x" of the values' CRC-32.
    """
    if str(path).lower().endswith(".csv"):
        _write_csv(path, t)
        return
    crc = 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC + f"\n{t.order}\n{' '.join(map(str, t.dims))}\n".encode())
        # at most _WRITE_VALUES values at a time; a chunk that needs no
        # buffering can come back as a strided view, which is made contiguous
        pieces = np.nditer(t.array, flags=["external_loop", "buffered"], order="F",
                           op_dtypes=["<f8"], buffersize=_WRITE_VALUES)
        for piece in pieces:
            piece = np.ascontiguousarray(piece)
            crc = zlib.crc32(piece, crc)
            fh.write(piece)
        fh.write(b"end %08x\n" % crc)


def _write_csv(path: str, t: DenseTensor) -> None:
    if t.order != 2:
        raise ValueError("CSV output is limited to order-2 tensors")
    np.savetxt(path, t.array, delimiter=",", fmt="%.17g")


def read_tensor(path: str) -> DenseTensor:
    """Read a version-2 tensor file; CSV falls back to an order-2 read."""
    with open(path, "rb") as fh:
        magic = fh.readline(_HEADER_LINE).strip()
        if magic == _MAGIC:
            return _read_v2(path, fh)
    if magic.startswith(b"mwt "):
        version = magic[4:].strip().decode(errors="replace")
        raise ValueError(f"{path}: tensor file version {version:.40} is not supported; "
                         f"this reader reads {_TENSOR_VERSION}")
    return _read_csv(path)


def _read_v2(path: str, fh) -> DenseTensor:
    """The tensor of a version-2 file whose magic line fh has just read."""
    try:
        order = _header_int(_header_line(fh))
        dims = tuple(_header_int(v) for v in _header_line(fh).split())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed tensor file: {exc}") from None
    if order < 1 or len(dims) != order:
        raise ValueError(f"{path}: dim count {len(dims)} does not match order {order}")
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: dims must be positive")
    count = prod(dims)
    size = 8 * count
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        found, last, values = _file_payload(fh, size, info.st_size - fh.tell())
    else:
        found, last, values = _stream_payload(fh, size)
    if found > size + _END_SIZE:
        raise ValueError(
            f"{path}: more than the {size} bytes of {count} values for dims {dims} "
            "before the end line")
    end = _END_LINE.fullmatch(last[-_END_SIZE:])
    if end is None:
        raise ValueError(f"{path}: missing or altered end line")
    if found != size + _END_SIZE:
        raise ValueError(
            f"{path}: expected {size} bytes of {count} values for dims {dims}, "
            f"found {found - _END_SIZE}")
    crc = zlib.crc32(values)
    if crc != int(end[1], 16):
        raise ValueError(
            f"{path}: checksum {crc:08x} of the values does not match the end line's {end[1].decode()}")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: values must be finite")
    return DenseTensor._adopt(values.reshape(dims, order="F"))


def _file_payload(fh, size: int, left: int) -> tuple:
    """(bytes found after the header, their last bytes, the values) of a regular file.

    left, the file's bytes after the header, is checked first, so a
    header's count alone allocates nothing; a file of the right length is
    read once into its values' array.  values is None when the length is wrong.
    """
    if left != size + _END_SIZE:
        fh.seek(max(left - _END_SIZE, 0), os.SEEK_CUR)
        return left, fh.read(_END_SIZE), None
    values = np.empty(size // 8, dtype="<f8")
    found = fh.readinto(values)
    # a byte past the end line tells a file that grew since the length check
    last = fh.read(_END_SIZE + 1)
    return found + len(last), last, values


def _stream_payload(fh, size: int) -> tuple:
    """_file_payload's triple for a pipe or other stream, read into one growing buffer.

    The buffer starts at _READ_CHUNK bytes and doubles in place as bytes
    arrive, but never holds more than the header's bytes plus an end line
    and one byte, which tells a longer stream from an exact one.  The
    values are a view of it.
    """
    limit = size + _END_SIZE + 1
    buf, found = np.empty(0, dtype=np.uint8), 0
    while found < limit:
        if found == buf.size:
            # realloc: the bytes read so far are not held twice
            buf.resize(min(limit, max(2 * buf.size, _READ_CHUNK)), refcheck=False)
        got = fh.readinto(buf[found:])
        if not got:
            break
        found += got
    values = buf[:size].view("<f8") if found == size + _END_SIZE else None
    return found, buf[max(found - _END_SIZE, 0):found].tobytes(), values


def _header_line(fh) -> str:
    """The next header line of a tensor file, which the writer always ends with a newline."""
    line = fh.readline(_HEADER_LINE)
    if not line.endswith(b"\n"):
        raise ValueError(f"header line {line[:40]!r} is cut short or too long")
    return line.decode("ascii")


def _header_int(text: str) -> int:
    """int(text), without the digit grouping ("1_0" is 10) the writer never emits."""
    if "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _read_csv(path: str) -> DenseTensor:
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: not a tensor file or numeric CSV: {exc}") from None
    if arr.size == 0:
        raise ValueError(f"{path}: not a tensor file or numeric CSV: no values")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: values must be finite")
    return DenseTensor._adopt(arr)


def _encoded(values: np.ndarray) -> str:
    """values, read in C order, as the base64 text of their little-endian doubles.

    A C-contiguous float array is encoded without a copy.
    """
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8")).decode("ascii")


def _decoded(text) -> np.ndarray:
    """The read-only float array of _encoded's text.

    A value that is not a string is a TypeError; text that is not base64
    or not whole doubles is a ValueError.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected base64 text, found {text!r:.40}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"not base64 text: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"{len(raw)} bytes are not a whole number of 8-byte doubles")
    return np.frombuffer(raw, dtype="<f8").astype(float, copy=False)


def _factor_list(factors) -> list:
    """Each factor (rows, R), or stack of them (draws, rows, R), as its rows and
    its values: each factor first-index-fastest, one draw after another."""
    return [{"rows": f.shape[-2], "values": _encoded(f.swapaxes(-1, -2))} for f in factors]


def _number(value, kind=float):
    """A JSON number as kind; true and false, which Python counts as ints, are
    refused, and so is a number with a fraction or exponent where kind is int."""
    if not _is_kind(value, kind):
        raise TypeError(f"expected {_KINDS[kind][1]}, found {value!r:.40}")
    return kind(value)


def _factors_from(items, rank: int, draws: tuple, kind: str) -> list:
    """The factors of _factor_list's items, each with the leading axes draws: () or (n,).

    kind, "predictor" or "outcome", names a factor whose value count is wrong.
    """
    factors = []
    for i, d in enumerate(items):
        rows = _number(d["rows"], int)
        # reshape would infer a row count of -1
        if rows < 1:
            raise ValueError(f"factor rows must be at least 1, found {rows}")
        values = _decoded(d["values"])
        if values.size != prod(draws) * rows * rank:
            if draws and rank > 0 and values.size % (rows * rank) == 0:
                raise ValueError(f"{draws[0]} sigma2 values for {values.size // (rows * rank)} "
                                 f"draws in {kind} factor {i}")
            shape = [f"{n} draws" for n in draws] + [f"{rows} rows", f"{rank} components"]
            raise ValueError(f"{kind} factor {i} holds {values.size} values, not {' x '.join(shape)}")
        factors.append(values.reshape(*draws, rank, rows).swapaxes(-1, -2))
    return factors


def _coeff_dict(pred, out) -> dict:
    return {
        "rank": pred[0].shape[-1],
        "predictor_factors": _factor_list(pred),
        "outcome_factors": _factor_list(out),
    }


def _coeff_factors(d: dict, draws: tuple = ()) -> tuple:
    """(predictor factors, outcome factors) of a coefficients record; see _factors_from."""
    rank = _number(d["rank"], int)
    return tuple(_factors_from(d[f"{kind}_factors"], rank, draws, kind)
                 for kind in ("predictor", "outcome"))


def _fit_dict(result: FitResult) -> dict:
    """Fit record shared by model files and the "mode" block of draws files."""
    b = result.coefficients
    centered = result.x_offsets is not None
    return {
        "coefficients": _coeff_dict(b.predictor_factors, b.outcome_factors),
        "x_offsets": _encoded(result.x_offsets.ravel(order="F")) if centered else None,
        "y_offsets": _encoded(result.y_offsets.ravel(order="F")) if centered else None,
        "objective": float(result.objective_trace[-1]),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _fit_from(d: dict) -> FitResult:
    b = CpCoefficients(*_coeff_factors(d["coefficients"]))
    x_off = y_off = None
    if (d["x_offsets"] is None) != (d["y_offsets"] is None):
        raise ValueError("x_offsets and y_offsets must both be lists or both be null")
    if d["x_offsets"] is not None:
        x_off = _decoded(d["x_offsets"]).reshape(b.in_dims, order="F")
        y_off = _decoded(d["y_offsets"]).reshape(b.out_dims, order="F")
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
    sigma2s = _decoded(d["sigma2"])
    return PosteriorDraws(*_coeff_factors(d["coefficients"], sigma2s.shape), sigma2s, _fit_from(d["mode"]))


def _write_json(path: str, kind: str, lam: float, seed: int, body: dict) -> None:
    payload = {"format": f"mwreg-{kind}", "version": _JSON_VERSION[kind], "lam": float(lam),
               "seed": int(seed), **body}
    # dumps runs the C encoder; dump to a file takes the pure-Python path
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _read_json(path: str, kind: str, parse) -> tuple:
    """(parse(payload), lam, seed) of a JSON file of the given kind.

    A structural fault (bad JSON, a missing key, a value of the wrong type
    or shape) is reported as a ValueError naming the file, and so is a
    file of another kind or of a version other than _JSON_VERSION[kind].
    """
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise TypeError(f"top level is a JSON {type(payload).__name__}, not an object")
        if payload.get("format") != f"mwreg-{kind}":
            fault = f"not a {kind} file"
        elif (version := _number(payload["version"], int)) != _JSON_VERSION[kind]:
            fault = (f"{kind} file version {version} is not supported; "
                     f"this reader reads {_JSON_VERSION[kind]}")
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
    """Serialize a chain: each mode's stack of retained factors, sigma2s, and the mode."""
    _write_json(path, "draws", lam, seed, {
        "sigma2": _encoded(draws.sigma2s),
        "coefficients": _coeff_dict(draws.predictor_factors, draws.outcome_factors),
        "mode": _fit_dict(draws.mode),
    })


def read_draws(path: str) -> tuple:
    """Load a draws file; returns (PosteriorDraws, lam, seed)."""
    return _read_json(path, "draws", _draws_from)
