"""Text file formats for streams and sketches.

Both formats are line-oriented and diff-able:

    rowstream v1 <n> <d> <dense|sparse>
    # meta <json>
    <row> x n

    sketch v1 <m> <d> <dense|sparse>
    # meta <json>
    <src> <weight> <row> x m

A dense row is d whitespace-separated floats; a sparse row is `k idx:val
... idx:val` with k entries. Floats carry 17 significant digits so values
round-trip exactly. A sketch file's rows are copied from the stream the
sketch was drawn from, in that stream's mode. Both readers share one
preamble and one row parser, and a RowStream checks the rows of either kind
of file. Writers go through a temp file and rename, so a failed write never
leaves a partial file behind.
"""
from __future__ import annotations

import json
import os

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, FormatError, NonFiniteInput
from .instances import RowStream
from .sketch import Sketch

STREAM_MAGIC = "rowstream"
SKETCH_MAGIC = "sketch"
FORMAT_VERSION = "v1"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _meta_line(meta: dict) -> str:
    return "# meta " + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _row_text(row, sparse: bool) -> str:
    if sparse:
        idx, val = row
        parts = [str(len(idx))]
        parts.extend(f"{int(i)}:{_fmt(v)}" for i, v in zip(idx, val))
        return " ".join(parts)
    return " ".join(_fmt(v) for v in row)


def _parse_dense_row(tokens: list[str], d: int) -> np.ndarray:
    if len(tokens) != d:
        raise FormatError(f"dense row has {len(tokens)} values, expected {d}")
    try:
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise FormatError(f"bad float in row: {exc}") from exc


def _parse_sparse_row(tokens: list[str]):
    try:
        k = int(tokens[0])
    except (ValueError, IndexError) as exc:
        raise FormatError("sparse row must start with its entry count") from exc
    if len(tokens) != k + 1:
        raise FormatError(f"sparse row announces {k} entries, carries {len(tokens) - 1}")
    idx = np.empty(k, dtype=np.int64)
    val = np.empty(k)
    for j, tok in enumerate(tokens[1:]):
        try:
            i_s, v_s = tok.split(":", 1)
            idx[j] = int(i_s)
            val[j] = float(v_s)
        except ValueError as exc:
            raise FormatError(f"bad sparse entry {tok!r}") from exc
    return idx, val


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _parse_header(line: str, magic: str) -> tuple[int, int, bool]:
    tokens = line.split()
    if not tokens or tokens[0] != magic:
        raise FormatError(f"not a {magic} file")
    if len(tokens) != 5:
        raise FormatError(f"malformed {magic} header: {line!r}")
    if tokens[1] != FORMAT_VERSION:
        raise FormatError(f"unsupported {magic} version {tokens[1]!r}")
    try:
        n, d = int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError(f"bad counts in header: {line!r}") from exc
    if n < 0 or d < 1:
        raise FormatError(f"header needs n >= 0 and d >= 1: {line!r}")
    if tokens[4] not in ("dense", "sparse"):
        raise FormatError(f"unknown row mode {tokens[4]!r}")
    return n, d, tokens[4] == "sparse"


def _parse_meta(line: str) -> dict:
    if not line.startswith("# meta "):
        raise FormatError("second line must be `# meta <json>`")
    try:
        meta = json.loads(line[len("# meta "):])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad meta JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError("meta must be a JSON object")
    return meta


def _read(path: str, magic: str, lead: int = 0) -> tuple[dict, list[list[str]], RowStream]:
    """(meta, the first lead tokens of each row line, the rows after them) of
    a stream or sketch file. The header, meta line and row count are checked
    here, and the RowStream checks the rows: dense widths, sparse columns and
    finite values."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise FormatError(f"truncated {magic} file")
    n, d, sparse = _parse_header(lines[0], magic)
    meta = _parse_meta(lines[1])
    body = [ln.split() for ln in lines[2:] if ln.strip()]
    if len(body) != n:
        raise FormatError(f"header announces {n} rows, file carries {len(body)}")
    if any(len(tokens) < lead for tokens in body):
        raise FormatError(f"{magic} row too short: each starts with {lead} fields")
    if sparse:
        payload = [_parse_sparse_row(tokens[lead:]) for tokens in body]
    else:
        payload = np.array([_parse_dense_row(tokens[lead:], d) for tokens in body]).reshape(n, d)
    return meta, [tokens[:lead] for tokens in body], RowStream(d, payload, meta, sparse=sparse)


def _header(magic: str, n: int, d: int, sparse: bool, meta: dict) -> list[str]:
    return [f"{magic} {FORMAT_VERSION} {n} {d} {'sparse' if sparse else 'dense'}", _meta_line(meta)]


def write_stream(path: str, stream: RowStream) -> None:
    lines = _header(STREAM_MAGIC, stream.n, stream.d, stream.is_sparse, stream.meta)
    lines.extend(_row_text(row, stream.is_sparse) for row in stream.iter_rows())
    _atomic_write(path, "\n".join(lines) + "\n")


def read_stream(path: str) -> RowStream:
    return _read(path, STREAM_MAGIC)[2]


def write_sketch(path: str, sketch: Sketch, stream: RowStream, meta: dict | None = None) -> None:
    """Write a sketch drawn from stream: each kept row is written as the
    stream holds it, dense or sparse, so a sparse row keeps its explicit
    zeros. Raises DimensionMismatch, and writes nothing, unless every source
    index is a row of the stream whose dense form is the sketch's row."""
    src, weights, dense = sketch.columns()
    src = src.tolist()
    if sketch.dim != stream.d or (src and (src[0] < 0 or src[-1] >= stream.n)):
        raise DimensionMismatch(f"sketch rows do not index a stream of {stream.n} rows, d={stream.d}")
    rows = [stream.row(i) for i in src]
    for i, row, kept in zip(src, rows, dense):
        if not np.array_equal(rowops.densify(row, stream.d), kept):
            raise DimensionMismatch(f"sketch row {i} differs from the stream's row {i}")
    lines = _header(SKETCH_MAGIC, sketch.n_rows, sketch.dim, stream.is_sparse, meta or {})
    lines.extend(f"{i} {_fmt(w)} {_row_text(row, stream.is_sparse)}"
                 for i, w, row in zip(src, weights, rows))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_sketch(path: str) -> tuple[Sketch, dict]:
    """The sketch and meta of a sketch file. Its rows parse and check as a
    stream's do; a weight must be finite (NonFiniteInput) and > 0
    (FormatError), and source indices must be >= 0 and increase
    (DimensionMismatch)."""
    meta, lead, rows = _read(path, SKETCH_MAGIC, lead=2)
    try:
        src = np.array([int(s) for s, _ in lead], dtype=np.int64)
        weights = np.array([float(w) for _, w in lead])
    except ValueError as exc:
        raise FormatError(f"bad src/weight in sketch row: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise NonFiniteInput("sketch holds a NaN or infinite weight")
    if np.any(weights <= 0.0):
        raise FormatError("sketch weights must be positive")
    sketch = Sketch(rows.d)
    sketch.append_rows(src, weights, rows.block(0, rows.n))
    return sketch, meta
