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
round-trip exactly. Writers go through a temp file and rename, so a failed
write never leaves a partial file behind.
"""
from __future__ import annotations

import json
import os

import numpy as np

from . import rows as rowops
from .errors import FormatError, NonFiniteInput
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


def write_stream(path: str, stream: RowStream) -> None:
    lines = [
        f"{STREAM_MAGIC} {FORMAT_VERSION} {stream.n} {stream.d} "
        f"{'sparse' if stream.is_sparse else 'dense'}",
        _meta_line(stream.meta),
    ]
    for row in stream.iter_rows():
        lines.append(_row_text(row, stream.is_sparse))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_stream(path: str) -> RowStream:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise FormatError("truncated stream file")
    n, d, sparse = _parse_header(lines[0], STREAM_MAGIC)
    meta = _parse_meta(lines[1])
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != n:
        raise FormatError(f"header announces {n} rows, file carries {len(body)}")
    if sparse:
        payload = [_parse_sparse_row(ln.split()) for ln in body]
    elif n == 0:
        payload = np.zeros((0, d))
    else:
        payload = np.stack([_parse_dense_row(ln.split(), d) for ln in body])
    return RowStream(d, payload, meta, sparse=sparse)


def _sketch_mode(sketch: Sketch) -> bool:
    kinds = {rowops.is_sparse(row) for _, _, row in sketch}
    if len(kinds) > 1:
        raise FormatError("sketch mixes dense and sparse rows")
    return kinds.pop() if kinds else False


def write_sketch(path: str, sketch: Sketch, meta: dict | None = None) -> None:
    sparse = _sketch_mode(sketch)
    lines = [
        f"{SKETCH_MAGIC} {FORMAT_VERSION} {sketch.n_rows} {sketch.dim} "
        f"{'sparse' if sparse else 'dense'}",
        _meta_line(meta or {}),
    ]
    for src, weight, row in sketch:
        lines.append(f"{src} {_fmt(weight)} {_row_text(row, sparse)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_sketch(path: str) -> tuple[Sketch, dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise FormatError("truncated sketch file")
    m, d, sparse = _parse_header(lines[0], SKETCH_MAGIC)
    meta = _parse_meta(lines[1])
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"header announces {m} rows, file carries {len(body)}")
    entries = []
    for ln in body:
        tokens = ln.split()
        if len(tokens) < 2:
            raise FormatError(f"sketch row too short: {ln!r}")
        try:
            src = int(tokens[0])
            weight = float(tokens[1])
        except ValueError as exc:
            raise FormatError(f"bad src/weight in {ln!r}") from exc
        # Sketch.append checks a sparse row's columns
        row = _parse_sparse_row(tokens[2:]) if sparse else _parse_dense_row(tokens[2:], d)
        entries.append((src, weight, row))
    weights = np.array([w for _, w, _ in entries])
    values = [row[1] if sparse else row for _, _, row in entries]
    if not np.all(np.isfinite(np.concatenate([weights, *values]))):
        raise NonFiniteInput("sketch holds a NaN or infinite weight or value")
    if np.any(weights <= 0.0):
        raise FormatError("sketch weights must be positive")
    sketch = Sketch(d)
    for src, weight, row in entries:
        sketch.append(src, weight, row)
    return sketch, meta
