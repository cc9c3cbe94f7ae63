"""File formats: rule JSON, pattern text, matrix text, and PGM image export.

All writers go through an atomic temp-file-plus-rename so no partial output
survives a failure.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .ca import Pattern, RuleSpec, theta, theta_inv
from .errors import InputError
from .field import PrimeField
from .structmat import FMatrix


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- rules -------------------------------------------------------------------


def _read_text(path: str, kind: str) -> str:
    """The file's text; unreadable or non-UTF-8 files are bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{kind} file {path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc


def read_rule(path: str) -> RuleSpec:
    text = _read_text(path, "rule")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"rule file {path} is not valid JSON: {exc}") from exc
    return RuleSpec.from_json(obj)


def write_rule(rule: RuleSpec, path: str) -> None:
    atomic_write_text(path, json.dumps(rule.to_json(), indent=2) + "\n")


# -- patterns ----------------------------------------------------------------


def format_pattern(pattern: Pattern) -> str:
    """Header `d m_1 ... m_d p`, then the flattened values (axis 1 fastest),
    one hyperplane of the first axis per line."""
    dims = pattern.dims
    header = f"{len(dims)} {' '.join(str(m) for m in dims)} {pattern.p}"
    flat = theta(pattern)
    m1 = dims[0]
    lines = [header]
    for start in range(0, flat.size, m1):
        lines.append(" ".join(str(int(v)) for v in flat[start : start + m1]))
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> Pattern:
    tokens = text.split()
    if not tokens:
        raise InputError("empty pattern file")
    try:
        d = int(tokens[0])
        if d < 1 or len(tokens) < d + 2:
            raise ValueError
        dims = tuple(int(t) for t in tokens[1 : d + 1])
        if min(dims) < 1:
            raise ValueError
        p = int(tokens[d + 1])
        values = [int(t) for t in tokens[d + 2 :]]
    except ValueError as exc:
        raise InputError("malformed pattern header or values") from exc
    n = math.prod(dims)
    if len(values) != n:
        raise InputError(f"expected {n} pattern values, found {len(values)}")
    if any(v < 0 or v >= p for v in values):
        raise InputError(f"pattern values must lie in [0, {p})")
    return theta_inv(np.array(values, dtype=np.int64), dims, p)


def read_pattern(path: str) -> Pattern:
    return parse_pattern(_read_text(path, "pattern"))


def write_pattern(pattern: Pattern, path: str) -> None:
    atomic_write_text(path, format_pattern(pattern))


# -- matrices ----------------------------------------------------------------


def format_matrix(m: FMatrix) -> str:
    """Header `rows cols p`, then one row of base-field entries per line."""
    if not isinstance(m.field, PrimeField):
        raise InputError("matrix files hold prime-field matrices only")
    header = f"{m.rows} {m.cols} {m.field.p}"
    body = m.render()
    return header + "\n" + body


def parse_matrix(text: str) -> FMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty matrix file")
    try:
        rows, cols, p = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise InputError("malformed matrix header") from exc
    if len(lines) != rows + 1:
        raise InputError(f"expected {rows} matrix rows, found {len(lines) - 1}")
    field = PrimeField(p)
    out = []
    for ln in lines[1:]:
        row = [int(t) for t in ln.split()]
        if len(row) != cols:
            raise InputError("matrix row length mismatch")
        out.append(row)
    return FMatrix.from_rows(field, out)


def read_matrix(path: str) -> FMatrix:
    return parse_matrix(_read_text(path, "matrix"))


def write_matrix(m: FMatrix, path: str) -> None:
    atomic_write_text(path, format_matrix(m))


# -- PGM export --------------------------------------------------------------


def check_image_axes(dims):
    """Refuse image export for more than three axes."""
    if len(dims) > 3:
        raise InputError("image export supports at most three axes")


def pattern_to_pgms(pattern: Pattern):
    """One P2 image per slice along axis 3 (single slice for d <= 2).

    Gray level = state * floor(255 / (p - 1)).
    """
    dims = pattern.dims
    check_image_axes(dims)
    p = pattern.p
    scale = 255 // (p - 1)
    cells = pattern.cells
    if len(dims) == 1:
        slices = [cells[:, None]]
    elif len(dims) == 2:
        slices = [cells]
    else:
        slices = [cells[:, :, t] for t in range(dims[2])]
    out = []
    for sl in slices:
        w, h = sl.shape  # axis 1 horizontal, axis 2 vertical
        lines = ["P2", f"{w} {h}", "255"]
        for j in range(h):
            lines.append(" ".join(str(int(sl[i, j]) * scale) for i in range(w)))
        out.append("\n".join(lines) + "\n")
    return out


def write_pgm_slices(pattern: Pattern, prefix: str):
    """Write slice images as `<prefix>_slice<t>.pgm`; returns the paths."""
    paths = []
    for t, text in enumerate(pattern_to_pgms(pattern)):
        path = f"{prefix}_slice{t}.pgm"
        atomic_write_text(path, text)
        paths.append(path)
    return paths
