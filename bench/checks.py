"""Output checks.  None of them runs the code path the op timed: patterns,
matrices and images are parsed here and the automaton is stepped with the
stencil in ``workloads.step``.  Every check runs after the timed loop; a
mismatch aborts the run and names the op.
"""

from __future__ import annotations

import os

import numpy as np

import workloads as W

EXIT_ANSWERED = (0, 10)


class Mismatch(Exception):
    def __init__(self, op, what):
        super().__init__(f"op {op.index} ({' '.join(op.argv)}): {what}")


def outcome(code):
    """'answered' (exit code 0 or 10) or 'failed'."""
    return "answered" if code in EXIT_ANSWERED else "failed"


def _read(path):
    with open(path) as fh:
        return fh.read()


def check_invert(op, rng):
    m, p = W.parse_matrix(_read(op.paths["matrix"]))
    n = op.props["N"]
    if m.shape != (n, n) or p != op.rule["p"]:
        raise Mismatch(op, f"matrix header {m.shape} mod {p}")
    dims = tuple(op.rule["dims"])
    x = rng.integers(0, p, size=(n, 3))
    tx = W.step(x.reshape(dims + (3,), order="F"), op.rule).reshape(n, 3, order="F")
    if not np.array_equal(m.dot(tx) % p, x):
        raise Mismatch(op, "M (T x) != x")


def check_reverse(op):
    y, p = W.parse_pattern(_read(op.paths["out"]))
    if y.shape != op.x.shape or p != op.rule["p"]:
        raise Mismatch(op, "output pattern header")
    if not np.array_equal(W.evolve(y, op.rule, op.steps), op.x):
        raise Mismatch(op, f"{op.steps} forward steps from the output miss the input")


def check_evolve(op):
    y, p = W.parse_pattern(_read(op.paths["out"]))
    want = W.evolve(op.x, op.rule, op.steps)
    if y.shape != want.shape or p != op.rule["p"] or not np.array_equal(y, want):
        raise Mismatch(op, f"output differs from {op.steps} stencil steps")
    scale = 255 // (p - 1)
    cells = want if want.ndim == 3 else want[:, :, None]
    for t in range(cells.shape[2]):
        path = f"{op.paths['pgm']}_slice{t}.pgm"
        tok = _read(path).split()
        w, h = cells.shape[0], cells.shape[1]
        if tok[:4] != ["P2", str(w), str(h), "255"]:
            raise Mismatch(op, f"{os.path.basename(path)} header")
        img = np.array(tok[4:], dtype=np.int64).reshape(h, w).T
        if not np.array_equal(img, cells[:, :, t] * scale):
            raise Mismatch(op, f"{os.path.basename(path)} pixels")


def check_all(records, seed):
    """Check every answered op."""
    rng = np.random.default_rng(seed)
    for op, code, _wall, kind in records:
        if kind != "answered":
            continue
        if code != 0:
            raise Mismatch(op, f"exit code {code} on a reversible rule")
        if op.kind == "invert":
            check_invert(op, rng)
        elif op.kind == "reverse":
            check_reverse(op)
        else:
            check_evolve(op)
