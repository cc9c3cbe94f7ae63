"""Seeded input generators for the benchmark workloads.

Every op is one ``carev`` command line run in-process.  The generators know
only the mathematics of the inputs: they build rules from a seeded RNG,
classify them by properties computed here from the definition of the
automaton (splitting degree K, reversibility by dense elimination), and never
consult the package under test.  The same seed always gives the same op
sequence, so a faster program simply gets further along the same stream.
Streams yield whole cycles of ops; a run measures whole cycles only, so each
run holds the same mix of inputs.

Workloads
---------
invert_reverse
    ``carev invert`` and ``carev reverse`` on reversible rules (dense
    elimination here says det T != 0) of 64 to 216 cells, on cubic 3-D grids
    and on 2-D grids with one long axis.
evolve_grid
    ``carev evolve --pgm`` for 30 steps on 2-D and 3-D grids of 256 to 4096
    cells (4096 is the dense-matrix cap of the current evolve path).

A ``carev check`` workload on random rules is not here: on a 2-core host
whose speed drifts over minutes, the IQR/median of its ops_per_s over ten
seeds was 0.15-0.37, more than the largest bound the benchmark may set
(0.25).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_monic, gf_sqf_part

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
STEPS_EVOLVE = 30


# ---------------------------------------------------------------------------
# the automaton, from its definition
# ---------------------------------------------------------------------------


def rule_dict(p, dims, c, eta, axes):
    return {
        "p": p,
        "dims": list(dims),
        "c": c,
        "eta": eta,
        "axes": [{"ell": list(ell), "r": list(r)} for ell, r in axes],
    }


def step(cells, rule):
    """One synchronous update with null boundary: cell i gains ell[k-1] times
    its neighbour at i - k and r[k-1] times its neighbour at i + k along each
    axis.  Extra trailing axes of ``cells`` are treated as a batch."""
    p = rule["p"]
    out = (rule["c"] * cells) % p
    for axis, ax in enumerate(rule["axes"]):
        m = cells.shape[axis]
        for k, (ell, r) in enumerate(zip(ax["ell"], ax["r"]), start=1):
            if k >= m:
                break
            lo = [slice(None)] * cells.ndim
            hi = [slice(None)] * cells.ndim
            lo[axis], hi[axis] = slice(0, m - k), slice(k, m)
            lo, hi = tuple(lo), tuple(hi)
            if ell:
                out[hi] = (out[hi] + ell * cells[lo]) % p
            if r:
                out[lo] = (out[lo] + r * cells[hi]) % p
    return out


def evolve(cells, rule, steps):
    for _ in range(steps):
        cells = step(cells, rule)
    return cells


def dense_T(rule):
    """The N x N transition matrix on cells flattened axis-1-fastest."""
    dims = tuple(rule["dims"])
    n = math.prod(dims)
    basis = np.eye(n, dtype=np.int64).reshape(dims + (n,), order="F")
    return step(basis, rule).reshape(n, n, order="F")


def det_nonzero(a, p) -> bool:
    """det(a) != 0 over GF(p), by elimination."""
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    for col in range(n):
        nz = np.nonzero(m[col:, col])[0]
        if nz.size == 0:
            return False
        piv = col + int(nz[0])
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
        inv = pow(int(m[col, col]), -1, p)
        f = m[col + 1 :, col] * inv % p
        m[col + 1 :, col:] = (m[col + 1 :, col:] - f[:, None] * m[col, col:]) % p
    return True


def axis_matrix(p, m, ell, r):
    rows = [[0] * m for _ in range(m)]
    for k, (a, b) in enumerate(zip(ell, r), start=1):
        for i in range(m):
            if i - k >= 0:
                rows[i][i - k] = a % p
            if i + k < m:
                rows[i][i + k] = b % p
    return rows


def axis_charpoly(p, m, ell, r):
    """Characteristic polynomial of one axis block over GF(p), dense
    coefficient list with the leading coefficient first."""
    return _hessenberg_charpoly(axis_matrix(p, m, ell, r), p)


def _hessenberg_charpoly(h, p):
    """det(xI - h) over GF(p): similarity to upper Hessenberg form, then the
    leading-minor recurrence.  Coefficient list, leading coefficient first."""
    n = len(h)
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if h[i][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for row in h:
                row[col + 1], row[piv] = row[piv], row[col + 1]
        inv = pow(h[col + 1][col], -1, p)
        for i in range(col + 2, n):
            f = h[i][col] * inv % p
            if f:
                h[i] = [(a - f * b) % p for a, b in zip(h[i], h[col + 1])]
                for row in h:
                    row[col + 1] = (row[col + 1] + f * row[i]) % p
    polys = [[1]]  # ascending coefficients of the leading minors
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] + prev  # x * p_{k-1}
        for i, v in enumerate(prev):
            cur[i] = (cur[i] - h[k - 1][k - 1] * v) % p
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            term = h[i - 1][k - 1] * prod % p
            if term:
                for j, v in enumerate(polys[i - 1]):
                    cur[j] = (cur[j] - term * v) % p
        polys.append(cur)
    return polys[n][::-1]


def splitting_degree(rule) -> int:
    """K: the degree of the smallest extension of GF(p) over which every
    axis characteristic polynomial splits (lcm of irreducible factor
    degrees).  The centre shift on axis 1 does not change it."""
    p = rule["p"]
    K = 1
    for m, ax in zip(rule["dims"], rule["axes"]):
        f = gf_sqf_part(gf_monic(axis_charpoly(p, m, ax["ell"], ax["r"]), p, ZZ)[1], p, ZZ)
        for g, deg in gf_ddf_zassenhaus(f, p, ZZ):
            if len(g) > 1:
                K = math.lcm(K, deg)
    return K


# ---------------------------------------------------------------------------
# file formats, written and read here rather than by carev.serialize
# ---------------------------------------------------------------------------


def format_pattern(cells, p) -> str:
    dims = cells.shape
    flat = cells.flatten(order="F")
    lines = [f"{len(dims)} {' '.join(map(str, dims))} {p}"]
    lines += [" ".join(map(str, flat[s : s + dims[0]])) for s in range(0, flat.size, dims[0])]
    return "\n".join(lines) + "\n"


def parse_pattern(text):
    tok = text.split()
    d = int(tok[0])
    dims = tuple(int(t) for t in tok[1 : d + 1])
    p = int(tok[d + 1])
    vals = np.array([int(t) for t in tok[d + 2 :]], dtype=np.int64)
    return vals.reshape(dims, order="F"), p


def parse_matrix(text):
    lines = text.split("\n", 1)
    rows, cols, p = (int(t) for t in lines[0].split())
    vals = np.array(lines[1].split(), dtype=np.int64)
    return vals.reshape(rows, cols), p


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One command line plus what the checks need to know about it."""

    index: int
    kind: str  # invert | reverse | evolve
    argv: list
    rule: dict
    props: dict
    paths: dict
    x: np.ndarray | None = None
    steps: int = 0


class Writer:
    """Places each op's input files in its own directory under ``root``."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def new_dir(self):
        path = os.path.join(self.root, f"op{self.count:05d}")
        self.count += 1
        os.makedirs(path)
        return path

    @staticmethod
    def put(path, text):
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _coeffs(rng, p, eta):
    """Random band coefficients; the offset-1 pair is nonzero, so no axis
    block is nilpotent."""
    ell = [rng.randrange(p) for _ in range(eta)]
    r = [rng.randrange(p) for _ in range(eta)]
    if not (ell[0] and r[0]):
        ell[0], r[0] = rng.randrange(1, p), rng.randrange(1, p)
    return ell, r


def _random_rule(rng, primes, dims, eta):
    p = rng.choice(primes)
    axes = [_coeffs(rng, p, eta) for _ in dims]
    return rule_dict(p, dims, rng.randrange(p), eta, axes)


def _props(rule, **kw):
    p = rule["p"]
    out = {
        "p": p,
        "d": len(rule["dims"]),
        "eta": rule["eta"],
        "N": math.prod(rule["dims"]),
    }
    out.update(kw)
    return out


# -- invert_reverse ----------------------------------------------------------

# (grid, prime) per cycle.  N stays at or below 216: today a 2-D rule of 360
# cells can take 50 s to invert, which would leave a run with a handful of
# ops.  The prime is pinned per slot because it moves the cost of a grid as
# much as its size does.  Each slot gives an invert and a reverse op of about
# the same cost.  Of the 20 ops in a cycle, timed on a 2-core x86-64 host,
# 6 cost ~0.05 s (4^3), 8 ~0.1 s (5^3), 2 ~0.25 s (6^3) and 4 ~0.4 s (20x4):
# the median falls in the middle of the 5^3 class and the p90 in the middle
# of the 20x4 class, not between two classes.
INVERT_CYCLE = (
    ([5, 5, 5], 13), ([20, 4], 7), ([4, 4, 4], 11), ([5, 5, 5], 11), ([4, 4, 4], 13),
    ([6, 6, 6], 7), ([5, 5, 5], 13), ([20, 4], 7), ([4, 4, 4], 11), ([5, 5, 5], 11),
)


def _reversible_rule(rng, dims, p):
    """A reversible rule (by dense elimination) over GF(p) with K = 2: every
    inversion then works in GF(p^2), so the cost of a slot varies little with
    the seed; at larger K a 6^3 inversion takes seconds today."""
    while True:
        rule = _random_rule(rng, (p,), dims, 1)
        K = splitting_degree(rule)
        if K == 2 and det_nonzero(dense_T(rule), p):
            return rule, K


def invert_stream(rng, writer):
    index = 0
    while True:
        cycle = []
        for dims, p in INVERT_CYCLE:
            rule, K = _reversible_rule(rng, dims, p)
            x = np.array([rng.randrange(p) for _ in range(math.prod(dims))],
                         dtype=np.int64).reshape(tuple(dims), order="F")
            steps = rng.randint(1, 4)
            d = writer.new_dir()
            paths = {
                "rule": writer.put(os.path.join(d, "rule.json"), json.dumps(rule)),
                "x": writer.put(os.path.join(d, "x.txt"), format_pattern(x, p)),
                "matrix": os.path.join(d, "tinv.txt"),
                "report": os.path.join(d, "invert.json"),
                "out": os.path.join(d, "y.txt"),
            }
            props = _props(rule, K=K, shape="cube" if len(dims) == 3 else "long")
            cycle.append(Op(
                index, "invert",
                ["invert", paths["rule"], "--out", paths["matrix"], "--report", paths["report"]],
                rule, props, paths))
            cycle.append(Op(
                index + 1, "reverse",
                ["reverse", paths["rule"], paths["x"], "--steps", str(steps), "--out", paths["out"]],
                rule, props, paths, x=x, steps=steps))
            index += 2
        yield cycle


# -- evolve_grid -------------------------------------------------------------

# (d, lowest N, highest N) per slot; the last slot of a cycle is a grid at
# the 4096-cell cap, alternating 16^3 and 64^2.  Per cycle: 7 grids of
# 256-400 cells, 10 of 400-640, 2 of 640-1024 and 4 of 1024-1600, so the
# median and p90 fall inside a size class, not between two.
EVOLVE_CYCLE = (
    (2, 256, 400), (2, 400, 640), (2, 640, 1024), (2, 1024, 1600),
    (3, 256, 400), (3, 400, 640), (3, 640, 1024), (3, 1024, 1600),
    (2, 256, 400), (2, 400, 640), (2, 1024, 1600), (3, 256, 400),
    (3, 400, 640), (3, 1024, 1600), (2, 256, 400), (2, 400, 640),
    (3, 256, 400), (3, 400, 640), (2, 256, 400), (2, 400, 640),
    (3, 400, 640), (2, 400, 640), (3, 400, 640),
    (None, 4096, 4096),
)
CAP_GRIDS = ([16, 16, 16], [64, 64])


def _grid(rng, d, lo, hi):
    while True:
        if d == 2:
            dims = [rng.randint(8, 64), rng.randint(8, 64)]
        else:
            dims = [rng.randint(4, 16) for _ in range(3)]
        if lo <= math.prod(dims) <= hi:
            return dims


def evolve_stream(rng, writer):
    index = 0
    while True:
        cycle = []
        for d, lo, hi in EVOLVE_CYCLE:
            dims = CAP_GRIDS[index // len(EVOLVE_CYCLE) % 2] if d is None else _grid(rng, d, lo, hi)
            eta = rng.choice((1, 2))
            rule = _random_rule(rng, SMALL_PRIMES, dims, eta)
            p = rule["p"]
            x = np.array([rng.randrange(p) for _ in range(math.prod(dims))],
                         dtype=np.int64).reshape(tuple(dims), order="F")
            dd = writer.new_dir()
            paths = {
                "rule": writer.put(os.path.join(dd, "rule.json"), json.dumps(rule)),
                "x": writer.put(os.path.join(dd, "x.txt"), format_pattern(x, p)),
                "out": os.path.join(dd, "y.txt"),
                "pgm": os.path.join(dd, "img"),
            }
            cycle.append(Op(
                index, "evolve",
                ["evolve", paths["rule"], paths["x"], "--steps", str(STEPS_EVOLVE),
                 "--out", paths["out"], "--pgm", paths["pgm"]],
                rule, _props(rule), paths, x=x, steps=STEPS_EVOLVE))
            index += 1
        yield cycle


STREAMS = {
    "invert_reverse": invert_stream,
    "evolve_grid": evolve_stream,
}

# A fixed op per workload, outside every corpus, run once before timing.
WARMUP = {
    "invert_reverse": (rule_dict(5, (2, 2, 2), 0, 1, [([1], [1])] * 3), "invert"),
    "evolve_grid": (rule_dict(5, (4, 4, 4), 0, 1, [([1], [1])] * 3), "evolve"),
}


def warmup_argv(workload, directory):
    """Write the warm-up op's inputs into ``directory``; return its argv."""
    rule, kind = WARMUP[workload]
    rule_path = Writer.put(os.path.join(directory, "warm_rule.json"), json.dumps(rule))
    out = os.path.join(directory, "warm_out.txt")
    if kind == "invert":
        return ["invert", rule_path, "--out", out, "--report", out + ".json"]
    x = np.arange(64, dtype=np.int64).reshape(4, 4, 4) % 5
    x_path = Writer.put(os.path.join(directory, "warm_x.txt"), format_pattern(x, 5))
    return ["evolve", rule_path, x_path, "--steps", "3", "--out", out,
            "--pgm", os.path.join(directory, "warm_img")]
