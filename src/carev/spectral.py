"""Structured reversibility analysis and exact inversion.

The transition matrix is a nested Kronecker sum of per-axis banded Toeplitz
blocks, so its eigenvalues are all sums of per-axis eigenvalues taken in a
common splitting field.  Reversibility is decided from that Minkowski sum
without ever materializing the matrix.  The inverse, when it exists, is
applied as U J^-1 U^-1 from per-axis Jordan bases: U is Kronecker-factored
and J^-1 is a solve with the nested Jordan form, never a formed matrix.
Every result is verified by re-applying the forward stencil.

An axis whose effective band has width 1 is the tridiagonal Toeplitz block
S = ell*sub + c*I + r*super, and its Jordan basis is written down without
elimination.  When ell*r != 0, each eigenvalue lambda has one Jordan block,
of size its multiplicity m.  With mu = lambda - c, the eigenvector follows
the g-polynomial recurrence v_0 = 1, r v_(i+1) = mu v_i - ell v_(i-1), and
its chain is the Hasse derivatives D^(s) v in lambda, s < m:
r D^(s) v_(i+1) = mu D^(s) v_i + D^(s-1) v_i - ell D^(s) v_(i-1), which gives
S u_s = lambda u_s + u_(s-1).  Delta = diag((r/ell)^i) makes Delta S
symmetric, so G = U^T Delta U is block diagonal, one Hankel block per
eigenvalue that is zero above its anti-diagonal, and
U^-1 = G^-1 U^T Delta costs one inversion per eigenvalue and a triangular
Toeplitz solve per chain.  One-sided bands (ell*r = 0, ell != r) give one
nilpotent block with a scaled unit-vector basis, and ell = r = 0 gives
S = cI.  Wider bands use elimination (jordan_axis).  Every axis basis is
checked exactly (S U = U J and U^-1 U = I), and up to _FULL_CHECK_CAP cells
so is the full conjugation T U = U J: T U by one batched forward stencil
step over the columns of U.  J is kept only as per-axis layouts: its
diagonal is _nested_sums, the array whose zeros decide reversibility, and
its nilpotent part is _chain_links.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, oracle
from .ca import Pattern, RuleSpec, axis_matrix, theta, theta_inv
from .charpoly import g_poly
from .errors import (
    FieldMismatch,
    InternalVerificationFailed,
    NotReversible,
    Singular,
    SizeCapExceeded,
    UnsupportedRange,
)
from .field import (
    Poly,
    PrimeField,
    _dtype_for,
    coord_inv,
    coord_mul,
    roots_with_multiplicity,
    splitting_field,
)
from .oracle import SpanTracker
from .structmat import MATRIX_SIZE_CAP, FMatrix, kron_dot, kron_many

# The full conjugation check T U = U J holds the dense N x N matrix U (N^2 k
# coordinates) in memory, so it runs only up to this many cells; its time is
# O(N^2) stencil work.  The per-axis conjugations are verified exactly at
# every size.
_FULL_CHECK_CAP = 256


@dataclass(frozen=True)
class AxisSpectrum:
    """Characteristic polynomial and roots of one axis block (axis 0 carries
    the center-coefficient shift)."""

    axis: int
    poly: Poly  # over GF(p)
    roots: tuple  # ((element of E, multiplicity), ...) canonically ordered


def axis_char_poly(rule: RuleSpec, axis: int) -> Poly:
    """Characteristic polynomial of the axis block over GF(p); an axis longer
    than MATRIX_SIZE_CAP cells is refused."""
    if rule.dims[axis] > MATRIX_SIZE_CAP:
        raise UnsupportedRange(
            f"axis {axis} characteristic polynomial: length {rule.dims[axis]} "
            f"exceeds the cap {MATRIX_SIZE_CAP}"
        )
    field = rule.field
    ell, r = rule.effective_bands(axis)
    if len(ell) == 1:
        f = g_poly(field, rule.dims[axis], field.mul(ell[0], r[0])).poly
    else:
        f = oracle.char_poly(axis_matrix(rule, axis))
    if axis == 0 and rule.c:
        f = f.shift(rule.c)
    return f


def axis_spectra(rule: RuleSpec):
    """Shared splitting field and per-axis root multisets."""
    polys = [axis_char_poly(rule, a) for a in range(rule.d)]
    E = splitting_field(polys)
    spectra = []
    cache = {}  # identical axes share one root computation
    for a, f in enumerate(polys):
        roots = cache.get(f.coeffs)
        if roots is None:
            roots = tuple(roots_with_multiplicity(f, E))
            cache[f.coeffs] = roots
        spectra.append(AxisSpectrum(axis=a, poly=f, roots=roots))
    return E, spectra


def _expand(pairs):
    """Each value of ((value, count), ...) repeated count times: a root list
    with multiplicity, or the diagonal of J from a layout."""
    return [v for v, count in pairs for _ in range(count)]


def _nested_sums(E, values):
    """All sums of one value per axis, values[a] listing axis a + 1's
    elements: int64 coordinates shaped (n_d, ..., n_1, k), so that axis 1
    varies fastest, as in the nested order of T."""
    acc = np.zeros((1,) * len(values) + (E.k,), dtype=np.int64)
    for a, vals in enumerate(values):
        arr = np.array([E.coeff_vector(v) for v in vals], dtype=np.int64)
        acc = (acc + arr.reshape((-1,) + (1,) * a + (E.k,))) % E.char
    return acc


@dataclass(frozen=True)
class Reversibility:
    reversible: bool
    witness: tuple | None  # per-axis eigenvalues summing to zero
    field: object
    spectra: tuple


def reversibility(rule: RuleSpec) -> Reversibility:
    """T is singular iff some sum of one eigenvalue per axis is zero; the
    witness is the first such sum in nested order (axis d outermost), as
    (lambda_1, ..., lambda_d)."""
    E, spectra = axis_spectra(rule)
    expanded = [_expand(spec.roots) for spec in spectra]
    zeros = np.argwhere(~_nested_sums(E, expanded).any(axis=-1))
    witness = None
    if zeros.size:
        witness = tuple(vals[i] for vals, i in zip(expanded, zeros[0][::-1]))
    return Reversibility(witness is None, witness, E, tuple(spectra))


# ---------------------------------------------------------------------------
# Jordan machinery
# ---------------------------------------------------------------------------


def _matvec(m: FMatrix, v):
    col = FMatrix.from_rows(m.field, [[x] for x in v])
    res = m @ col
    return tuple(res.at(i, 0) for i in range(res.rows))


def _layout_eps(layout):
    """Superdiagonal 0/1 flags of the Jordan form with this ((eigenvalue,
    block size), ...) layout: 1 inside a block, 0 between blocks."""
    return tuple(int(t + 1 < size) for _, size in layout for t in range(size))[:-1]


def _chain_links(out, src, eps_by_axis, lead, up):
    """Add the nilpotent part N of a nested Jordan form to out, in place.

    The cells of src sit in nested order (axis 1 last) after `lead` leading
    axes.  With up, this is N src: entry i of axis a gains entry i + 1 where
    eps_a[i] = 1.  Otherwise it is src N, read along the cell axes: entry
    i + 1 gains entry i."""
    d = len(eps_by_axis)
    for a, eps in enumerate(eps_by_axis):
        lo, hi = [slice(None)] * src.ndim, [slice(None)] * src.ndim
        lo[lead + d - 1 - a] = np.flatnonzero(eps)
        hi[lead + d - 1 - a] = lo[lead + d - 1 - a] + 1
        dst, frm = (lo, hi) if up else (hi, lo)
        out[tuple(dst)] += src[tuple(frm)]
    return out


def _checked_axis(s_mat: FMatrix, E, u: FMatrix, u_inv: FMatrix, layout):
    """(U, U_inv, layout) once S U = U J and U_inv U = I hold exactly; U J is
    U D plus the chain links, with no J formed."""
    layout = tuple(layout)
    uj = coord_mul(E, _nested_sums(E, [_expand(layout)]), u.data)
    _chain_links(uj, u.data, (_layout_eps(layout),), 1, up=False)
    if s_mat.lift(E) @ u != FMatrix(E, uj):
        raise InternalVerificationFailed("axis conjugation check failed")
    if u_inv @ u != FMatrix.identity(E, u.rows):
        raise InternalVerificationFailed("axis inverse check failed")
    return u, u_inv, layout


def jordan_axis(s_mat: FMatrix, E, roots=None):
    """Canonical Jordan form of one axis block over E, by elimination.

    roots are the ((eigenvalue, multiplicity), ...) of the block in E; when
    omitted they are found from its characteristic polynomial, which raises
    DoesNotSplit unless E splits it.  Returns (U, U_inv, layout) with
    S U = U J and U_inv U = I verified exactly, where layout lists the
    Jordan blocks of J as (eigenvalue, block size) in order.
    """
    base = s_mat.field
    if roots is None:
        roots = roots_with_multiplicity(oracle.char_poly(s_mat), E)
    se = s_mat.lift(E) if isinstance(base, PrimeField) and base != E else s_mat
    n = s_mat.rows
    ident = FMatrix.identity(E, n)
    columns = []
    layout = []
    for lam, mult in roots:
        m = se - ident.scale(lam)
        powers = [m]
        kernels_by_level = [[], oracle.nullspace(m)]
        while len(kernels_by_level[-1]) < mult:
            powers.append(powers[-1] @ m)
            kernels_by_level.append(oracle.nullspace(powers[-1]))
        height = len(kernels_by_level) - 1
        chains = []  # (top vector, height)
        heads = []
        for level in range(height, 0, -1):
            span = SpanTracker(E, n)
            for v in kernels_by_level[level - 1]:
                span.add(v)
            for h in heads:
                if not span.add(h):
                    raise InternalVerificationFailed("dependent chain image")
            new_tops = [v for v in kernels_by_level[level] if span.add(v)]
            chains.extend((v, level) for v in new_tops)
            heads = [_matvec(m, h) for h in heads] + [_matvec(m, v) for v in new_tops]
        chains.sort(key=lambda t: -t[1])
        for top, height_j in chains:
            vecs = [top]
            for _ in range(height_j - 1):
                vecs.append(_matvec(m, vecs[-1]))
            columns.extend(reversed(vecs))
            layout.append((lam, height_j))
    u = FMatrix.from_rows(E, [[col[i] for col in columns] for i in range(n)])
    try:
        u_inv = oracle.inverse(u)
    except Singular as exc:  # pragma: no cover - guards bugs
        raise InternalVerificationFailed("Jordan basis is singular") from exc
    return _checked_axis(s_mat, E, u, u_inv, layout)


def tridiagonal_jordan(s_mat: FMatrix, E, ell: int, r: int, c: int, roots):
    """Jordan data of the tridiagonal Toeplitz block s_mat = ell*sub + c*I +
    r*super over E in closed form, without elimination (see the module
    docstring), in the conventions of jordan_axis: one chain per block,
    eigenvector first.  roots are the block's ((eigenvalue, multiplicity),
    ...) in E."""
    p, k, n = E.char, getattr(E, "k", 1), s_mat.rows
    if ell == 0 or r == 0:
        base = getattr(E, "base", E)
        if ell == r:  # S = cI: n blocks of size 1
            u = u_inv = FMatrix.identity(E, n)
            return _checked_axis(s_mat, E, u, u_inv, ((roots[0][0], 1),) * n)
        # One nilpotent block: u_s = b^-s e_s for b = r, b^-s e_(n-1-s) for b = ell.
        b = ell or r
        s = np.arange(n)
        pos = s if r else n - 1 - s
        u, u_inv = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
        u[pos, s] = [pow(b, -i, p) for i in range(n)]
        u_inv[s, pos] = [pow(b, i, p) for i in range(n)]
        u, u_inv = (FMatrix.from_int_array(base, m).lift(E) for m in (u, u_inv))
        return _checked_axis(s_mat, E, u, u_inv, ((roots[0][0], n),))
    dt = _dtype_for(E)
    mults = np.array([m for _, m in roots])
    n_roots, top = len(roots), int(mults.max())
    mu = np.array([E.coeff_vector(lam) for lam, _ in roots], dtype=dt)
    mu[:, 0] = (mu[:, 0] - c) % p
    r_inv = pow(r, -1, p)
    # h[s, j, i]: entry i of the s-th Hasse derivative of v at root j.
    h = np.zeros((top, n_roots, n, k), dtype=dt)
    h[0, :, 0, 0] = 1
    for i in range(n - 1):
        nxt = coord_mul(E, mu, h[:, :, i])
        nxt[1:] += h[:-1, :, i]
        if i:
            nxt -= ell * h[:, :, i - 1]
        h[:, :, i + 1] = nxt % p * r_inv % p
    # Column (j, s) of U is h[s, j] for s < m_j; row (j, s) of U^-1 matches it.
    at_root = np.repeat(np.arange(n_roots), mults)
    at_pos = np.concatenate([np.arange(m) for m in mults])
    # Rows of U^T Delta, and a[t, j] = <D^(m_j - 1) v, D^(t) v>_Delta.  Block j
    # of G is G_j[t, s] = a[t + s - m_j + 1, j] (zero where t + s < m_j - 1),
    # i.e. L R with L lower-triangular Toeplitz in a and R the reversal, so
    # G_j^-1 = R L^-1 and L^-1 is the power-series inverse b of a.
    ratio = r * pow(ell, -1, p) % p
    w = h * np.array([pow(ratio, i, p) for i in range(n)], dtype=dt)[:, None] % p
    a = coord_mul(E, h[mults - 1, np.arange(n_roots)], w).sum(axis=2) % p
    b = np.zeros_like(a)
    b[0] = coord_inv(E, a[0])
    for t in range(1, top):
        acc = sum(coord_mul(E, a[i], b[t - i]) for i in range(1, t + 1)) % p
        b[t] = -coord_mul(E, b[0], acc) % p
    # x[q] = sum over s <= q of b[q - s] w[s]; row (j, t) of U^-1 is x[m_j - 1 - t, j].
    x = np.stack([
        sum(coord_mul(E, b[q - s][:, None], w[s]) for s in range(q + 1)) % p
        for q in range(top)
    ])
    u = FMatrix(E, h[at_pos, at_root].transpose(1, 0, 2))
    u_inv = FMatrix(E, x[mults[at_root] - 1 - at_pos, at_root])
    return _checked_axis(s_mat, E, u, u_inv, tuple(roots))


@dataclass(frozen=True)
class GenJordan:
    """Kronecker-factored generalized Jordan data for the full transition
    matrix: U = U_d ⊗ ... ⊗ U_1 and J = nested Kronecker sum of the axis
    Jordan forms."""

    rule: RuleSpec
    field: object
    axis_U: tuple  # FMatrix per axis, axis 1 first
    axis_U_inv: tuple
    axis_layout: tuple  # per axis: ((eigenvalue, block size), ...)

    @cached_property
    def axis_eps(self) -> tuple:
        return tuple(_layout_eps(layout) for layout in self.axis_layout)

    @property
    def axis_diagonalizable(self) -> tuple:
        return tuple(all(size == 1 for _, size in layout) for layout in self.axis_layout)

    @property
    def diagonalizable(self) -> bool:
        return all(self.axis_diagonalizable)

    def U(self) -> FMatrix:
        return kron_many(list(reversed(self.axis_U)))

    def diagonal(self):
        """Eigenvalues along the diagonal of J, in nested order."""
        k = self._diag.shape[-1]
        return [self.field.elem(v) for v in self._diag.reshape(-1, k).tolist()]

    @cached_property
    def _diag(self):
        """Coordinates of the diagonal D of J, shaped (n_d, ..., n_1, k) so
        that axis 1 varies fastest, as in the nested order."""
        diag = _nested_sums(self.field, [_expand(layout) for layout in self.axis_layout])
        return diag.astype(_dtype_for(self.field), copy=False)

    @cached_property
    def _diag_inv(self):
        diag = self._diag
        if not diag.any(axis=-1).all():
            raise Singular("J has a zero eigenvalue sum on its diagonal")
        # Invert each distinct sum once; coordinates are < p < 2^31.
        vals, where = np.unique(
            diag.reshape(-1, diag.shape[-1]).astype(np.int64), axis=0, return_inverse=True
        )
        inv = coord_inv(self.field, vals.astype(diag.dtype))
        return inv[where.reshape(-1)].reshape(diag.shape)

    def solve(self, x: FMatrix) -> FMatrix:
        """J^-1 x for a column block x over the field of J, without forming
        J^-1.

        J = D + N with D diagonal and N nilpotent.  D is constant along each
        Jordan chain, so D and N commute and N^(s+1) = 0 for s the sum over
        axes of (largest block size - 1).  Hence y = D^-1 x followed by s
        rounds of y <- D^-1 (x - N y) is exact; a diagonalizable J needs only
        the elementwise division."""
        E = self.field
        xs = x.data.reshape(tuple(reversed(self.rule.dims)) + x.data.shape[1:])
        dinv = self._diag_inv[..., None, :]
        y = coord_mul(E, dinv, xs)
        rounds = sum(max(size for _, size in layout) - 1 for layout in self.axis_layout)
        for _ in range(rounds):
            ny = _chain_links(np.zeros_like(y), y, self.axis_eps, 0, up=True)
            y = coord_mul(E, dinv, (xs - ny) % E.char)
        return FMatrix(E, y.reshape(x.data.shape))


def generalized_jordan(rule: RuleSpec, rep: Reversibility | None = None) -> GenJordan:
    E, spectra = axis_spectra(rule) if rep is None else (rep.field, rep.spectra)
    per_axis = []
    cache = {}  # identical axes share one Jordan computation
    for a in range(rule.d):
        shift = rule.c if a == 0 else 0
        ell, r = bands = rule.effective_bands(a)
        key = (rule.dims[a], bands, shift)
        if key not in cache:
            s_mat = axis_matrix(rule, a)
            if shift:
                s_mat = s_mat + FMatrix.identity(rule.field, rule.dims[a]).scale(shift)
            roots = spectra[a].roots
            if len(ell) == 1:
                cache[key] = tridiagonal_jordan(s_mat, E, ell[0], r[0], shift, roots)
            else:
                cache[key] = jordan_axis(s_mat, E, roots=roots)
        per_axis.append(cache[key])
    us, uinvs, layouts = zip(*per_axis)
    gj = GenJordan(rule=rule, field=E, axis_U=us, axis_U_inv=uinvs, axis_layout=layouts)
    if rule.size <= _FULL_CHECK_CAP:
        _verify_conjugation(gj)
    return gj


def _verify_conjugation(gj: GenJordan) -> None:
    """Raise InternalVerificationFailed unless T U = U J exactly.

    T U is one batched forward stencil step over the columns and coordinate
    planes of U; U J is U D plus the chain links, from the same diagonal and
    eps flags that GenJordan.solve uses.  Rows and columns of U are both
    split in nested order (axis 1 fastest, so last), which keeps every
    reshape a view."""
    rule, E = gj.rule, gj.field
    p, k, n = E.char, getattr(E, "k", 1), rule.size
    u = gj.U().data
    nested = tuple(reversed(rule.dims))
    lo, hi = rule.band_arrays()
    tu = kernels.evolve_step(u.reshape(nested + (n, k)), rule.c, lo[::-1], hi[::-1], p)
    cols = u.reshape((n,) + nested + (k,))
    uj = _chain_links(coord_mul(E, gj._diag, cols), cols, gj.axis_eps, 1, up=False)
    if not np.array_equal(tu.reshape(cols.shape), uj % p):
        raise InternalVerificationFailed("full conjugation check failed")


def _reversible_jordan(rule: RuleSpec, rep: Reversibility | None = None) -> GenJordan:
    """Jordan data of a reversible rule; raises NotReversible, with a
    zero-eigenvalue witness, otherwise."""
    rep = rep or reversibility(rule)
    if not rep.reversible:
        raise NotReversible(tuple(rep.field.render(w) for w in rep.witness))
    return generalized_jordan(rule, rep)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _forward(rule: RuleSpec, y: FMatrix):
    """T y for a base-field column block: one stencil step per column."""
    lo, hi = rule.band_arrays()
    cells = y.int_matrix().reshape(rule.dims + (y.cols,), order="F")
    out = kernels.evolve_step(cells, rule.c, lo, hi, rule.p)
    return out.reshape(y.rows, y.cols, order="F")


def apply_inverse(rule: RuleSpec, x: FMatrix, gj: GenJordan) -> FMatrix:
    """T^-1 x for an N x m base-field column block x of a reversible rule.

    Computes U J^-1 U^-1 x with U applied factor by factor and J^-1 by
    GenJordan.solve, so no N x N matrix is formed unless x has N columns.
    The result y is verified exactly: the forward stencil must give T y == x.
    """
    w = gj.solve(kron_dot(list(reversed(gj.axis_U_inv)), x.lift(gj.field)))
    try:
        y = kron_dot(list(reversed(gj.axis_U)), w).project_base()
    except FieldMismatch as exc:
        raise InternalVerificationFailed(
            "inverse has entries outside the base field"
        ) from exc
    if not np.array_equal(_forward(rule, y), x.int_matrix()):
        raise InternalVerificationFailed("T * (T^-1 x) != x")
    return y


def evolve_inverse(rule: RuleSpec, pattern: Pattern, steps: int) -> Pattern:
    """Run a reversible rule `steps` steps backward: one apply_inverse per
    step on a single column, each verified by the forward stencil."""
    gj = _reversible_jordan(rule)
    for _ in range(steps):
        col = FMatrix.from_int_array(rule.field, theta(pattern)[:, None])
        y = apply_inverse(rule, col, gj)
        pattern = theta_inv(y.int_matrix()[:, 0], rule.dims, rule.p)
    return pattern


def invert_T(rule: RuleSpec, rep: Reversibility | None = None) -> FMatrix:
    """Exact inverse of the transition matrix over GF(p), as T^-1 I.

    Raises SizeCapExceeded when the dense result would exceed the matrix cap
    and NotReversible (with a zero-eigenvalue witness) when the rule is not
    reversible; the result is verified by the forward stencil.
    """
    if rule.size > MATRIX_SIZE_CAP:
        raise SizeCapExceeded(
            f"inverse matrix of size {rule.size} exceeds the cap {MATRIX_SIZE_CAP}"
        )
    gj = _reversible_jordan(rule, rep)
    return apply_inverse(rule, FMatrix.identity(rule.field, rule.size), gj)
