"""Structured reversibility analysis and exact inversion.

The transition matrix is a nested Kronecker sum of per-axis banded Toeplitz
blocks, so its eigenvalues are all sums of per-axis eigenvalues taken in a
common splitting field.  Reversibility is decided from that Minkowski sum
without ever materializing the matrix; the inverse, when it exists, is
assembled from per-axis Jordan bases, a sparse nested block-bidiagonal
inverse, and Kronecker-factored conjugation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels, oracle
from .ca import RuleSpec, axis_matrix, build_T
from .charpoly import g_poly
from .errors import (
    FieldMismatch,
    InternalVerificationFailed,
    NotReversible,
    Singular,
    SingularBlock,
)
from .field import ExtField, Poly, PrimeField, roots_with_multiplicity, splitting_field
from .oracle import SpanTracker
from .structmat import FMatrix, dot_kron, kron_dot, kron_many, kron_sum

# Full conjugation re-verification is only affordable up to this size; the
# per-axis conjugations are verified exactly at every size.
_FULL_CHECK_CAP = 256


@dataclass(frozen=True)
class AxisSpectrum:
    """Characteristic polynomial and roots of one axis block (axis 0 carries
    the center-coefficient shift)."""

    axis: int
    poly: Poly  # over GF(p)
    roots: tuple  # ((element of E, multiplicity), ...) canonically ordered

    def expanded(self):
        out = []
        for lam, mult in self.roots:
            out.extend([lam] * mult)
        return out


def axis_char_poly(rule: RuleSpec, axis: int) -> Poly:
    """Characteristic polynomial of the axis block over GF(p)."""
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
    E = splitting_field(polys, verify=False)
    spectra = []
    cache = {}  # identical axes share one root computation
    for a, f in enumerate(polys):
        roots = cache.get(f.coeffs)
        if roots is None:
            roots = tuple(roots_with_multiplicity(f, E))
            cache[f.coeffs] = roots
        spectra.append(AxisSpectrum(axis=a, poly=f, roots=roots))
    return E, spectra


def eigenvalue_multiset(E, spectra) -> Counter:
    """All sums of per-axis eigenvalues, with product multiplicities."""
    acc = Counter({E.zero: 1})
    for spec in spectra:
        nxt = Counter()
        for lam, mult in spec.roots:
            for s, m in acc.items():
                nxt[E.add(s, lam)] += m * mult
        acc = nxt
    return acc


def _minkowski_zero(E, spectra):
    """First all-zero eigenvalue sum in nested order (axis d outermost), or
    None.  Returns the witness as (lambda_1, ..., lambda_d)."""
    p = E.char
    k = getattr(E, "k", 1)
    expanded = [spec.expanded() for spec in spectra]
    arrays = [
        np.array([E.coeff_vector(v) for v in vals], dtype=np.int64).reshape(-1, k)
        for vals in expanded
    ]
    acc = arrays[-1]
    for arr in reversed(arrays[:-1]):
        acc = (acc[:, None, :] + arr[None, :, :]).reshape(-1, k) % p
    zero_rows = np.nonzero(~acc.any(axis=1))[0]
    if zero_rows.size == 0:
        return None
    idx = int(zero_rows[0])
    # Mixed-radix decode, axis d most significant.
    sizes = [len(v) for v in expanded]
    combo = [0] * len(sizes)
    for a in range(len(sizes)):  # axis 1 varies fastest
        combo[a] = idx % sizes[a]
        idx //= sizes[a]
    return tuple(expanded[a][combo[a]] for a in range(len(sizes)))


@dataclass(frozen=True)
class Reversibility:
    reversible: bool
    witness: tuple | None  # per-axis eigenvalues summing to zero
    field: object
    spectra: tuple


def reversibility(rule: RuleSpec) -> Reversibility:
    E, spectra = axis_spectra(rule)
    witness = _minkowski_zero(E, spectra)
    return Reversibility(witness is None, witness, E, tuple(spectra))


def is_reversible(rule: RuleSpec):
    """Decision plus a zero-sum witness when irreversible."""
    rep = reversibility(rule)
    return rep.reversible, rep.witness


# ---------------------------------------------------------------------------
# Jordan machinery
# ---------------------------------------------------------------------------


def _matvec(m: FMatrix, v):
    col = FMatrix.from_rows(m.field, [[x] for x in v])
    res = m @ col
    return tuple(res.at(i, 0) for i in range(res.rows))


def jordan_axis(s_mat: FMatrix, E, poly: Poly | None = None):
    """Canonical Jordan form of one axis block over E.

    Returns (U, U_inv, J, eps, layout) with U_inv @ S @ U = J verified
    exactly; eps are the superdiagonal 0/1 flags and layout lists
    (eigenvalue, block size) in order.
    """
    base = s_mat.field
    if poly is None:
        poly = oracle.char_poly(s_mat)
    roots = roots_with_multiplicity(poly, E)
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
    # Assemble J from the layout.
    j_rows = [[E.zero] * n for _ in range(n)]
    eps = []
    pos = 0
    for lam, size in layout:
        for t in range(size):
            j_rows[pos + t][pos + t] = lam
            if t + 1 < size:
                j_rows[pos + t][pos + t + 1] = E.one
        eps.extend([1] * (size - 1))
        if pos + size < n:
            eps.append(0)
        pos += size
    j = FMatrix.from_rows(E, j_rows)
    try:
        u_inv = oracle.inverse(u)
    except Singular as exc:  # pragma: no cover - guards bugs
        raise InternalVerificationFailed("Jordan basis is singular") from exc
    if se @ u != u @ j:
        raise InternalVerificationFailed("axis conjugation check failed")
    return u, u_inv, j, tuple(eps), layout


@dataclass(frozen=True)
class GenJordan:
    """Kronecker-factored generalized Jordan data for the full transition
    matrix: U = U_d ⊗ ... ⊗ U_1 and J = nested Kronecker sum of the axis
    Jordan forms."""

    rule: RuleSpec
    field: object
    axis_U: tuple  # FMatrix per axis, axis 1 first
    axis_U_inv: tuple
    axis_J: tuple
    axis_eps: tuple
    axis_layout: tuple  # per axis: ((eigenvalue, block size), ...)
    axis_diagonalizable: tuple

    @property
    def diagonalizable(self) -> bool:
        return all(self.axis_diagonalizable)

    def U(self) -> FMatrix:
        return kron_many(list(reversed(self.axis_U)))

    def U_inv(self) -> FMatrix:
        return kron_many(list(reversed(self.axis_U_inv)))

    def J(self) -> FMatrix:
        j = self.axis_J[0]
        for jk in self.axis_J[1:]:
            j = kron_sum(j, jk)
        return j

    def diagonal(self):
        """Eigenvalues along the diagonal of J, in nested order."""
        E = self.field
        per_axis = []
        for layout in self.axis_layout:
            vals = []
            for lam, size in layout:
                vals.extend([lam] * size)
            per_axis.append(vals)
        diag = [E.zero]
        for vals in per_axis:
            diag = [E.add(s, lam) for lam in vals for s in diag]
        return diag


def generalized_jordan(rule: RuleSpec, rep: Reversibility | None = None) -> GenJordan:
    if rep is None:
        E, spectra = axis_spectra(rule)
    else:
        E, spectra = rep.field, rep.spectra
    us, uinvs, js, epss, layouts, diags = [], [], [], [], [], []
    field = rule.field
    for a in range(rule.d):
        s_mat = axis_matrix(rule, a)
        if a == 0 and rule.c:
            s_mat = s_mat + FMatrix.identity(field, rule.dims[0]).scale(rule.c)
        u, u_inv, j, eps, layout = jordan_axis(s_mat, E, poly=spectra[a].poly)
        us.append(u)
        uinvs.append(u_inv)
        js.append(j)
        epss.append(eps)
        layouts.append(tuple(layout))
        diags.append(all(size == 1 for _, size in layout))
    gj = GenJordan(
        rule=rule,
        field=E,
        axis_U=tuple(us),
        axis_U_inv=tuple(uinvs),
        axis_J=tuple(js),
        axis_eps=tuple(epss),
        axis_layout=tuple(layouts),
        axis_diagonalizable=tuple(diags),
    )
    if rule.size <= _FULL_CHECK_CAP:
        t = build_T(rule).lift(E) if isinstance(E, ExtField) else build_T(rule)
        if t @ gj.U() != gj.U() @ gj.J():
            raise InternalVerificationFailed("full conjugation check failed")
    return gj


# ---------------------------------------------------------------------------
# Block-bidiagonal inversion
# ---------------------------------------------------------------------------


def _assemble_bidiagonal_inverse(E, inverses, omegas) -> FMatrix:
    """Inverse of the block matrix diag(A_i) + superdiag(omega_i * I) from the
    precomputed diagonal-block inverses: entry (i, j) for i <= j is
    (-1)^(j-i) * prod(omega_i..omega_{j-1}) * A_i^{-1} A_{i+1}^{-1} ... A_j^{-1}."""
    nblocks = len(inverses)
    r = inverses[0].rows
    k = getattr(E, "k", 1)
    data = np.zeros((nblocks * r, nblocks * r, k), dtype=inverses[0].data.dtype)
    for i in range(nblocks):
        data[i * r : (i + 1) * r, i * r : (i + 1) * r, :] = inverses[i].data
        acc = inverses[i]
        coeff = E.one
        for j in range(i + 1, nblocks):
            coeff = E.mul(coeff, omegas[j - 1])
            if coeff == E.zero:
                break
            acc = acc @ inverses[j]
            block = acc.scale(coeff if (j - i) % 2 == 0 else E.neg(coeff))
            data[i * r : (i + 1) * r, j * r : (j + 1) * r, :] = block.data
    return FMatrix(E, data)


def block_triangular_inverse(blocks, omegas) -> FMatrix:
    """Exact inverse of the block-bidiagonal matrix with invertible diagonal
    blocks A_1..A_k and scalar superdiagonal couplings omega_1..omega_{k-1}."""
    blocks = list(blocks)
    if len(omegas) != len(blocks) - 1:
        raise InternalVerificationFailed("need one omega per superdiagonal block")
    E = blocks[0].field
    inverses = []
    for i, b in enumerate(blocks):
        try:
            inverses.append(oracle.inverse(b))
        except Singular as exc:
            raise SingularBlock(i) from exc
    omegas = [E.elem(w) for w in omegas]
    return _assemble_bidiagonal_inverse(E, inverses, omegas)


def _nested_jordan_inverse(gj: GenJordan) -> FMatrix:
    """Inverse of the nested generalized Jordan form, built level by level.

    At each axis level the matrix is block-diagonal over the axis Jordan
    blocks; within a block of size s it is bidiagonal with s copies of the
    shifted lower-level matrix, so the explicit bidiagonal-inverse formula
    applies with omegas = 1."""
    E = gj.field
    cache = {}

    def level_inverse(t: int, shift):
        if t == 0:
            return FMatrix.from_rows(E, [[E.inv(shift)]])
        key = (t, shift)
        hit = cache.get(key)
        if hit is not None:
            return hit
        pieces = []
        for lam, size in gj.axis_layout[t - 1]:
            b_inv = level_inverse(t - 1, E.add(shift, lam))
            pieces.append(
                _assemble_bidiagonal_inverse(E, [b_inv] * size, [E.one] * (size - 1))
            )
        total = sum(piece.rows for piece in pieces)
        k = getattr(E, "k", 1)
        data = np.zeros((total, total, k), dtype=pieces[0].data.dtype)
        pos = 0
        for piece in pieces:
            data[pos : pos + piece.rows, pos : pos + piece.rows, :] = piece.data
            pos += piece.rows
        out = FMatrix(E, data)
        cache[key] = out
        return out

    return level_inverse(gj.rule.d, E.zero)


def invert_T(rule: RuleSpec, rep: Reversibility | None = None) -> FMatrix:
    """Exact inverse of the transition matrix over GF(p).

    Raises NotReversible (with a zero-eigenvalue witness) when the rule is
    not reversible; the result is verified by multiplication before return.
    """
    if rep is None:
        rep = reversibility(rule)
    if not rep.reversible:
        raise NotReversible(_render_witness(rep.field, rep.witness))
    gj = generalized_jordan(rule, rep)
    E = gj.field
    j_inv = _nested_jordan_inverse(gj)
    w = dot_kron(j_inv, list(reversed(gj.axis_U_inv)))
    t_inv_e = kron_dot(list(reversed(gj.axis_U)), w)
    try:
        t_inv = t_inv_e.project_base() if isinstance(E, ExtField) else t_inv_e
    except FieldMismatch as exc:
        raise InternalVerificationFailed(
            "inverse has entries outside the base field"
        ) from exc
    t = build_T(rule)
    prod = kernels.matmul_mod(t.int_matrix(), t_inv.int_matrix(), rule.p)
    if not np.array_equal(prod, np.eye(rule.size, dtype=np.int64)):
        raise InternalVerificationFailed("T * T^-1 != I")
    return t_inv


def _render_witness(E, witness):
    if witness is None:
        return None
    return tuple(E.render(w) for w in witness)
