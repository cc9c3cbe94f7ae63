"""Dense and brute-force forms of the nested Jordan data, for the tests.

carev.spectral keeps J only as per-axis layouts ((eigenvalue, block size),
...) and never forms it.  These helpers build J and the multiset of its
eigenvalues the slow, obvious way, so the structured code can be checked
against them.
"""

from collections import Counter

from carev.structmat import FMatrix, kron_sum


def axis_J(E, layout) -> FMatrix:
    """Dense Jordan form with this layout: each block of size s is lambda on
    its diagonal and ones on its superdiagonal."""
    n = sum(size for _, size in layout)
    rows = [[E.zero] * n for _ in range(n)]
    start = 0
    for lam, size in layout:
        for t in range(size):
            rows[start + t][start + t] = lam
            if t + 1 < size:
                rows[start + t][start + t + 1] = E.one
        start += size
    return FMatrix.from_rows(E, rows)


def nested_J(gj) -> FMatrix:
    """Dense J of a GenJordan: the nested Kronecker sum of its axis forms."""
    j = axis_J(gj.field, gj.axis_layout[0])
    for layout in gj.axis_layout[1:]:
        j = kron_sum(j, axis_J(gj.field, layout))
    return j


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
