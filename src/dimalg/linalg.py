"""Tiny exact linear algebra over the rationals (row vectors as tuples)."""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    reduced = [tuple(row) for row in m[:r]]
    return reduced, pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix (rows x ncols)."""
    if not rows:
        return [tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def in_rowspace(rows, v) -> bool:
    """Whether v lies in the span of the given rows."""
    red, pivots = rref(rows)
    w = list(map(Fraction, v))
    for row, p in zip(red, pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return all(x == 0 for x in w)
