"""Tiny exact linear algebra over the rationals and the integers (row
vectors as tuples)."""

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


def smith(rows, n):
    """Smith normal form over Z of the first n columns; returns (rows, cols).

    Row and column operations invertible over Z bring the first n columns
    to a diagonal d_0 | d_1 | ... >= 0 (Cohen, *A Course in Computational
    Algebraic Number Theory*, 1993, section 2.4): the smallest entry becomes
    the pivot and divides its row and column; a remainder, or a row it does
    not divide (added to its row), is a smaller pivot.  Row operations
    carry the trailing columns along; column operations act on `cols`, so
    a leading part x is x·cols in the new basis.  Rational leading entries
    lie in one lattice (1/D)Z, so pivots shrink there too.
    """
    a = [list(r) for r in rows]
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(min(len(a), n)):
        while True:
            nonzero = [(abs(a[i][j]), i, j)
                       for i in range(k, len(a)) for j in range(k, n) if a[i][j]]
            if not nonzero:
                return [tuple(r) for r in a], cols
            _, i, j = min(nonzero)
            a[k], a[i] = a[i], a[k]
            for r in a + cols:
                r[k], r[j] = r[j], r[k]
            for i in range(k + 1, len(a)):
                q = a[i][k] // a[k][k]
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // a[k][k]
                for r in a + cols:
                    r[j] -= q * r[k]
            if any(a[k][k + 1:n]):
                continue
            bad = [r for r in a[k + 1:] if r[k] or any(x % a[k][k] for x in r[k + 1:n])]
            if not bad:
                break
            a[k] = [x + y for x, y in zip(a[k], bad[0])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
    return [tuple(r) for r in a], cols
