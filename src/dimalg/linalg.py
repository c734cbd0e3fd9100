"""Tiny exact linear algebra over the rationals and the integers (row
vectors as tuples, or as {column: entry} dicts where `rref` takes them)."""

from fractions import Fraction


def _entries(row):
    """The (column, entry) pairs of a dense row or of a {column: entry} row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _subtract(r, f, s):
    """r -= f·s on sparse rows, in place; entries that cancel are dropped."""
    for c, x in s.items():
        if y := r.get(c, 0) - f * x:
            r[c] = y
        else:
            del r[c]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Rows are dense sequences or {column: entry} dicts, and come back in
    the form given: dense rows as tuples as wide as the first row, dict
    rows as dicts of their nonzero entries.  The elimination touches
    nonzero entries only: each row is reduced by the pivot rows kept so
    far (each 1 at its own pivot and 0 at every other), and what is left
    of it, if anything, becomes a pivot row at its first column, which it
    clears from the others.  A kept row is 0 left of its pivot, so the
    kept rows in pivot order are the reduced row echelon form, which is
    unique."""
    kept = {}  # pivot column -> row
    for row in rows:
        r = {c: Fraction(x) for c, x in _entries(row) if x}
        for p in [c for c in r if c in kept]:
            _subtract(r, r[p], kept[p])
        if not r:
            continue
        p = min(r)
        if (pv := r[p]) != 1:
            r = {c: x / pv for c, x in r.items()}
        for q in kept.values():
            if f := q.get(p):
                _subtract(q, f, r)
        kept[p] = r
    pivots = sorted(kept)
    reduced = [kept[p] for p in pivots]
    if rows and not isinstance(rows[0], dict):
        zero, width = Fraction(0), len(rows[0])
        reduced = [tuple(r.get(c, zero) for c in range(width)) for r in reduced]
    return reduced, pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix (rows x ncols), dense or
    sparse rows as `rref` takes them: one vector per free column f, 1 at
    f and minus each pivot row's entry at f at that row's pivot."""
    red, pivots = rref(rows)
    bound, zero = set(pivots), Fraction(0)
    basis = {f: [zero] * ncols for f in range(ncols) if f not in bound}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for row, p in zip(red, pivots):
        for c, x in _entries(row):
            if x and c != p:
                basis[c][p] = -x
    return [tuple(v) for v in basis.values()]


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
