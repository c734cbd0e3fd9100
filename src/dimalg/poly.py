"""Dimension-homogeneous polynomials over exact rationals.

The carrier for dimensioned algebras, derivations, and Poisson brackets:
a polynomial ring whose generators carry dimension vectors in Z^k.  The
dimension of a monomial is the dimension-weighted sum of its exponents;
every stored element is homogeneous, addition rejects mixed dimensions,
and multiplication adds dimensions.  Zero polynomials exist in every
slice, so each slice is a (possibly infinite-dimensional) rational
vector space containing at least its zero.

`GradedPolyRing.poly` is the checked boundary: terms from outside (parsed
documents, callers' dicts, samples) are validated there, each exponent
tuple and the dimension of every monomial.  A sum, product or derivative
of checked elements is homogeneous by construction, so results inside are
trusted: `add`, `mul` and `pow` build theirs through `_of`, which only
drops zero coefficients and sorts; `partial`, whose terms come out
distinct, nonzero and in order, builds its own directly.  `leibniz`,
the one contraction that derivations and the Poisson bracket are built
on, returns terms for its caller to build: the bracket's are integers,
one Fraction per nonzero term, with no gcd when every denominator is 1.
"""

import itertools
from fractions import Fraction
from operator import add as _add, sub as _sub

from .core import DimElement
from .errors import CarrierError, DimensionMismatch
from .monoid import DimMonoid
from .numfmt import fraction_str
from .ring import DISTINCT, LARGE, DimRing, Ideal
from .sampling import rand_fraction


def _vec_add(a, b):
    return tuple(map(_add, a, b))


def leibniz(terms, rows) -> dict:
    """The sum over u of d_u f * rows[u] as {exponent tuple: coefficient},
    f given by its terms and `rows` mapping a generator index to terms (a
    generator with no row adds nothing).  Integer terms give integer
    sums; sums that cancel stay, as zeros for the caller to drop."""
    acc: dict = {}
    for alpha, c in terms:
        for u, e in enumerate(alpha):
            if e and u in rows:
                lowered, ce = alpha[:u] + (e - 1,) + alpha[u + 1:], c * e
                for beta, r in rows[u]:
                    key = tuple(map(_add, lowered, beta))
                    acc[key] = acc[key] + ce * r if key in acc else ce * r
    return acc


class GradedPolyRing(DimRing):
    """Polynomials on dimension-tagged generators, as a dimensioned ring.

    Element encoding: value = sorted tuple of (exponent tuple, coefficient)
    with nonzero coefficients; dim = the shared dimension vector.
    """

    def __init__(self, gen_names, gen_dims, label: str = ""):
        self.gen_names = tuple(gen_names)
        self.gen_dims = tuple(tuple(d) for d in gen_dims)
        if len(self.gen_names) != len(self.gen_dims):
            raise CarrierError("one dimension vector per generator")
        if len(set(self.gen_names)) != len(self.gen_names):
            raise CarrierError("duplicate generator names")
        ranks = {len(d) for d in self.gen_dims} or {0}
        if len(ranks) != 1:
            raise CarrierError("generator dimensions must share one rank")
        self.rank = ranks.pop()
        self.dims = DimMonoid.free_abelian(self.rank)
        self.index = {n: i for i, n in enumerate(self.gen_names)}
        # one column of generator weights per dimension coordinate
        self._dim_cols = tuple(zip(*self.gen_dims))
        self._monomial_index: dict = {}   # max_degree -> {dim: exponent tuples}
        self.label = label or f"Q[{','.join(self.gen_names)}]"

    # -- monomials ------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.gen_names)

    def monomial_dim(self, alpha) -> tuple:
        return tuple(sum(e * d for e, d in zip(alpha, col)) for col in self._dim_cols)

    def monomial_index(self, max_degree: int) -> dict:
        """Every exponent tuple of total degree <= max_degree, grouped by
        dimension, each group in lexicographic order.  Built on first use
        and kept on the ring, one index per max_degree, in one
        lexicographic walk: each generator extends every prefix by each
        exponent its degree budget allows, adding the generator's
        dimension to the prefix's at each step."""
        index = self._monomial_index.get(max_degree)
        if index is None:
            walk = [((), (0,) * self.rank, max_degree)]  # (prefix, its dimension, degree left)
            for g in self.gen_dims:
                longer = []
                for alpha, dim, left in walk:
                    for e in range(left + 1):
                        longer.append((alpha + (e,), dim, left - e))
                        if e < left:  # the prefix's next extension, if any
                            dim = _vec_add(dim, g)
                walk = longer
            groups: dict = {}
            for alpha, dim, _ in walk:
                groups.setdefault(dim, []).append(alpha)
            index = {d: tuple(alphas) for d, alphas in groups.items()}
            self._monomial_index[max_degree] = index
        return index

    def monomials_of_dim(self, dim, max_degree: int):
        """All exponent tuples of total degree <= max_degree whose
        dimension is `dim`, in lexicographic order, read from the ring's
        monomial index.  A fresh list each call: callers may shuffle it."""
        return list(self.monomial_index(max_degree).get(tuple(dim), ()))

    # -- element construction ---------------------------------------------
    def poly(self, terms: dict, dim=None) -> DimElement:
        canon: dict = {}
        for alpha, coeff in terms.items():
            alpha = tuple(alpha)
            if len(alpha) != self.nvars or any(e < 0 for e in alpha):
                raise CarrierError(f"bad exponent tuple {alpha!r}")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            canon[alpha] = canon[alpha] + coeff if alpha in canon else coeff
        canon = {a: c for a, c in canon.items() if c != 0}
        mono_dims = {self.monomial_dim(a) for a in canon}
        if len(mono_dims) > 1:
            raise DimensionMismatch(*sorted(mono_dims)[:2], context=self.label)
        if canon:
            inferred = mono_dims.pop()
            if dim is not None and tuple(dim) != inferred:
                raise DimensionMismatch(tuple(dim), inferred, self.label)
            dim = inferred
        elif dim is None:
            dim = (0,) * self.rank
        return DimElement(tuple(sorted(canon.items())), tuple(dim))

    @staticmethod
    def _of(acc: dict, dim: tuple) -> DimElement:
        """An internal result, trusted: `acc` maps exponent tuples to
        Fraction coefficients whose monomials all sit at `dim`.  Zero
        coefficients are dropped and the terms sorted; nothing is checked."""
        return DimElement(tuple(sorted((a, c) for a, c in acc.items() if c)), dim)

    def monomial(self, alpha, coeff=1) -> DimElement:
        return self.poly({tuple(alpha): coeff})

    def generator(self, name) -> DimElement:
        alpha = tuple(int(i == self.index[name]) for i in range(self.nvars))
        return self.monomial(alpha)

    def constant(self, c) -> DimElement:
        return self.poly({(0,) * self.nvars: c})

    # -- ring structure ------------------------------------------------------
    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMismatch(a.dim, b.dim, self.label)
        acc = dict(a.value)
        for alpha, c in b.value:
            acc[alpha] = acc[alpha] + c if alpha in acc else c
        return self._of(acc, a.dim)

    def neg(self, a):
        return DimElement(tuple((al, -c) for al, c in a.value), a.dim)

    def zero(self, d):
        return DimElement((), tuple(d))

    def mul(self, a, b):
        acc: dict = {}
        for al, ca in a.value:
            for bl, cb in b.value:
                key = _vec_add(al, bl)
                acc[key] = acc[key] + ca * cb if key in acc else ca * cb
        return self._of(acc, _vec_add(a.dim, b.dim))

    def pow(self, a, n):
        """a to the n >= 0 by the multinomial theorem: one product of
        coefficient powers per way of splitting n among a's t terms, so
        C(t+n-1, n) of them, and a single one for a monomial."""
        if n < 0:
            return super().pow(a, n)
        dim = tuple(n * x for x in a.dim)
        if not a.value:
            return self.one if n == 0 else self.zero(dim)
        terms, acc = a.value, {}
        # (next term, factors left for it and the terms after, coefficient
        # and exponent so far); the last term takes every factor left
        todo = [(0, n, Fraction(1), (0,) * self.nvars)]
        while todo:
            j, left, coeff, alpha = todo.pop()
            al, c = terms[j]
            lo = 0 if j < len(terms) - 1 else left
            binom, ck = 1, c ** lo  # C(left, k) and c**k, k from lo up
            for k in range(lo, left + 1):
                kc = coeff * binom * ck
                kal = tuple(x + k * e for x, e in zip(alpha, al))
                if k < left:
                    todo.append((j + 1, left - k, kc, kal))
                else:
                    acc[kal] = acc[kal] + kc if kal in acc else kc
                binom, ck = binom * (left - k) // (k + 1), ck * c
        return self._of(acc, dim)

    @property
    def one(self):
        return self.constant(1)

    def scale(self, c, a) -> DimElement:
        return DimElement(
            tuple((al, Fraction(c) * co) for al, co in a.value), a.dim
        ) if c != 0 else self.zero(a.dim)

    def is_unit(self, a) -> bool:
        return len(a.value) == 1 and a.value[0][0] == (0,) * self.nvars

    def degree(self, a) -> int:
        """Total degree; -1 for zero polynomials."""
        return max((sum(al) for al, _ in a.value), default=-1)

    def truncate(self, a, max_degree: int) -> DimElement:
        return DimElement(
            tuple((al, c) for al, c in a.value if sum(al) <= max_degree), a.dim
        )

    # -- calculus ----------------------------------------------------------------
    def partial(self, a: DimElement, name) -> DimElement:
        """The partial derivative along a generator; the result sits in the
        slice shifted down by that generator's dimension."""
        i = self.index[name]
        # Lowering alpha[i] by one keeps distinct terms distinct and in
        # order, and c * alpha[i] != 0: the terms are already canonical.
        terms = tuple([(alpha[:i] + (e - 1,) + alpha[i + 1:], c if e == 1 else c * e)
                       for alpha, c in a.value if (e := alpha[i])])
        return DimElement(terms, tuple(map(_sub, a.dim, self.gen_dims[i])))

    # -- probing --------------------------------------------------------------------
    def sample_dim(self, rng):
        alpha = tuple(rng.randint(0, 2) for _ in range(self.nvars))
        return self.monomial_dim(alpha)

    def sample(self, rng, dim=None, max_degree: int = 3) -> DimElement:
        if dim is None:
            dim = self.sample_dim(rng)
        monos = self.monomials_of_dim(dim, max_degree)
        if not monos:
            return self.zero(dim)
        rng.shuffle(monos)
        picked = monos[: rng.randint(1, min(3, len(monos)))]
        return self.poly({al: rand_fraction(rng) for al in picked}, dim=tuple(dim))

    def probe_dims(self):
        dims = {self.monomial_dim(a) for a in
                itertools.product(range(2), repeat=self.nvars)}
        return tuple(sorted(dims))

    def probe_elements(self):
        """`one`, the zero and each generator; then on each probe dimension's
        first three monomials of degree at most 3 the DISTINCT values in
        each rotation, so each monomial meets each value, and the LARGE ones."""
        out = [self.one, self.zero((0,) * self.rank), *map(self.generator, self.gen_names)]
        k = len(DISTINCT)
        for d in self.probe_dims():
            monos = self.monomials_of_dim(d, 3)[:k]
            out += [self.poly({al: DISTINCT[(j + s) % k] for j, al in enumerate(monos)}, d)
                    for s in range(k)]
            out.append(self.poly(dict(zip(monos, LARGE)), d))
        return tuple(out)

    # -- monomial ideals ---------------------------------------------------------------
    @staticmethod
    def divisible_by(alphas):
        """A test, built once, of whether an exponent tuple is divisible by
        one of the exponent tuples `alphas`: it reads each one's support."""
        supports = [tuple((i, e) for i, e in enumerate(a) if e) for a in alphas]

        def divisible(beta) -> bool:
            for support in supports:
                for i, e in support:
                    if beta[i] < e:
                        break
                else:
                    return True
            return False

        return divisible

    def monomial_ideal(self, gens) -> Ideal:
        """The ideal of everything divisible by one of the generator
        monomials, with the normal form that drops exactly those terms,
        each tested by one `divisible_by` test built with the ideal.

        `gens` may be generator names or monomial elements.
        """
        elems = tuple(
            self.generator(g) if isinstance(g, str) else g for g in gens
        )
        if any(len(g.value) != 1 for g in elems):
            raise CarrierError("monomial ideal generators must be monomials")
        divisible = self.divisible_by(g.value[0][0] for g in elems)

        def nf(a: DimElement) -> DimElement:
            return DimElement(tuple(t for t in a.value if not divisible(t[0])), a.dim)

        return Ideal(self, elems, nf)

    # -- rendering -------------------------------------------------------------------------
    def show(self, a: DimElement) -> str:
        if not a.value:
            return "0"
        parts = []
        for alpha, c in a.value:
            factors = [
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.gen_names, alpha)
                if e
            ]
            if not factors:
                parts.append(fraction_str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([fraction_str(c)] + factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
