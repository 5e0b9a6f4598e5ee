"""The monomial model of line-bundle sections on P1 and P2.

Coordinates, fixed once for the whole package: ambient P3 has (x, y, z, w)
with the two planes H1 = {x = 0}, H2 = {y = 0}; each plane carries chart
coordinates (u, v, w) where u is the restriction of the *other* plane's
equation and (v, w) = (z, w); the common line L = {u = 0} has coordinates
(v, w).

H0(O(d)) is spanned by the monomials of degree d, ordered reverse-
lexicographically by exponent vector, so every matrix is reproducible bit for
bit.  Higher cohomology is counted by ``cohomology_dim`` and never built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm, prod
from operator import add

from .linalg import RatMatrix, as_ratio
from .record import record

VAR_NAMES = {2: ("v", "w"), 3: ("u", "v", "w"), 4: ("x", "y", "z", "w")}


@record
class Form:
    """A homogeneous polynomial over Q, held as ``RatMatrix`` holds a matrix:
    ``terms`` is a reverse-lex sorted tuple of (exponent tuple, nonzero int)
    pairs over one denominator ``den``, kept canonical (positive, coprime to
    the numerators as a whole), so equal forms compare and hash equal.
    ``evaluate`` and ``str`` give the coefficients as ``Fraction``s."""

    num_vars: int
    terms: tuple
    den: int = 1

    @staticmethod
    def from_ints(num_vars: int, nums: dict, den: int = 1) -> "Form":
        """The form sum nums[e] x^e / den, from int numerators of one degree
        over a nonzero ``den``: zeros dropped, terms sorted, den made canonical."""
        terms = [(e, c) for e, c in nums.items() if c]
        if not terms:
            return Form(num_vars, ())
        if den < 0:
            terms, den = [(e, -c) for e, c in terms], -den
        g = gcd(den, *(c for _, c in terms)) if den != 1 else 1
        if g > 1:
            terms, den = [(e, c // g) for e, c in terms], den // g
        terms.sort(reverse=True)
        return Form(num_vars, tuple(terms), den)

    @staticmethod
    def from_dict(num_vars: int, coeffs: dict) -> "Form":
        """The form with the rational (int or Fraction) coefficients ``coeffs``,
        validated: exponent vectors of one degree, nonnegative, of length num_vars."""
        if num_vars not in VAR_NAMES:
            raise ValueError(f"unsupported variable count {num_vars}")
        vals = [(exp, *as_ratio(c)) for exp, c in coeffs.items()]
        den, nums, deg = lcm(*(d for _, n, d in vals if n)), {}, None
        for exp, n, d in vals:
            if not n:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            deg = sum(exp) if deg is None else deg
            if sum(exp) != deg:
                raise ValueError("form is not homogeneous")
            nums[exp] = nums.get(exp, 0) + n * (den // d)
        return Form.from_ints(num_vars, nums, den)

    @staticmethod
    def zero(num_vars: int) -> "Form":
        return Form(num_vars, ())

    @staticmethod
    def variable(num_vars: int, name: str) -> "Form":
        names = VAR_NAMES[num_vars]
        if name not in names:
            raise ValueError(f"no variable {name!r} among {names}")
        return Form(num_vars, ((tuple(int(n == name) for n in names), 1),))

    @staticmethod
    def constant(num_vars: int, c) -> "Form":
        n, d = as_ratio(c)
        return Form(num_vars, (((0,) * num_vars, n),), d) if n else Form(num_vars, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def _mult_terms(self) -> tuple:
        """The form as ``multiplication_matrix`` reads it: (den, terms).  With s_k
        the sum of the last k exponents of a term e in n variables, each term is
        (its numerator, s_1, (s_k + k - 1 for k = 2..n-1))."""
        terms = []
        for e, c in self.terms:
            sums = _suffix_sums(e)
            terms.append((c, sums[0], tuple(s + k for k, s in enumerate(sums[1:-1], 1))))
        return self.den, tuple(terms)

    @property
    def degree(self):
        """Total degree, or None for the zero form."""
        return sum(self.terms[0][0]) if self.terms else None

    @staticmethod
    def sum(num_vars: int, forms) -> "Form":
        """The sum of forms in num_vars variables, of one degree but for zero
        forms, added once over the lcm of their denominators."""
        forms = tuple(forms)
        if any(f.num_vars != num_vars for f in forms):
            raise ValueError("variable-count mismatch")
        if len({f.degree for f in forms if f.terms}) > 1:
            raise ValueError("adding forms of different degrees")
        den, acc = lcm(*(f.den for f in forms)), {}
        for f in forms:
            s = den // f.den
            for e, c in f.terms:
                acc[e] = acc.get(e, 0) + c * s
        return Form.from_ints(num_vars, acc, den)

    def __add__(self, other: "Form") -> "Form":
        if self.num_vars == other.num_vars and not (self.terms and other.terms):
            return self if other.is_zero else other
        return Form.sum(self.num_vars, (self, other))

    def __neg__(self) -> "Form":
        return Form(self.num_vars, tuple((e, -c) for e, c in self.terms), self.den)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, other):
        """The product with a form, or with a rational scalar folded into the
        numerators and ``den``."""
        if isinstance(other, Form):
            if self.num_vars != other.num_vars:
                raise ValueError("variable-count mismatch")
            d = {}
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    e = tuple(map(add, e1, e2))
                    d[e] = d.get(e, 0) + c1 * c2
            return Form.from_ints(self.num_vars, d, self.den * other.den)
        n, d = as_ratio(other)
        return Form.from_ints(self.num_vars, {e: c * n for e, c in self.terms}, self.den * d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Form":
        if n < 0:
            raise ValueError("negative power")
        out = Form.constant(self.num_vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, point) -> Fraction:
        """f(point): with the point m / D over the common denominator D of its
        coordinates, f homogeneous of degree n, sum c_e m^e / (den D^n)."""
        pt = [as_ratio(x) for x in point]
        if len(pt) != self.num_vars:
            raise ValueError("point dimension mismatch")
        common = lcm(*(d for _, d in pt))
        m = [n * (common // d) for n, d in pt]
        total = sum(c * prod(map(pow, m, e)) for e, c in self.terms)
        return Fraction(total, self.den * common ** (self.degree or 0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = VAR_NAMES[self.num_vars]
        parts = []
        for e, c in self.terms:
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = Fraction(abs(c), self.den)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def restrict_to_line(f: Form) -> Form:
    """A plane form (u, v, w) restricted to L by u := 0, a binary form in (v, w)."""
    if f.num_vars != 3:
        raise ValueError("expected a plane form in (u, v, w)")
    return Form.from_ints(2, {e[1:]: c for e, c in f.terms if e[0] == 0}, f.den)


def restrict_to_plane(f: Form, side: int) -> Form:
    """Ambient form in (x, y, z, w) restricted to H_side via the chart
    (u, v, w): on H1 set x := 0, u := y; on H2 set y := 0, u := x."""
    if f.num_vars != 4:
        raise ValueError("expected an ambient form in (x, y, z, w)")
    kill, keep = (0, 1) if side == 1 else (1, 0)
    return Form.from_ints(3, {(e[keep], e[2], e[3]): c for e, c in f.terms if e[kill] == 0},
                          f.den)


# ---------------------------------------------------------------------------
# binary forms on L


def _primitive(a: list) -> list:
    """An int coefficient list divided by its content; [] stays []."""
    g = gcd(*a)
    return a if g <= 1 else [x // g for x in a]


def _pseudo_remainder(a: list, b: list) -> list:
    """prem(a, b) on dense int coefficient lists, leading coefficient first:
    each step replaces a by lc(b) a - lc(a) b s^k, which cancels its leading
    term, so the result is a nonzero constant times the remainder over Q."""
    a, lb = a[:], b[0]
    while len(a) >= len(b):
        la = a[0]
        a = [lb * x - la * y for x, y in zip(a, b)] + [lb * x for x in a[len(b):]]
        while a and a[0] == 0:
            a.pop(0)
    return a


def binary_gcd(f: Form, g: Form) -> Form:
    """gcd of two binary forms in (v, w), up to a scalar; gcd(0, g) = g.

    The factors v^a w^b are split off first; the cores, dehomogenized at w = 1,
    run through the primitive pseudo-remainder sequence on their int numerators
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 6): the content of each
    remainder is removed, so coefficients do not compound from step to step."""
    for h in (f, g):
        if h.num_vars != 2:
            raise ValueError("binary_gcd expects forms in (v, w)")
    if f.is_zero:
        return g
    if g.is_zero:
        return f

    def split(h):
        # h = v^av * w^aw * core with core(1,0) != 0 and core(0,1) != 0
        av = min(e[0] for e, _ in h.terms)
        aw = min(e[1] for e, _ in h.terms)
        coeffs = [0] * (h.degree - av - aw + 1)  # coefficient of v^(deg-i) w^i
        for (_, e1), c in h.terms:
            coeffs[e1 - aw] = c
        return av, aw, _primitive(coeffs)

    av1, aw1, a = split(f)
    av2, aw2, b = split(g)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    deg = len(a) - 1
    av, aw = min(av1, av2), min(aw1, aw2)
    return Form.from_ints(2, {(deg - i + av, i + aw): c for i, c in enumerate(a)})


def binary_forms_common_zero_free(forms) -> bool:
    """True iff the binary forms have no common zero on L (over the algebraic
    closure): their gcd is a nonzero constant."""
    g = Form.zero(2)
    for f in forms:
        g = binary_gcd(g, f)
        if not g.is_zero and g.degree == 0:
            return True
    return not g.is_zero and g.degree == 0


# ---------------------------------------------------------------------------
# graded pieces

P1 = "P1"
P2 = "P2"
_SPACE_NVARS = {P1: 2, P2: 3}


@cache
def h0_exponents(num_vars: int, d: int) -> tuple:
    """Exponent vectors of the degree-d monomials, reverse-lex sorted."""
    if d < 0:
        return ()

    def rec(nv, total):
        if nv == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for rest in rec(nv - 1, total - k):
                yield (k,) + rest

    return tuple(sorted(rec(num_vars, d), reverse=True))


def _suffix_sums(e) -> list:
    """[s_1, ..., s_n]: s_k is the sum of the last k exponents of e."""
    out, s = [], 0
    for x in reversed(e):
        s += x
        out.append(s)
    return out


@record
class GradedPiece:
    """H0(space, O(d)) with its ordered monomial basis, or the span of a part of
    that basis.  As the target of ``multiplication_matrix`` a piece must be a
    prefix of its standard basis (``h0_exponents``); as a source it may be any
    list of monomials of degree d."""

    space: str
    d: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _runs(self) -> tuple:
        """The basis cut, in order, into maximal runs of monomials that agree in
        all but their last two exponents.  A run is ((s_2, ..., s_(n-1)), first
        column, [last exponent of each monomial]), with s_k the sum of the last k
        exponents, shared by the run for k >= 2."""
        runs = []
        for col, m in enumerate(self.basis):
            if col and self.basis[col - 1][:-2] == m[:-2]:
                runs[-1][2].append(m[-1])
            else:
                runs.append((tuple(_suffix_sums(m)[1:-1]), col, [m[-1]]))
        return tuple(runs)


def _num_vars(space: str) -> int:
    if space not in _SPACE_NVARS:
        raise ValueError(f"unknown space {space!r}")
    return _SPACE_NVARS[space]


def cohomology_dim(space: str, i: int, d: int) -> int:
    """Closed-form h^i(space, O(d)) for space in {P1, P2}."""
    n = _num_vars(space) - 1
    if i > n or i < 0:
        raise ValueError(f"cohomology index {i} out of range for {space}")
    if space == P2:
        if i == 0:
            return comb(d + 2, 2) if d >= 0 else 0
        if i == 1:
            return 0
        return comb(-d - 1, 2) if d <= -3 else 0
    if i == 0:
        return d + 1 if d >= 0 else 0
    return -d - 1 if d <= -2 else 0


@cache
def basis(space: str, d: int) -> GradedPiece:
    """Monomial basis of H0(space, O(d)); empty for d < 0."""
    return GradedPiece(space, d, h0_exponents(_num_vars(space), d))


def multiplication_matrix(grid, srcs, tgts) -> RatMatrix:
    """The map sum_j srcs[j] -> sum_i tgts[i] whose block (i, j) is
    multiplication by the form ``grid[i][j]``, on monomial bases: rows by
    target, columns by source, blocks in order.  A piece is a ``GradedPiece``;
    each target is a prefix of its standard basis, so a product's row is its
    rank there, computed from its exponents.  The grid, and each of its rows,
    may stop early: the forms left out are zero.

    The rank rule, with s_k the sum of the last k of the n exponents of p:
    rank(p) = sum_(k=1..n-1) C(s_k + k - 1, k).  The suffix sums of a product
    m * e are those of m plus those of e, and the source monomials of one run
    (``GradedPiece._runs``) share s_k for k >= 2, so along a run
    row = base + last exponent of m.

    Every product is written straight into one list of int rows over the
    common denominator of all coefficients; zero forms and empty pieces write
    nothing.  A nonzero form must bridge the degrees of its block, and each
    product must lie in its target piece."""
    roff, coff = [0], [0]
    for p in tgts:
        roff.append(roff[-1] + len(p.basis))
    for p in srcs:
        coff.append(coff[-1] + len(p.basis))
    out = [{} for _ in range(roff[-1])]
    blocks, den = [], 1
    for i, row in enumerate(grid):
        tgt = tgts[i]
        for j, f in enumerate(row):
            if not f.terms:
                continue
            src = srcs[j]
            exp = f.terms[0][0]
            if sum(exp) != tgt.d - src.d:
                raise ValueError(f"degree bookkeeping error: a form of degree {sum(exp)} "
                                 f"maps degree {src.d} to {tgt.d}")
            if src.basis and tgt.basis:
                if len(exp) != len(src.basis[0]):
                    raise ValueError("variable-count mismatch between form and graded piece")
                fden, terms = f._mult_terms
                blocks.append((fden, terms, i, src._runs, coff[j]))
                den = lcm(den, fden)
    for fden, terms, i, runs, c0 in blocks:
        scale = den // fden
        rows = out[roff[i]:roff[i + 1]]     # a row past the target piece raises IndexError
        # distinct exponents of f give distinct products, so no entry is hit twice
        ks = range(2, len(tgts[i].basis[0]))
        try:
            for c, s1, shift in terms:
                c *= scale
                for hi, first, lasts in runs:
                    base = s1 + sum(map(comb, map(add, hi, shift), ks)) if hi else s1
                    for col, x in enumerate(lasts, c0 + first):
                        rows[base + x][col] = c
        except IndexError:
            raise ValueError("bookkeeping error: a product lies outside its target piece, "
                             "a prefix of its standard basis") from None
    return RatMatrix.make(roff[-1], coff[-1], out, den)


@cache
def restriction_matrix(d: int) -> RatMatrix:
    """H0(P2, O(d)) -> H0(L, O(d)) by u := 0 (monomials with positive
    u-exponent die); surjective for d >= 0, empty for d < 0."""
    src = basis(P2, d)
    tgt = basis(P1, d)
    out = [{} for _ in range(tgt.dim)]
    for col, (a, b, c) in enumerate(src.basis):
        if a == 0:
            out[c][col] = 1     # v^b w^c has rank c in the P1 basis
    return RatMatrix(tgt.dim, src.dim, tuple(out))


def euler_char_p2(d: int) -> int:
    """chi(O_{P2}(d)) = (d+1)(d+2)/2 as a polynomial in d."""
    return (d + 1) * (d + 2) // 2
