"""Matrix factorizations of the quadric q = xy in ambient coordinates.

A factorization is a pair of square form matrices with A B = B A = q I.
The distinguished example is the 4x4 linear matrix

        ( y  z  w  0 )
    N = ( 0 -x  0  w )
        ( 0  0 -x -z )
        ( 0  0  0  y )

with det N = (xy)^2, presenting a rank-2 Ulrich sheaf on X = {xy = 0};
its partner is the adjugate divided by xy.  Determinants and adjugates are
computed by exact cofactor expansion; divisibility only ever involves the
monomial powers of q = xy.  The Hilbert function of a cokernel is a count of
degrees: a linear matrix with nonzero determinant is injective on sections.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import QQ, RatMatrix, rank
from .monomials import Form
from .record import record

X4, Y4, Z4, W4 = (Form.variable(4, n) for n in ("x", "y", "z", "w"))
Q_DEFAULT = X4 * Y4
# Most term products (verify_cost) `qacm mf verify` may form for A B and B A
# together: the largest admitted pair runs in under 2 s.  The other two
# constants are costs in term products, measured as verify_cost describes.
MAX_VERIFY_TERM_PRODUCTS = 3_000_000
ENTRY_PRODUCT_COST = 7
DEN_WORD_COST = 5


def form_matrix(rows) -> tuple:
    """Normalize a nested sequence into a tuple-of-tuples of 4-variable forms."""
    out = []
    for row in rows:
        r = []
        for f in row:
            if isinstance(f, Form):
                if f.num_vars != 4 and not f.is_zero:
                    raise ValueError("matrix entries must be ambient forms")
                r.append(f if f.num_vars == 4 or not f.is_zero else Form.zero(4))
            elif isinstance(f, (int, Fraction)):
                r.append(Form.constant(4, f))
            else:
                raise ValueError("matrix entries must be forms or rationals")
        out.append(tuple(r))
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValueError("matrix must be square")
    return tuple(out)


def mat_mul(a, b):
    """A B over the nonzero entries, each entry of the product summed once, so
    that A B costs its term products however many zeros and distinct
    monomials the matrices hold."""
    nonzero = [[(j, g) for j, g in enumerate(row) if not g.is_zero] for row in b]
    out = []
    for row in a:
        sums = [[] for _ in row]
        for k, f in enumerate(row):
            if not f.is_zero:
                for j, g in nonzero[k]:
                    sums[j].append(f * g)
        out.append(tuple(Form.sum(4, s) for s in sums))
    return tuple(out)


def verify_cost(a, b) -> int:
    """The cost of forming A B and B A, in term products:
    - over k, the terms of column k of one matrix times the terms of row k of
      the other, a term counting 1 plus 1 per 1024 bits of its numerator and
      den, as one product of large ints costs about as much as that many
      products of small ones;
    - ENTRY_PRODUCT_COST per product of two nonzero entries;
    - DEN_WORD_COST per squared 1024-bit word of each entry's sum: its den can
      have as many bits as the dens of its products together, and bringing
      the sum to its canonical form costs about their square."""
    cost, n = 0, len(a)
    for x, y in ((a, b), (b, a)):
        for k in range(n):
            col, row = [_size(r[k]) for r in x], [_size(f) for f in y[k]]
            cost += (sum(col) * sum(row)
                     + ENTRY_PRODUCT_COST * sum(map(bool, col)) * sum(map(bool, row)))
        rows = [sum(f.den.bit_length() for f in r if f.den > 1) >> 10 for r in x]
        cols = [sum(r[j].den.bit_length() for r in y if r[j].den > 1) >> 10 for j in range(n)]
        cost += DEN_WORD_COST * sum((p + q) ** 2 for p in rows for q in cols)
    return cost


def _size(f: Form) -> int:
    """The terms of f, each counting 1 plus 1 per 1024 bits of its numerator
    and den."""
    return sum(1 + (abs(c).bit_length() + f.den.bit_length()) // 1024 for _, c in f.terms)


def scalar_matrix(q: Form, n: int):
    return tuple(tuple(q if i == j else Form.zero(4) for j in range(n)) for i in range(n))


def determinant(a) -> Form:
    """Cofactor expansion along the first column (matrices here are 4x4)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = Form.zero(4)
    for i in range(n):
        if a[i][0].is_zero:
            continue
        minor = tuple(tuple(a[r][c] for c in range(1, n)) for r in range(n) if r != i)
        term = a[i][0] * determinant(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


def adjugate(a):
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(tuple(a[r][c] for c in range(n) if c != j)
                          for r in range(n) if r != i)
            cof = determinant(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
    return tuple(tuple(r) for r in out)


def divide_by_monomial_power(f: Form, q: Form, power: int) -> Form:
    """Exact division of f by q^power where q^power is a single monomial
    (q = xy here); raises if not divisible."""
    qp = q ** power
    if len(qp.terms) != 1:
        raise ValueError("divisor must be a monomial power")
    (qexp, qc) = qp.terms[0]
    d = {}
    for e, c in f.terms:
        ne = tuple(a - b for a, b in zip(e, qexp))
        if any(x < 0 for x in ne):
            raise ValueError("no adjugate partner")
        d[ne] = c * qp.den
    return Form.from_ints(4, d, f.den * qc)


@record
class MFPair:
    a: tuple
    b: tuple
    q: Form

    @property
    def size(self) -> int:
        return len(self.a)


def verify_mf(pair: MFPair) -> bool:
    """A B = B A = q I as exact polynomial identities.  A pair whose two
    products need more than MAX_VERIFY_TERM_PRODUCTS term products is refused
    before any is formed."""
    cost = verify_cost(pair.a, pair.b)
    if cost > MAX_VERIFY_TERM_PRODUCTS:
        raise ValueError(f"the pair needs {cost} term products, over the mf verify limit "
                         f"MAX_VERIFY_TERM_PRODUCTS = {MAX_VERIFY_TERM_PRODUCTS}")
    n = pair.size
    target = scalar_matrix(pair.q, n)
    return mat_mul(pair.a, pair.b) == target and mat_mul(pair.b, pair.a) == target


def partner_from_adjugate(a, q: Form = Q_DEFAULT):
    """B = adj(A) / q^(n/2 - 1), so that A B = q I; requires det A = q^(n/2)."""
    a = form_matrix(a)
    n = len(a)
    if n % 2:
        raise ValueError("matrix size must be even")
    det = determinant(a)
    if det != q ** (n // 2):
        raise ValueError(f"det A must equal q^{n // 2}")
    adj = adjugate(a)
    b = tuple(tuple(divide_by_monomial_power(f, q, n // 2 - 1) for f in row) for row in adj)
    pair = MFPair(a, b, q)
    if not verify_mf(pair):
        raise ValueError("no adjugate partner")
    return b


def ulrich_example_matrix(component: int = 1):
    """The distinguished 4x4 linear presentation matrix; component 2 is the
    x <-> y swap (the two sheaves are exchanged by swapping the planes)."""
    x, y, z, w = X4, Y4, Z4, W4
    zero = Form.zero(4)
    n = form_matrix([
        [y, z, w, zero],
        [zero, -x, zero, w],
        [zero, zero, -x, -z],
        [zero, zero, zero, y],
    ])
    if component == 1:
        return n
    if component == 2:
        return tuple(tuple(Form.from_ints(4, {(e[1], e[0]) + e[2:]: c for e, c in f.terms}, f.den)
                           for f in row) for row in n)
    raise ValueError("component must be 1 or 2")


def is_linear_matrix(a) -> bool:
    return all(f.is_zero or f.degree == 1 for row in a for f in row)


def ulrich_linear_check(a, q: Form = Q_DEFAULT) -> bool:
    """All entries homogeneous linear and det A = q^(n/2)."""
    a = form_matrix(a)
    if not is_linear_matrix(a):
        return False
    n = len(a)
    if n % 2:
        return False
    return determinant(a) == q ** (n // 2)


def rank_at_point(a, point) -> int:
    """Exact rank of the evaluated matrix at a point of P3."""
    pt = [QQ(c) for c in point]
    if all(c == 0 for c in pt):
        raise ValueError("the zero tuple is not a point of P3")
    rows = [[f.evaluate(pt) for f in row] for row in a]
    return rank(RatMatrix.from_rows(rows))


SAMPLE_POINTS = (
    # 4 on L = {x = y = 0}
    ((0, 0, 1, 0), "L"),
    ((0, 0, 0, 1), "L"),
    ((0, 0, 1, 1), "L"),
    ((0, 0, 1, -1), "L"),
    # 2 on H1 \ L (x = 0, y != 0)
    ((0, 1, 0, 0), "H1"),
    ((0, 1, 1, 2), "H1"),
    # 2 on H2 \ L
    ((1, 0, 0, 0), "H2"),
    ((1, 0, 2, 1), "H2"),
    # 4 off X (xy != 0)
    ((1, 1, 0, 0), "off"),
    ((1, 1, 1, 1), "off"),
    ((1, 2, 3, 4), "off"),
    ((2, 1, 1, 0), "off"),
)


def cokernel_hilbert(a, t: int) -> int:
    """h0(coker(A)(t)) for a linear square matrix A: O(-1)^n -> O^n on P3 with
    det A != 0, counted from the degrees: n * C(t + 2, 2) for t >= 0, else 0.

    A nonzero determinant makes A injective on the polynomial ring, hence on
    H0 at every twist, and H1(O_P3(t - 1)) = 0, so
    h0(coker(A)(t)) = n * (h0(O_P3(t)) - h0(O_P3(t - 1))) (Eisenbud 1980,
    "Homological algebra on a complete intersection").  A singular matrix is
    not injective and is refused: the count would be wrong."""
    a = form_matrix(a)
    if not is_linear_matrix(a):
        raise ValueError("entries must be homogeneous linear")
    if determinant(a).is_zero:
        raise ValueError("det A is zero: the presentation is not injective")
    if t < 0:
        return 0
    return len(a) * (t + 1) * (t + 2) // 2
