"""Exact linear algebra over the rationals.

The package has one number representation: int numerators over one canonical
denominator, here for a matrix and in ``monomials.Form`` for a polynomial, from
the descriptor parser to the elimination.  ``fractions.Fraction`` appears only
where a rational comes in or goes out: the parser's literals, the printers and
a scalar that multiplies.  Here it enters only through ``as_ratio``, which
folds a rational into the ints.

A matrix is stored in one form from the moment it is built until it is
eliminated: sparse rows of Python ints over one common denominator.  Row i is
a dict ``{col: nonzero int}`` and entry (i, j) is ``data[i].get(j, 0) / den``;
the denominator is kept canonical (positive, coprime to the entries as a
whole), so equal matrices compare equal.  Most cohomology-level matrices here
are monomial maps with a handful of nonzeros per column, and builders write
this form directly.

Rank and kernel are computed in two stages on the stored rows, which are
never changed.  First a singleton peel (the first step of structured Gaussian
elimination): a row with one nonzero, at column j, forces coordinate j of
every kernel vector to zero, so j is a pivot column; j is dropped from every
row and the peel repeats until no singleton is left.  It pays on the binary
ideal pieces ``plane.line_hilbert`` ranks for the h1 check: there a restricted
relation form of a scan sheaf is often a monomial, one nonzero per column, so
an end row is reached by one product and each peeled column leaves a singleton
next to it.  Then fraction-free elimination of the remaining core (scaling rows
changes neither rank nor kernel), with unpivoted rows indexed by their leading
column.  Pivoting is deterministic: smallest unprocessed column, then the row
with the fewest nonzeros, then the smallest row index.

``kernel_basis`` returns the reduced-echelon basis: one primitive integer
vector per non-pivot column, with 1 there and 0 in the other non-pivot
columns, first nonzero positive.  That basis depends only on which columns
are pivots (column j is one exactly when it is not a combination of the
columns before it), and a peeled column always is one, so the peel changes
no basis, and identical inputs always produce identical bases.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .record import record

QQ = Fraction


def as_ratio(x) -> tuple:
    """(numerator, positive denominator) of a rational, an int or a Fraction."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected a rational (int or Fraction), got {type(x).__name__}")


@record
class RatMatrix:
    """Immutable sparse matrix of rationals: ``data`` is a tuple of row dicts
    ``{col: nonzero int}`` over the common denominator ``den``.  Build it with
    ``make`` (which reduces ``den``) or the static constructors.  Row dicts
    are never mutated once built, so elimination reads them in place."""

    rows: int
    cols: int
    data: tuple
    den: int = 1

    @staticmethod
    def make(rows: int, cols: int, data, den: int = 1) -> "RatMatrix":
        """Matrix from int row dicts over a positive ``den``, reduced to the
        canonical denominator."""
        if den != 1:
            g = gcd(den, *(v for r in data for v in r.values()))
            if g > 1:
                data = [{j: v // g for j, v in r.items()} for r in data]
                den //= g
        return RatMatrix(rows, cols, tuple(data), den)

    @staticmethod
    def from_dicts(rows: int, cols: int, data) -> "RatMatrix":
        """Matrix from row dicts ``{col: rational}``; zero values are dropped."""
        data = [{j: as_ratio(x) for j, x in r.items()} for r in data]
        den = lcm(*(d for r in data for _, d in r.values()))
        return RatMatrix.make(rows, cols, [{j: n * (den // d) for j, (n, d) in r.items() if n}
                                           for r in data], den)

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        rows = [dict(enumerate(row)) for row in rows]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix.from_dicts(len(rows), m, rows)

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        """Every row is the same empty dict, as rows are never mutated."""
        return RatMatrix(rows, cols, ({},) * rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den,
                     tuple(frozenset(r.items()) for r in self.data)))

    def transpose(self) -> "RatMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                out[j][i] = v
        return RatMatrix(self.cols, self.rows, tuple(out), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        odata = other.data
        out = []
        for r in self.data:
            acc = {}
            for j, a in r.items():
                for t, b in odata[j].items():
                    acc[t] = acc.get(t, 0) + a * b
            out.append({t: v for t, v in acc.items() if v})
        return RatMatrix.make(self.rows, other.cols, out, self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.data)


def _stack(mats, down: bool, right: bool) -> RatMatrix:
    """The matrices placed one after another, each moved down and/or right."""
    den = lcm(*(m.den for m in mats))
    out = [{} for _ in range(sum(m.rows for m in mats) if down else mats[0].rows)]
    r0 = c0 = 0
    for m in mats:
        f = den // m.den
        for i, r in enumerate(m.data, r0):
            if r:
                out[i].update(r if (c0, f) == (0, 1) else ((c0 + j, v * f) for j, v in r.items()))
        r0 += m.rows if down else 0
        c0 += m.cols if right else 0
    return RatMatrix.make(len(out), c0 if right else mats[0].cols, out, den)


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    if any(m.rows != mats[0].rows for m in mats):
        raise ValueError("hstack: row count mismatch")
    return _stack(mats, False, True)


def block_diag(*mats: RatMatrix) -> RatMatrix:
    return _stack(mats, True, True)


# ---------------------------------------------------------------------------
# sparse fraction-free elimination


def _strip(row: dict) -> dict:
    """A nonzero int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _peel(rows, cols: int):
    """Singleton peel ahead of the pivot loop.  A row with one nonzero, at
    column j, forces coordinate j of every kernel vector to zero, so j is a
    pivot column whatever the other rows hold: drop j from every row and repeat
    until no row is a singleton.  Returns the set of peeled columns and the
    remaining (core) rows without their peeled entries; rows that had none are
    passed on as they are, and no input row is changed.

    ``left[i]`` counts row i's entries in unpeeled columns and a work stack
    holds the rows whose count has fallen to 1.  A count only falls, so each
    row is a singleton once and the peel is linear in the nonzeros.  Once
    every column is peeled the core is empty, and the peel stops there.
    """
    stack = [i for i, r in enumerate(rows) if len(r) == 1]
    if not stack:
        return set(), rows
    left = list(map(len, rows))
    where = [[] for _ in range(cols)]
    for i, r in enumerate(rows):
        for j in r:
            where[j].append(i)
    peeled = set()
    while stack:
        i = stack.pop()
        if left[i] != 1:
            continue
        for j in rows[i]:
            if j not in peeled:
                break
        peeled.add(j)
        if len(peeled) == cols:
            return peeled, []
        for k in where[j]:
            left[k] -= 1
            if left[k] == 1:
                stack.append(k)
    core = [r if n == len(r) else {j: v for j, v in r.items() if j not in peeled}
            for r, n in zip(rows, left) if n]
    return peeled, core


def _eliminate(rows, cols: int):
    """Peel the singleton rows of the int row dicts ``rows`` (``_peel``), then
    run forward elimination (r := p*r - f*piv on each affected row) on the
    core; ``rows`` are left unchanged.  Returns the set of peeled columns and
    the core pivot list [(pivot_col, pivot_row_dict)] in increasing column
    order; both kinds of column are pivot columns.

    Invariant: rows still unpivoted have zero entries in every processed
    column, so the rows with a nonzero in the current column are exactly the
    unpivoted rows led by it; ``lead`` indexes them by leading column.  A
    column led by one row takes it as its pivot with nothing to eliminate.
    """
    peeled, rows = _peel(rows, cols)
    rows = list(rows)
    lead = {}
    for i, r in enumerate(rows):
        if r:
            lead.setdefault(min(r), []).append(i)
    pivots = []
    for col in range(cols):
        if not lead:
            break
        cand = lead.pop(col, None)
        if cand is None:
            continue
        if len(cand) == 1:
            pivots.append((col, rows[cand[0]]))
            continue
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        piv = rows[i0]
        p = piv[col]
        for i in cand:
            if i == i0:
                continue
            r = rows[i]
            f = r[col]
            new = dict(r) if p == 1 else {j: v * p for j, v in r.items()}
            for j, v in piv.items():
                w = new.get(j, 0) - f * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            if new:
                new = _strip(new)
                rows[i] = new
                lead.setdefault(min(new), []).append(i)
        pivots.append((col, piv))
    return peeled, pivots


def rank(m: RatMatrix) -> int:
    """Exact rank; deterministic.  A matrix with no rows or no columns has
    rank 0 and is not walked."""
    if not m.rows or not m.cols:
        return 0
    peeled, pivots = _eliminate(m.data, m.cols)
    return len(peeled) + len(pivots)


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Exact null space of ``m`` as its basis matrix: one row per coordinate,
    one column per kernel vector, cols = m.cols - rank and m @ basis = 0.

    Basis vectors are primitive integer vectors (first nonzero positive), one
    per free column in increasing column order.  Each is nonzero at its own
    free column and zero at every other, so the columns are independent.
    """
    peeled, pivots = _eliminate(m.data, m.cols)
    pivot_cols = [c for c, _ in pivots]
    pivot_set = peeled.union(pivot_cols)
    out = [{} for _ in range(m.cols)]
    j = 0
    for fcol in range(m.cols):
        if fcol in pivot_set:
            continue
        # back-substitute in integers: v is the kernel vector with v[fcol] = 1,
        # scaled to stay integral.  Only core pivots enter: peeled coordinates
        # are zero, and pivot rows at or after fcol cannot reach it
        v = {fcol: 1}
        for k in range(bisect_left(pivot_cols, fcol) - 1, -1, -1):
            col, prow = pivots[k]
            s = sum(a * v[c] for c, a in prow.items() if c in v)
            if s:
                p = prow[col]
                g = gcd(s, p)
                f = p // g
                if f != 1:
                    v = {i: x * f for i, x in v.items()}
                v[col] = -s // g
        g = gcd(*v.values())
        if v[min(v)] < 0:
            g = -g
        for i, x in v.items():
            out[i][j] = x // g
        j += 1
    return RatMatrix(m.cols, j, tuple(out))

