"""Plane-sheaf tests.  The brute-force oracle below computes h0/h1 of
collinear ideal sheaves from vanishing conditions at explicit points, with
its own elimination; it never touches the Koszul-presentation route that the
package uses, so the two are genuinely independent."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qacm.descriptor
import qacm.plane
from qacm.cli import main
from qacm.descriptor import build, parse
from qacm.errors import InternalCheckError
from qacm.linalg import rank
from qacm.monomials import (Form, P1, P2, basis, cohomology_dim, h0_exponents,
                            multiplication_matrix)
from qacm.plane import (CISubscheme, CohRow, DegreeData, ExtensionBundle, Presentation,
                        Trivialization, _ideal_piece_matrix, _is_syzygy_basis, _relation_matrix,
                        cb_condition_check, chern,
                        ci_from_forms, ci_from_line_points, ci_hilbert, coh_table, cohomology,
                        degree_table, euler_char, h2_kernel_dim,
                        ideals_match, make_ci_ideal, make_extension_bundle,
                        make_split_bundle, no_common_zero, recover_subscheme,
                        relation_h2_kernel, trivialize_on_line)
from qacm.quadric import acm_check, collinear_extension_kernel

u, v, w = (Form.variable(3, n) for n in "uvw")
QQ = Fraction


# ---------------------------------------------------------------------------
# the independent oracle


def relation_h0_matrix(sheaf, t: int):
    """H0-level matrix of the relation at twist t: H0(O(b+t)) -> sum H0(O(a_i+t)).
    A reference of the tests: ``src/`` reads h0 from the degrees, since the
    relation is a nonzero column and so injective on H0."""
    return _relation_matrix(P2, 0, sheaf.presentation, t)


def h1_restriction_kernel_dim(sheaf, t: int, below) -> int:
    """dim ker(H1(F(t)) -> H1(F|_L(t))) = dim of the image of multiplication
    by u: H1(F(t-1)) -> H1(F(t)), on ``below``, the H2-level kernel at t - 1.
    It is 0 without a relation, and at depth 1, where u contracts every dual
    monomial of u-exponent -1, the only ones a kernel vector holds; ``below``
    is not read then and may be None.  A reference of the tests (the u-rank
    route): ``src/`` counts this kernel from the degrees."""
    b = sheaf.presentation.relation_twist
    if b is None or sheaf.h2_depth or not below.cols:
        return 0
    u_mult = multiplication_matrix([[u]], [basis(P2, 2, b + t - 1)], [basis(P2, 2, b + t)])
    return rank(u_mult @ below)


def _oracle_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def oracle_h0_collinear(points, d):
    """h0(I_Z(d)) by point conditions: evaluation rows for reduced points,
    derivative rows along L for multiplicities, in v at w = w0, or in w at
    v = v0 for the point [0 : 1 : 0]."""
    if d < 0:
        return 0
    mons = h0_exponents(3, d)
    rows = []
    for (v0, w0), mult in points:
        for j in range(mult):
            row = []
            for (a, b, c) in mons:
                x, y, x0, y0 = (b, c, v0, w0) if w0 != 0 else (c, b, w0, v0)
                if a != 0 or x < j:
                    row.append(QQ(0))
                    continue
                coef = QQ(1)
                for s in range(j):
                    coef *= x - s
                row.append(coef * QQ(x0) ** (x - j) * QQ(y0) ** y)
            rows.append(row)
    return len(mons) - _oracle_rank(rows)


# distinct points [0 : v : w] of L, [0 : 1 : 0] among them
_LINE_POINTS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 3)]


def oracle_h1_collinear(points, d):
    """h1 from chi: chi(I_Z(d)) = chi(O(d)) - z, and h2 = 0 for d >= -1."""
    z = sum(m for _, m in points)
    chi = (d + 1) * (d + 2) // 2 - z
    return oracle_h0_collinear(points, d) - chi


# ---------------------------------------------------------------------------
# complete intersections


def test_ci_rejects_common_factor():
    with pytest.raises(ValueError, match="zero-dimensional"):
        ci_from_forms(u, u * v)


def test_ci_rejects_constants():
    with pytest.raises(ValueError):
        ci_from_forms(Form.constant(3, 1), v)


def test_ci_degree():
    assert ci_from_forms(u, v * w).degree == 2
    assert ci_from_forms(v, w).degree == 1


def test_ci_from_points_builds_binary_form():
    ci = ci_from_line_points([((1, 3), 1), ((1, 5), 1)])
    assert ci.is_collinear()
    assert ci.degree == 2
    assert ci.f2.evaluate((0, 1, 3)) == 0 and ci.f2.evaluate((0, 1, 5)) == 0


def test_ci_from_points_rejects_duplicates():
    with pytest.raises(ValueError):
        ci_from_line_points([((1, 3), 1), ((2, 6), 1)])


# ---------------------------------------------------------------------------
# ideal sheaf cohomology vs the oracle


def test_collinear_double_point():
    s = make_ci_ideal(u, v * v, 0)
    assert cohomology(s, 0, 1) == 1
    assert cohomology(s, 0, 1) == oracle_h0_collinear([((0, 1), 2)], 1)


def test_two_collinear_points():
    s = make_ci_ideal(u, v * w, 2)
    assert cohomology(s, 0, 0) == 4
    assert cohomology(s, 1, -2) == 1   # h1(I_Z(0)) = z - d - 1 = 1


def test_single_point_pencil():
    s = make_ci_ideal(v, w, 1)
    assert cohomology(s, 0, 0) == 2


@pytest.mark.parametrize("z", range(1, 7))
def test_oracle_equivalence_reduced_collinear(z):
    """h0 and h1 of I_Z(d) for z distinct rational points on L match the
    point-condition oracle exactly, for every d in [-1, 10]."""
    pts = [((1, 2 * i + 1), 1) for i in range(z)]
    ci = ci_from_line_points(pts)
    sheaf = make_ci_ideal(ci.f1, ci.f2, 0, points=ci.points)
    for d in range(-1, 11):
        assert cohomology(sheaf, 0, d) == oracle_h0_collinear(pts, d), (z, d)
        assert cohomology(sheaf, 1, d) == oracle_h1_collinear(pts, d), (z, d)


@pytest.mark.parametrize("z", range(1, 7))
def test_collinear_h1_closed_form(z):
    pts = [((1, i + 1), 1) for i in range(z)]
    ci = ci_from_line_points(pts)
    sheaf = make_ci_ideal(ci.f1, ci.f2, 0, points=ci.points)
    for d in range(-1, 11):
        assert cohomology(sheaf, 1, d) == max(0, z - d - 1)


def test_oracle_equivalence_non_reduced():
    """Non-reduced collinear Z via derivative conditions, also at [0 : 1 : 0],
    where the oracle differentiates in w."""
    for pts in ([((1, 2), 2), ((1, 5), 1)], [((1, 0), 2), ((1, 1), 1)], [((1, 0), 3)]):
        ci = ci_from_line_points(pts)
        sheaf = make_ci_ideal(ci.f1, ci.f2, 0, points=ci.points)
        for d in range(-1, 9):
            assert cohomology(sheaf, 0, d) == oracle_h0_collinear(pts, d), (pts, d)
            assert cohomology(sheaf, 1, d) == oracle_h1_collinear(pts, d), (pts, d)


def test_chi_table_consistency():
    s = make_ci_ideal(u, v * w, 2)
    table = coh_table(s, -4, 4)
    for row in table.rows:
        assert row.chi == euler_char(s, row.t)


# ---------------------------------------------------------------------------
# extension bundles


def test_extension_degree_constraint():
    with pytest.raises(ValueError, match="c - k"):
        make_extension_bundle(1, 2, ci_from_forms(u, v))


def test_extension_euler_type():
    g = make_extension_bundle(1, 0, ci_from_forms(v, w), h="auto")
    assert g.h == u
    assert cohomology(g, 0, 0) == 3
    # tangent-type bundle: twisting by -2 gives the cotangent bundle, h1 = 1
    assert cohomology(g, 1, -2) == 1
    assert all(cohomology(g, 1, t) == 0 for t in range(-6, 4) if t != -2)


def test_extension_h0_of_negative_k_twist():
    g = make_extension_bundle(2, 1, ci_from_forms(u, v), h="auto")
    assert cohomology(g, 0, -1) == 1


def test_extension_cb_violation_rejected():
    ci = ci_from_line_points([((1, 1), 1), ((1, 2), 1)])
    with pytest.raises(ValueError, match="Cayley-Bacharach"):
        make_extension_bundle(2, 0, ci, h=w - v)   # vanishes at [0:1:1]


def test_an_auto_extension_class_is_tested_for_common_zeros_once(monkeypatch, capsys):
    """make_extension_bundle tests a given h for a common zero with Z, but not
    the h that ``_auto_extension_form`` has just accepted by that test: on a
    ``classify --cmax 8`` scan every call is made by the search."""
    calls, searching = [], []
    real_test, real_search = qacm.plane.no_common_zero, qacm.plane._auto_extension_form

    def counted(forms):
        calls.append(bool(searching))
        return real_test(forms)

    def search(*args):
        searching.append(1)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(qacm.plane, "no_common_zero", counted)
    monkeypatch.setattr(qacm.plane, "_auto_extension_form", search)
    assert main(["classify", "--cmax", "8", "--seed", "0", "--no-timestamp"]) == 0
    assert calls == [True] * 25
    calls.clear()
    code = main(["cohomology", "--sheaf", "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=[u,v*w],h=v^2)@H2,e=id)",
                 "--tmin", "0", "--tmax", "0", "--no-timestamp"])
    assert code == 2 and "Cayley-Bacharach" in capsys.readouterr().err
    assert calls == [False]


@pytest.mark.parametrize("h", ["auto", "u^2"])
def test_a_built_extension_bundle_is_not_tested_for_common_zeros_again(monkeypatch, capsys, h):
    """make_extension_bundle hands its common-zero answer to the bundle: a
    ``u``-free G is tested while it is built (by the search or for the given h)
    and never after, though its table reads ``relation_common_zero_free``.  The
    bundle still equals, and hashes as, one built from its fields."""
    calls, built = [], []
    real_test, real_make = qacm.plane.no_common_zero, qacm.plane.make_extension_bundle

    def counted(forms):
        calls.append(bool(built))
        return real_test(forms)

    def make(*args, **kwargs):
        g = real_make(*args, **kwargs)
        built.append(g)
        return g

    monkeypatch.setattr(qacm.plane, "no_common_zero", counted)
    monkeypatch.setattr(qacm.descriptor, "make_extension_bundle", make)
    assert main(["cohomology", "--sheaf", f"G(c=4,k=1,Z=[v,w^3],h={h})@H2",
                 "--tmin", "-6", "--tmax", "2", "--no-timestamp"]) == 0
    assert calls and not any(calls)
    (g,) = built
    assert g.relation_common_zero_free
    fresh = ExtensionBundle(g.side, g.c, g.k, g.ci, g.h)
    assert g == fresh and hash(g) == hash(fresh)
    assert json.loads(capsys.readouterr().out)["rows"]


def test_extension_wrong_h_degree_rejected():
    ci = ci_from_line_points([((1, 1), 1), ((1, 2), 1)])
    with pytest.raises(ValueError, match="degree"):
        make_extension_bundle(2, 0, ci, h=v * v)   # class must have degree k+1 = 1


def test_extension_h0_additivity():
    """h0(G(t)) = h0(O(k+t)) + h0(I_Z(c-k+t)) for t >= -k."""
    ci = ci_from_forms(u, v * w)
    g = make_extension_bundle(3, 1, ci, h="auto")
    ideal = make_ci_ideal(u, v * w, 2)
    for t in range(-1, 6):
        assert cohomology(g, 0, t) == cohomology_dim(P2, 0, 1 + t) + cohomology(ideal, 0, t)


@pytest.mark.parametrize("text", [
    "O(2)+O(-1)@H1", "I([v,w^3])(0)@H2", "I([u+v,w^2])(1)@H1", "G(c=4,k=1,Z=[v,w^3],h=auto)@H2",
    "G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2", "G(c=2,k=1,Z=[u+v,w],h=auto)@H1"])
def test_h0_from_degrees_equals_the_rank_of_the_relation_on_h0(text):
    """h0 read from the degrees is the cokernel of the relation on H0, built
    and ranked by the reference above, at every twist from below the first
    section to well past it."""
    sheaf = build(parse(text))
    for t in range(-8, 9):
        sections = sum(cohomology_dim(P2, 0, a + t) for a in sheaf.presentation.target_twists)
        assert cohomology(sheaf, 0, t) == sections - rank(relation_h0_matrix(sheaf, t))


@pytest.mark.parametrize("forms", [
    (u, v, w), (v, w ** 3), (u, v * v - w * w, v * w + u * u), (u + v, w * w, u ** 3 - v ** 3),
    (v, w, Form.constant(3, 2))])
def test_ci_hilbert_is_the_dimension_of_the_quotient(forms):
    """The Hilbert function from the degrees equals dim S_n less the rank of
    the ideal's degree-n piece, for regular sequences of two and three forms
    (a unit form makes the quotient zero)."""
    for n in range(-2, 9):
        ideal = [f for f in forms if f.degree <= n]
        quotient = cohomology_dim(P2, 0, n) - (rank(_ideal_piece_matrix(ideal, n)) if ideal else 0)
        assert ci_hilbert([f.degree for f in forms], n) == quotient


def test_extension_chi_additivity():
    ci = ci_from_forms(u, v * w)
    g = make_extension_bundle(3, 1, ci, h="auto")
    ideal = make_ci_ideal(u, v * w, 2)
    for t in range(-9, 7):
        assert euler_char(g, t) == (t + 2) * (t + 3) // 2 + euler_char(ideal, t)


@pytest.mark.parametrize("c,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_extension_serre_duality(c, k):
    pts = [((1, i + 1), 1) for i in range(c - k)]
    g = make_extension_bundle(c, k, ci_from_line_points(pts), h="auto")
    for t in range(-c - 8, 6):
        assert cohomology(g, 1, t) == cohomology(g, 1, -c - 3 - t)


# ---------------------------------------------------------------------------
# Cayley-Bacharach checks


def test_cb_examples_in_range():
    ci2 = ci_from_line_points([((1, 1), 1), ((1, 2), 1)])
    assert cb_condition_check(3, 1, ci2)
    assert cb_condition_check(2, 0, ci2)


@pytest.mark.parametrize("c,k", [(c, k) for c in range(1, 7) for k in range(c)
                                 if c <= 2 * k + 2])
def test_cb_holds_in_whole_range(c, k):
    pts = [((1, i + 1), 1) for i in range(c - k)]
    assert cb_condition_check(c, k, ci_from_line_points(pts))


def test_cb_fails_out_of_range():
    ci5 = ci_from_line_points([((1, i), 1) for i in range(1, 6)])
    assert not cb_condition_check(6, 1, ci5)


def test_cb_fails_for_one_simple_point():
    """Dropping the only point leaves Z' empty, and h0(O(d)) >= 1 once d >= 0."""
    point = ci_from_line_points([((1, 1), 1)])
    assert cb_condition_check(2, 0, point)                  # d = -1
    for d in range(5):
        assert not cb_condition_check(d + 3, 0, point)


@given(st.lists(st.tuples(st.sampled_from(_LINE_POINTS), st.integers(1, 3)), min_size=1,
                max_size=4, unique_by=lambda p: p[0]), st.integers(-1, 7))
@settings(max_examples=60, deadline=None)
def test_cb_check_agrees_with_the_point_condition_oracle(pts, d):
    """Cayley-Bacharach as a count of degrees against the oracle's h0 from
    vanishing conditions, for every colength-1 Z' of a collinear Z."""
    assert cb_condition_check(d + 3, 0, ci_from_line_points(pts)) == _oracle_cb(pts, d)


def _oracle_cb(pts, d) -> bool:
    """h0(I_{Z'}(d)) = 0 by the oracle for every colength-1 Z' of the points."""
    subs = [[(p, m - (i == drop)) for i, (p, m) in enumerate(pts) if m - (i == drop)]
            for drop in range(len(pts))]
    return all(oracle_h0_collinear(sub, d) == 0 for sub in subs)


@pytest.mark.parametrize("pts", [[((1, 1), 1)], [((0, 1), 2)], [((1, 1), 1), ((1, 2), 1)],
                                 [((1, 0), 1), ((1, 3), 2)]])
@pytest.mark.parametrize("d", [0, 1])
def test_cb_check_of_a_collinear_z_given_as_forms(pts, d):
    """A collinear Z given as forms, with no point data, is checked as well: it
    holds at d = 0 exactly when deg Z >= 2, and never at d = 1, as the oracle
    finds for its points."""
    ci = ci_from_line_points(pts)
    forms = ci_from_forms(ci.f1, ci.f2)
    assert forms.points is None
    expected = d == 0 and ci.degree >= 2
    assert _oracle_cb(pts, d) == expected
    assert cb_condition_check(d + 3, 0, forms) == expected


# ---------------------------------------------------------------------------
# chern classes


def test_chern_split():
    assert chern(make_split_bundle(1, (3, 0))) == (3, 0)


def test_chern_extension():
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto")
    assert chern(g) == (3, 4)
    e = make_extension_bundle(1, 0, ci_from_forms(v, w), h="auto")
    assert chern(e) == (1, 1)


def test_chern_needs_rank_two():
    with pytest.raises(ValueError):
        chern(make_split_bundle(1, (1, 0, 0)))
    with pytest.raises(ValueError):
        chern(make_ci_ideal(v, w, 0))


# ---------------------------------------------------------------------------
# local freeness: the collinear gcd shortcut against the rank route


@st.composite
def _plane_form(draw, d):
    """A plane form of degree d with small integer coefficients (may be zero)."""
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=cohomology_dim(P2, 0, d),
                           max_size=cohomology_dim(P2, 0, d)))
    return Form.from_dict(3, dict(zip(h0_exponents(3, d), coeffs)))


@st.composite
def _collinear_case(draw):
    """A collinear Z = V(u, g) on L and a candidate extension class h: random,
    a multiple of u, a multiple of a linear factor of g, or a mix of these."""
    pts = draw(st.lists(st.sampled_from(_LINE_POINTS), min_size=1, max_size=3, unique=True))
    mults = draw(st.lists(st.integers(1, 2), min_size=len(pts), max_size=len(pts)))
    ci = ci_from_line_points(list(zip(pts, mults)))
    d = draw(st.integers(0, 3))
    h = draw(_plane_form(d))
    if d >= 1:
        if draw(st.booleans()):
            h = h + u * draw(_plane_form(d - 1))
        if draw(st.booleans()):
            pv, pw = draw(st.sampled_from(pts))
            factor = pw * v - pv * w             # vanishes at [0 : pv : pw] in Z
            h = draw(st.sampled_from([Form.zero(3), h])) + factor * draw(_plane_form(d - 1))
    return ci, h


@settings(max_examples=150, deadline=None)
@given(_collinear_case())
@example((ci_from_line_points([((1, 0), 2)]), w * w))          # shares the root [0:1:0]
@example((ci_from_line_points([((1, 0), 1), ((1, 2), 1)]), u * v))  # a multiple of u
@example((ci_from_line_points([((0, 1), 1)]), Form.constant(3, 3)))
def test_collinear_gcd_shortcut_agrees_with_rank_route(case):
    """With u among the forms, no_common_zero decides on L by a gcd; the rank
    route, taken directly, must agree: three forms have no common zero exactly
    when the degree-d piece of their ideal is everything at d = sum(deg) - 2."""
    ci, h = case
    assert ci.f1 == u
    forms = [f for f in (ci.f1, ci.f2, h) if not f.is_zero]
    d = sum(f.degree for f in forms) - 2
    assert no_common_zero([ci.f1, ci.f2, h]) == \
        (rank(_ideal_piece_matrix(forms, d)) == cohomology_dim(P2, 0, d))


def _without_u(f):
    return Form.from_dict(3, {e: QQ(c, f.den) for e, c in f.terms if e[0] == 0})


@st.composite
def _gate_pair(draw):
    """Two plane forms for ci_from_forms: both without u, or drawn on the whole
    plane; then as drawn, with a common factor (a linear form, without u for a
    u-free pair), or with f2 = m * f1 + u * h, which shares f1's roots on L."""
    u_free = draw(st.booleans())
    drawn = [draw(_plane_form(d)) for d in (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]
    f1, f2 = [_without_u(f) for f in drawn] if u_free else drawn
    assume(not f1.is_zero and not f2.is_zero)
    kind = draw(st.sampled_from(["drawn", "common factor", "shared on L"]))
    if kind == "common factor":
        factor = draw(_plane_form(1))
        factor = _without_u(factor) if u_free else factor
        f1, f2 = factor * f1, factor * f2
    elif kind == "shared on L" and not u_free and f1.degree <= f2.degree:
        f2 = draw(_plane_form(f2.degree - f1.degree)) * f1 + u * draw(_plane_form(f2.degree - 1))
    assume(not f1.is_zero and not f2.is_zero)
    return f1, f2


def _two_rank_regular(f1, f2) -> bool:
    """(f1, f2) is a regular sequence exactly when the degree-d piece of its ideal
    has codimension d1 * d2 at d = d1 + d2 - 1 and d1 + d2."""
    d1, d2 = f1.degree, f2.degree
    return all(rank(_ideal_piece_matrix((f1, f2), d)) == cohomology_dim(P2, 0, d) - d1 * d2
               for d in (d1 + d2 - 1, d1 + d2))


@settings(max_examples=150, deadline=None)
@given(_gate_pair())
@example((v * w, v * v))                      # no u, a common factor
@example((v, v + u))                          # u in one form, one root on L shared
@example((v * (v + w), (v + w) * (w + u)))    # a common factor with u in one form
def test_ci_gate_on_l_agrees_with_the_two_ranks(pair):
    """ci_from_forms decides a pair coprime on L, and a pair without u that is
    not, with no rank; its verdict must equal the two-rank test's."""
    f1, f2 = pair
    try:
        ci_from_forms(f1, f2)
        regular = True
    except ValueError as exc:
        assert "Z not zero-dimensional" in str(exc)
        regular = False
    assert regular == _two_rank_regular(f1, f2)


@pytest.mark.parametrize("others", [[], [u * v], [Form.zero(3), u * w * w]])
def test_forms_vanishing_on_line_have_common_zero(others):
    """Forms that all vanish on L: every restriction is zero, so the gcd is
    zero and the shortcut must answer False, as the rank route does."""
    assert not no_common_zero([u] + others)
    assert not no_common_zero([2 * u] + others)


def test_single_nonconstant_form_has_zeros():
    assert not no_common_zero([v + w, Form.zero(3)])
    assert not no_common_zero([v * w])
    assert no_common_zero([Form.constant(3, 2), v])


# ---------------------------------------------------------------------------
# a nonzero multiple of u is the (u, g) case, in either order

_U_MULTIPLES = pytest.mark.parametrize("c, swap", [
    pytest.param(c, swap, id=f"{c}*u-{'second' if swap else 'first'}")
    for c in (-1, 2, QQ(1, 3)) for swap in (False, True)])
G6 = v ** 6 + w ** 6


def _pair(c, g, swap):
    return (g, c * u) if swap else (c * u, g)


@pytest.fixture
def ranks(monkeypatch):
    """The matrices whose rank plane.py takes, by column count."""
    calls = []
    monkeypatch.setattr(qacm.plane, "rank", lambda m: calls.append(m.cols) or rank(m))
    return calls


@_U_MULTIPLES
def test_ci_from_forms_takes_no_rank_for_a_multiple_of_u(ranks, c, swap):
    assert ci_from_forms(*_pair(c, G6, swap)) == CISubscheme(*_pair(c, G6, swap))
    with pytest.raises(ValueError, match="Z not zero-dimensional"):
        ci_from_forms(*_pair(c, u * v, swap))
    assert ranks == []


@_U_MULTIPLES
def test_no_common_zero_decides_a_multiple_of_u_on_l(ranks, c, swap):
    """h = v^2 is coprime to g on L, v^2 + w^2 divides g."""
    for h, free in ((v * v, True), (v * v + w * w, False)):
        assert no_common_zero(_pair(c, G6, swap) + (h,)) == free
        assert no_common_zero(_pair(1, G6, swap) + (h,)) == free
    assert ranks == []


@_U_MULTIPLES
def test_a_multiple_of_u_and_a_binary_form_are_collinear(c, swap):
    ci, ref = ci_from_forms(*_pair(c, G6, swap)), ci_from_forms(*_pair(1, G6, swap))
    assert ci.is_collinear() and ref.is_collinear()
    assert not ci_from_forms(*_pair(c, G6 + u * v ** 5, swap)).is_collinear()
    assert cb_condition_check(10, 4, ci) == cb_condition_check(10, 4, ref) is True


@_U_MULTIPLES
def test_the_auto_class_of_a_multiple_of_u_is_that_of_u(ranks, c, swap):
    ref = make_extension_bundle(10, 4, ci_from_forms(*_pair(1, G6, swap)), h="auto")
    g = make_extension_bundle(10, 4, ci_from_forms(*_pair(c, G6, swap)), h="auto")
    assert g.h == ref.h and g.h.degree == 5
    assert ranks == []


@_U_MULTIPLES
def test_h2_depth_of_a_multiple_of_u_is_one(c, swap):
    ci = ci_from_forms(*_pair(c, G6, swap))
    assert make_ci_ideal(ci.f1, ci.f2, 0).h2_depth == 1
    assert make_extension_bundle(10, 4, ci, h="auto").h2_depth == 1


@_U_MULTIPLES
def test_cohomology_of_a_multiple_of_u_prints_the_rows_of_u(capsys, c, swap):
    def rows(c):
        f1, f2 = _pair(c, v ** 700, swap)
        assert main(["cohomology", "--sheaf", f"I([{f1},{f2}])(0)@H2",
                     "--tmin", "-4", "--tmax", "4", "--no-timestamp"]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    assert rows(c) == rows(1)


# ---------------------------------------------------------------------------
# restriction to L and trivialization


def test_trivialize_collinear_extension():
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto")
    assert trivialize_on_line(g).degrees == (3, 0)


def test_trivialize_euler():
    g = make_extension_bundle(1, 0, ci_from_forms(v, w), h="auto")
    assert trivialize_on_line(g).degrees == (1, 0)


V2 = Form.variable(2, "v")
TRIV_G = "G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2"
# all three restricted forms nonzero, so split by a mu-basis; it restricts to
# O_L(3) + O_L(2): its kernel sheaf below exits 2 on mismatched types, but
# only after G is trivialized
MU_G = "G(c=5,k=2,Z=[v,w^3],h=u^3+u*w^2+v^3)@H2"


def koszul_row_scaled_by_v(real):
    def wrong(pres):
        degrees, (hi, lo) = real(pres)
        return degrees, (tuple(f * V2 for f in hi), lo)
    return wrong


def mu_basis_hi_a_multiple_of_lo(real):
    def wrong(sheaf):
        degrees, (hi, lo) = real(sheaf)
        return degrees, (tuple(f * V2 for f in lo), lo)
    return wrong


@pytest.mark.parametrize("g_text, split, name, wrong", [
    # mu-basis, c1 = 3 > c2 = 2: a syzygy of degree c1 that is a multiple of lo, in place of hi
    (MU_G, "O(1)+O(0)", "_mu_basis_rows", mu_basis_hi_a_multiple_of_lo),
    # closed form, collinear Z: the Koszul row (hi, of degree 3) scaled by v
    (TRIV_G, "O(3)+O(0)", "_koszul_rows", koszul_row_scaled_by_v),
], ids=["hi-a-multiple-of-lo", "row-scaled-by-v"])
def test_trivialization_check_fails_on_a_wrong_syzygy_row(monkeypatch, capsys, g_text, split,
                                                          name, wrong):
    """trivialize_on_line checks that the 2x2 minors of its rows (hi, lo) are one
    nonzero constant times the restricted relation, i.e. that the rows are a
    basis of its syzygies.  A wrong row must be refused in both branches, the
    mu-basis and the closed form: by trivialize_on_line, and by
    ``qacm cohomology`` with exit 3."""
    g = build(parse(g_text))
    calls, perturbed = [], wrong(getattr(qacm.plane, name))
    monkeypatch.setattr(qacm.plane, name, lambda *args: calls.append(name) or perturbed(*args))
    with pytest.raises(InternalCheckError, match="not a basis of the syzygies"):
        trivialize_on_line(g)
    assert calls == [name]
    code = main(["cohomology", "--sheaf", f"K(F1={split}@H1,F2={g_text},e=id)",
                 "--tmin", "0", "--tmax", "0", "--no-timestamp"])
    assert code == 3 and "not a basis of the syzygies" in capsys.readouterr().err


def test_mu_basis_hi_is_scaled_to_an_int_lambda():
    """hi is the first syzygy of degree c1 whose cross product with lo is
    lambda * (p_i), lambda != 0, times the denominator of lambda.  Here the
    primitive row (v, -w, 0) has lambda = 1/2 against (2w, 2v, 2v + 2w), so hi
    is (2v, -2w, 0) and (hi, lambda) is a primitive int vector."""
    g = build(parse("G(c=1,k=0,Z=[u + 2*v,u - 2*w],h=-3*u + 2*v + 2*w)@H2"))
    w2, one, zero = Form.variable(2, "w"), Form.constant(2, 1), Form.zero(2)
    assert g.line_presentation.relation == (2 * w2, 2 * V2, 2 * V2 + 2 * w2)
    assert trivialize_on_line(g) == Trivialization((1, 0), ((2 * V2, -2 * w2, zero),
                                                            (one, one, -one)))


def test_syzygy_check_reads_each_coefficient_over_its_den():
    """hi x lo = lambda (p_i) with lambda = -1/2, the minors and the relation
    holding their coefficients over different denominators (4 and 2 at v): the
    ratio lambda is read from both numerators, each over its own den."""
    v2, w2, zero = Form.variable(2, "v"), Form.variable(2, "w"), Form.zero(2)
    p = (v2 * QQ(1, 2), w2 * QQ(1, 3), zero)
    hi, lo = (p[1], -p[0], zero), (zero, zero, Form.constant(2, QQ(1, 2)))
    assert _is_syzygy_basis(hi, lo, p)
    assert not _is_syzygy_basis((p[1], p[0], zero), lo, p)
    assert not _is_syzygy_basis(hi, (zero,) * 3, p)


def test_trivialize_split_needs_normalization():
    assert trivialize_on_line(make_split_bundle(1, (5, 2))).degrees == (5, 2)


def test_a_split_bundle_builds_no_relation_basis(monkeypatch):
    """Without a relation the H0-level matrix has no columns and one row per
    section of the summands, counted without building a basis."""
    built = []
    real = qacm.plane.basis
    monkeypatch.setattr(qacm.plane, "basis", lambda *key: built.append(key) or real(*key))
    m = relation_h0_matrix(make_split_bundle(1, (3000, 0)), 0)
    assert built == [] and (m.rows, m.cols) == (cohomology_dim(P2, 0, 3000) + 1, 0)


def test_each_presentation_is_built_once(monkeypatch):
    """The presentation of a plane sheaf and its restriction to L are built
    once per sheaf instance, however many routes read them."""
    built, restricted = [], []
    build, on_line = ExtensionBundle._presentation, Presentation.on_line

    def counting_build(self):
        built.append(self)
        return build(self)

    def counting_on_line(self):
        restricted.append(self)
        return on_line(self)

    monkeypatch.setattr(ExtensionBundle, "_presentation", counting_build)
    monkeypatch.setattr(Presentation, "on_line", counting_on_line)
    k = collinear_extension_kernel(3, 1, [((1, 1), 1), ((1, 2), 1)])
    g = k.other
    trivialize_on_line(g)
    coh_table(g, -6, 2)
    acm_check(k)
    assert len(built) == 1 and built[0] is g
    assert sum(p is g.presentation for p in restricted) == 1
    # the list keeps every presentation alive, so distinct ids are distinct objects
    assert len({id(p) for p in restricted}) == len(restricted)


def test_trivialize_rejects_rank_one():
    with pytest.raises(ValueError):
        trivialize_on_line(make_ci_ideal(v, w, 0))


@pytest.mark.parametrize("t", range(-8, 5))
def test_h1_restriction_kernel_vanishes_for_collinear_extension(t):
    """The H1-level restriction of the non-split side is injective at every
    twist; this is what makes the induced kernel sheaves aCM."""
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto")
    assert h1_restriction_kernel_dim(g, t, relation_h2_kernel(g, t - 1)) == 0


def test_h1_restriction_kernel_builds_nothing_at_depth_one(monkeypatch):
    """A relation form c*u puts every H2 kernel vector on u-exponent -1, which
    u contracts to zero: the u-rank route is 0 with no matrix built, even where
    the kernel it is handed is not zero."""
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto")
    below = {t: relation_h2_kernel(g, t - 1) for t in range(-12, 5)}
    assert g.h2_depth == 1 and below[-3].cols > 0

    def forbidden(*args, **kwargs):
        raise AssertionError("matrix built or eliminated on the depth-1 u-rank route")

    for name in ("multiplication_matrix", "rank"):
        monkeypatch.setattr(sys.modules[__name__], name, forbidden)
    for t in range(-12, 5):
        assert h1_restriction_kernel_dim(g, t, below[t]) == 0


def test_h1_restriction_kernel_trivial_when_h1_vanishes():
    g = make_extension_bundle(2, 1, ci_from_forms(u, v), h="auto")
    assert h1_restriction_kernel_dim(g, 3, relation_h2_kernel(g, 2)) == 0


# ---------------------------------------------------------------------------
# recovering the subscheme


def test_recover_point_on_line():
    g = make_extension_bundle(2, 1, ci_from_forms(u, v), h="auto")
    rec = recover_subscheme(g)
    assert ideals_match(rec, ci_from_forms(u, v), 2)


def test_recover_requires_unique_section():
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto")
    with pytest.raises(ValueError, match="section not unique"):
        recover_subscheme(g)


def test_recover_degree_two_piece():
    g = make_extension_bundle(4, 2, ci_from_forms(u, v * w), h="auto")
    rec = recover_subscheme(g)
    assert ideals_match(rec, ci_from_forms(u, v * w), 4)


def test_recover_distinct_z_gives_distinct_ideals():
    g1 = make_extension_bundle(4, 2, ci_from_line_points([((1, 1), 1), ((1, 2), 1)]), h="auto")
    g2 = make_extension_bundle(4, 2, ci_from_line_points([((1, 3), 1), ((1, 4), 1)]), h="auto")
    assert not ideals_match(recover_subscheme(g1), recover_subscheme(g2), 4)


def reference_ideals_match(a: CISubscheme, b: CISubscheme, up_to: int) -> bool:
    """Degree by degree: the pieces I_d and J_d agree iff rank I_d = rank J_d =
    rank (I_d + J_d)."""
    for d in range(0, up_to + 1):
        ra, rb = rank(_ideal_piece_matrix((a.f1, a.f2), d)), rank(_ideal_piece_matrix((b.f1, b.f2), d))
        if ra != rb or rank(_ideal_piece_matrix((a.f1, a.f2, b.f1, b.f2), d)) != ra:
            return False
    return True


@st.composite
def _complete_intersection(draw):
    """Z = V(f1, f2): collinear from points on L, or two random plane forms."""
    if draw(st.booleans()):
        pts = draw(st.lists(st.sampled_from(_LINE_POINTS), min_size=1, max_size=3, unique=True))
        return ci_from_line_points([(p, draw(st.integers(1, 2))) for p in pts])
    d1 = draw(st.integers(1, 2))
    return _drawn_ci(draw(_plane_form(d1)), draw(_plane_form(draw(st.integers(d1, 3)))))


def _drawn_ci(f1, f2):
    try:
        return ci_from_forms(f1, f2)
    except ValueError:
        assume(False)


@st.composite
def _ci_pairs(draw):
    """(Z, Z') with Z' drawn on its own, the same ideal on other generators
    (scaled, swapped, f2 + m * f1), or f2 perturbed in its own degree."""
    a = draw(_complete_intersection())
    kind = draw(st.sampled_from(["other", "regenerated", "perturbed"]))
    if kind == "other":
        return a, draw(_complete_intersection())
    (d1, d2) = a.degrees
    if kind == "perturbed":
        return a, _drawn_ci(a.f1, a.f2 + draw(_plane_form(d2)))
    m = draw(_plane_form(d2 - d1)) if d2 >= d1 else Form.zero(3)
    f1, f2 = draw(st.sampled_from([-1, 2])) * a.f1, a.f2 + m * a.f1
    return a, CISubscheme(*((f2, f1) if draw(st.booleans()) else (f1, f2)))


@settings(max_examples=100, deadline=None)
@given(_ci_pairs(), st.integers(-1, 6))
def test_ideals_match_by_generators_agrees_with_every_degree(pair, up_to):
    a, b = pair
    assert ideals_match(a, b, up_to) == reference_ideals_match(a, b, up_to)


@pytest.mark.parametrize("a, b, up_to, expected", [
    ((u, v ** 3), (u, v ** 3 + w ** 3), 3, False),     # agree through degree 2, differ at 3
    ((u, v ** 3), (u, v ** 3 + w ** 3), 6, False),
    ((u, v ** 3), (u, v ** 3 + w ** 3), 2, True),      # the differing generator lies above up_to
    ((u, v ** 3), (v ** 3 + u * w * w, -u), 6, True),  # one ideal, other generators
    ((v, w), (v, w + u), 1, False),                    # differ already in degree 1
])
def test_ideals_match_examples(a, b, up_to, expected):
    a, b = ci_from_forms(*a), ci_from_forms(*b)
    assert ideals_match(a, b, up_to) == reference_ideals_match(a, b, up_to) == expected


def test_ideals_match_ranks_once_per_generator_degree(monkeypatch):
    """Two collinear Z of degree c - k = 3 (c = 5, k = 2) agree in degree 1, where
    both pieces are spanned by u, and differ in degree 3: a mismatch.
    Each generator degree, 1 and 3, takes three ranks, A_d, B_d and [A_d | B_d]."""
    a = ci_from_line_points([((1, r), 1) for r in (1, 2, 3)])
    b = ci_from_line_points([((1, r), 1) for r in (1, 2, 4)])
    ranks = []
    monkeypatch.setattr(qacm.plane, "rank", lambda m: ranks.append(m.cols) or rank(m))
    assert ideals_match(a, b, 1) and len(ranks) == 3
    assert not ideals_match(a, b, 5) and len(ranks) == 3 + 6
    assert not reference_ideals_match(a, b, 5)


# ---------------------------------------------------------------------------
# a plane table from the degrees


def test_internal_closed_form_check_is_active():
    s = make_ci_ideal(u, v * w, 0)
    # Z = V(u, v*w) is two points, and constants fill one dimension of H0(O_Z): h1 = 2 - 1
    assert cohomology(s, 1, 0) == 1


GRAMMAR_SHEAVES = [
    "I([v,w^3])(0)@H2", "I([u,v^3-w^3])(2)@H1", "I([u,v*w])(0)@H2", "I([u+v,w^2])(1)@H1",
    "I([v^3,w^2+u^2])(2)@H2", "G(c=4,k=1,Z=[v,w^3],h=auto)@H2",
    "G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2", "G(c=5,k=2,Z=[v,w^3],h=u^3+u*w^2+v^3)@H2",
    "G(c=4,k=2,Z=[v-u,w^2],h=auto)@H2", "G(c=2,k=1,Z=[u+v,w],h=auto)@H1",
    "G(c=2,k=0,Z=[v,w^2],h=u+v)@H2", "G(c=5,k=2,Z=points([0:1:1];[0:1:2];[0:1:3]),h=auto)@H2",
]


@pytest.mark.parametrize("text", GRAMMAR_SHEAVES)
def test_h1_from_degrees_equals_the_eliminated_h2_kernel(text):
    """h1 read from the degrees is the dimension of the eliminated H2-level kernel
    at every twist of [-30, 12], for u-free and collinear ideal sheaves and
    extension bundles of the grammar; h2 is its cokernel."""
    sheaf = build(parse(text))
    b = sheaf.presentation.relation_twist
    for row in degree_table(sheaf.degree_data, -30, 12).rows:
        t = row.t
        h1 = relation_h2_kernel(sheaf, t).cols
        top = sum(cohomology_dim(P2, 2, a + t) for a in sheaf.presentation.target_twists)
        assert (row.h1, row.h2) == (h1, top - cohomology_dim(P2, 2, b + t) + h1), (text, t)


def _degree_rows_by_cohomology_dim(d: DegreeData, tmin: int, tmax: int) -> tuple:
    """The rows of ``degree_table`` by the same long exact sequences, each
    dimension a validated ``cohomology_dim`` call: the row formula that the inline
    counts of ``degree_table`` replaced, kept as its oracle."""
    def plane(d, t):
        h0 = sum(cohomology_dim(P2, 0, a + t) for a in d.cover)
        h2 = sum(cohomology_dim(P2, 2, a + t) for a in d.cover)
        if d.relation is None:
            return h0, 0, h2
        h1 = h2_kernel_dim(d, t)
        return (h0 - cohomology_dim(P2, 0, d.relation + t), h1,
                h2 - cohomology_dim(P2, 2, d.relation + t) + h1)

    if d.c is None:
        return tuple(CohRow(t, *plane(d, t)) for t in range(tmin, tmax + 1))
    split, rows, (b0, b1, _) = DegreeData((d.c, 0)), [], plane(d, tmin - 1)
    for t in range(tmin, tmax + 1):
        (p0, p1, p2), (s0, _, s2) = plane(d, t), plane(split, t)
        line_h0 = cohomology_dim(P1, 0, d.c + t) + cohomology_dim(P1, 0, t)
        h1 = b1 + p0 - b0 - line_h0
        h2 = cohomology_dim(P1, 1, d.c + t) + cohomology_dim(P1, 1, t) + h1 + s2 + p2 - p1
        rows.append(CohRow(t, s0 + p0 - line_h0, h1, h2))
        b0, b1 = p0, p1
    return tuple(rows)


def test_degree_table_counts_equal_the_cohomology_dim_oracle():
    """The inline counts of ``degree_table`` equal the ``cohomology_dim`` row
    formula on 600 seeded degree data: covers of 1 to 3 twists in [-10, 10], the
    relation None or in [-12, 8], c None or in 0..12, each over a window of up to
    40 twists in [-250, 250], and over all of [-250, 250] for the first 40."""
    rng = random.Random(20261020)
    for n in range(600):
        cover = tuple(sorted((rng.randint(-10, 10) for _ in range(rng.randint(1, 3))),
                             reverse=True))
        relation = rng.choice([None, rng.randint(-12, 8)])
        d = DegreeData(cover, relation, rng.choice([None, rng.randint(0, 12)]))
        if n < 40:
            tmin, tmax = -250, 250
        else:
            tmin = rng.randint(-250, 250)
            tmax = min(250, tmin + rng.randint(0, 39))
        assert degree_table(d, tmin, tmax).rows == _degree_rows_by_cohomology_dim(d, tmin, tmax), \
            (d, tmin, tmax)


def _forbid_plane_linear_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a plane table built, ranked or eliminated a matrix")

    for name in ("multiplication_matrix", "kernel_basis", "rank"):
        monkeypatch.setattr(qacm.plane, name, forbidden)


@pytest.mark.parametrize("text, tmin, tmax", [
    ("G(c=4,k=1,Z=[v,w^3],h=auto)@H2", -12, 6),
    ("G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2", -12, 6),
    ("I([v,w^3])(0)@H2", -12, 6),
    ("I([u,v^3-w^3])(2)@H1", -12, 6),
    ("O(2)+O(-1)@H1", -12, 6),
], ids=["u-free G", "collinear G", "u-free ideal", "collinear ideal", "split bundle"])
def test_a_plane_table_builds_and_eliminates_nothing(monkeypatch, text, tmin, tmax):
    """With every builder, rank and elimination of ``qacm.plane`` raising, a plane
    table is still read from the degrees, and its h1 is the eliminated H2 kernel
    computed before the patch.  That reference also decides the per-sheaf
    common-zero gate of G (one test per sheaf, cached), which is not table work."""
    sheaf = build(parse(text))
    b = sheaf.presentation.relation_twist
    h1 = [0 if b is None else relation_h2_kernel(sheaf, t).cols for t in range(tmin, tmax + 1)]
    if isinstance(sheaf, ExtensionBundle):
        assert sheaf.relation_common_zero_free
    _forbid_plane_linear_algebra(monkeypatch)
    table = coh_table(sheaf, tmin, tmax)
    assert [r.t for r in table.rows] == list(range(tmin, tmax + 1))
    assert [r.h1 for r in table.rows] == h1
    assert all(r.chi == euler_char(sheaf, r.t) for r in table.rows)


def test_a_deep_u_free_ideal_window_builds_and_eliminates_nothing(monkeypatch):
    """Z = V(v, w^3) is three points, so at t <= -3 h0(I_Z(t)) = 0, h1 = h0(O_Z) = 3
    and h2 = h2(O(t)), each read from the degrees with no matrix built."""
    sheaf = build(parse("I([v,w^3])(0)@H2"))
    _forbid_plane_linear_algebra(monkeypatch)
    assert coh_table(sheaf, -250, -240).rows == tuple(
        CohRow(t, 0, 3, (t + 1) * (t + 2) // 2) for t in range(-250, -239))


def test_a_relation_with_a_common_zero_is_not_hilbert_checked():
    """(v, w^3, v*w) vanish at [1 : 0 : 0], so they are no regular sequence and
    the Hilbert function (0 past the socle) does not apply: G is not locally
    free, its eliminated H2 kernel is 3-dimensional at every deep twist, and
    its degree data is refused: no number, not even h0, is read from the degrees."""
    sheaf = ExtensionBundle(2, 4, 1, ci_from_forms(v, w ** 3), v * w)
    assert not sheaf.relation_common_zero_free
    assert [relation_h2_kernel(sheaf, t).cols for t in range(-20, -6)] == [3] * 14
    with pytest.raises(ValueError, match="common zero"):
        cohomology(sheaf, 0, -8)
