"""The H2-level relation kernel on its u-exponent -1 prefix.

``relation_h2_kernel`` computes the kernel of the dual-monomial relation
matrix on a prefix of its columns when a relation form is a multiple of u.
Past the socle degree of the forms that act, when they have no common zero,
it is zero and built from nothing.  These tests hold it to the whole-matrix
kernel vector for vector, check that a deep twist builds nothing of size
O(t^2), and compare h1 of the collinear extension bundles, read from the
degrees and eliminated, with a closed form on L that shares no code with either.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qacm.linalg
import qacm.monomials
import qacm.plane
import qacm.quadric
from qacm.cli import ScanConfig, classify_pairs, scan_descriptors, seeded_line_values
from qacm.descriptor import build, parse
from qacm.linalg import RatMatrix, kernel_basis
from qacm.monomials import P1, P2, Form, cohomology_dim, h0_exponents
from qacm.plane import (CIIdealSheaf, CISubscheme, ExtensionBundle, ci_from_forms,
                        ci_from_line_points, cohomology, degree_table, euler_char,
                        make_extension_bundle, make_split_bundle, relation_h2_kernel,
                        relation_h2_matrix, trivialize_on_line)
from qacm.quadric import (_h1_kernel_on_line, _les_grid, _line_walk, acm_window, coh_table,
                          collinear_extension_kernel, make_kernel_sheaf)
import p2_route
from p2_route import dual_prefix, h1_kernel_of_line_map_full, h1_kernel_stacked
from test_linalg import vstack
from test_plane import h1_restriction_kernel_dim

u, v, w = (Form.variable(3, n) for n in "uvw")


# ---------------------------------------------------------------------------
# the prefix kernel is the whole-matrix kernel


@st.composite
def _form(draw, d, with_u=True, w_term=False):
    """A plane form of degree d with small integer coefficients; it may be
    zero unless ``w_term`` asks for a nonzero coefficient of w^d."""
    mons = [m for m in h0_exponents(3, d) if with_u or m[0] == 0]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(mons), max_size=len(mons)))
    if w_term:
        coeffs[-1] = draw(st.sampled_from([1, -1, 2]))
    return Form.from_dict(3, dict(zip(mons, coeffs)))


@st.composite
def _u_presentations(draw):
    """Sheaves whose relation holds s*u, s in {1, -1, 2, -1/2}: I_Z(m) or an
    extension bundle over Z = V(s*u, g), with h u-homogeneous or not."""
    g = draw(_form(draw(st.integers(1, 3)), with_u=False, w_term=True))
    f_u = u * draw(st.sampled_from([1, -1, 2, Fraction(-1, 2)]))
    ci = CISubscheme(*draw(st.sampled_from([(f_u, g), (g, f_u)])))
    if draw(st.booleans()):
        return CIIdealSheaf(2, ci, draw(st.integers(-2, 4)))
    k = draw(st.integers(0, 3))
    deg_h = k + 1                      # 2k - c + deg f1 + deg f2 with c = k + deg g
    h = draw(_form(deg_h))
    if draw(st.booleans()):
        h = u * draw(_form(deg_h - 1)) + draw(_form(deg_h, with_u=False))
    return ExtensionBundle(2, k + ci.degree, k, ci, h)


@st.composite
def _u_free_presentations(draw, locally_free=False):
    """Sheaves whose relation holds no scalar multiple of u: the forms may
    contain u (u + v, u^2), but never as u alone.  I_Z(m), or an extension
    bundle whose h is drawn freely (then (f1, f2, h) almost never share a
    zero) or from (f1, f2), so that V(f1, f2) is a common zero; h may be 0.
    ``locally_free`` keeps only the extension bundles whose three forms share no zero.
    An extension bundle is past its socle bound at t <= -k - deg f1 - deg f2 - 1 >= -9."""
    f1 = draw(st.sampled_from([v, v + w, u + v, v - 2 * u, u * u + v * w]))
    f2 = draw(_form(draw(st.integers(1, 3)), w_term=True))
    ci = CISubscheme(f1, f2)
    if not locally_free and draw(st.booleans()):
        return CIIdealSheaf(2, ci, draw(st.integers(-2, 4)))
    (d1, d2), c_minus_k = ci.degrees, ci.degree
    k_min = max(0, c_minus_k - d1 - d2)
    k = draw(st.integers(k_min, k_min + 2))
    deg_h = 2 * k - (k + c_minus_k) + d1 + d2
    if not locally_free and draw(st.booleans()):
        h = f1 * draw(_form(deg_h - d1)) + f2 * draw(_form(deg_h - d2))
    else:
        h = draw(_form(deg_h, w_term=True))
    sheaf = ExtensionBundle(2, k + c_minus_k, k, ci, h)
    assume(sheaf.h2_depth is None)      # h from (f1, f2) can be c*u: (v + w) + (u - v - w)
    assume(not locally_free or sheaf.relation_common_zero_free)
    return sheaf


def _assert_prefix_kernel_is_whole_kernel(sheaf, t, depth):
    assert sheaf.h2_depth == depth
    ker = relation_h2_kernel(sheaf, t)
    b = sheaf.presentation.relation_twist
    n = cohomology_dim(P2, 2, b + t)
    n_prefix = dual_prefix(b + t, depth).dim
    assert ker.rows == n_prefix
    whole = kernel_basis(relation_h2_matrix(sheaf, t))
    assert whole == vstack(ker, RatMatrix.zero(n - n_prefix, ker.cols))


@settings(max_examples=80, deadline=None)
@given(_u_presentations(), st.integers(-12, 1))
def test_u_prefix_kernel_equals_whole_kernel(sheaf, t):
    """The extension bundles are past their socle bound at t <= -deg g - deg h - 1 >= -8."""
    _assert_prefix_kernel_is_whole_kernel(sheaf, t, 1)


@settings(max_examples=60, deadline=None)
@given(_u_free_presentations(), st.integers(-14, 1))
def test_u_free_kernel_is_the_whole_kernel(sheaf, t):
    _assert_prefix_kernel_is_whole_kernel(sheaf, t, None)


@pytest.mark.parametrize("c, k", [(3, 1), (4, 2), (6, 2)])
def test_scan_sheaf_prefix_kernel_equals_whole_kernel(c, k):
    g = make_extension_bundle(c, k, ci_from_line_points(
        [((1, r), 1) for r in seeded_line_values(3, c - k)]), h="auto")
    for t in range(-c - 12, 2):
        _assert_prefix_kernel_is_whole_kernel(g, t, 1)


# ---------------------------------------------------------------------------
# deep twists build no O(t^2) object


def _forbid_deep_plane_dual_bases(monkeypatch):
    """Make every construction of a dual basis of H2(P2) below degree -200 fail."""
    def guard(fn, deep):
        def guarded(*args):
            if deep(*args):
                raise AssertionError(f"dual basis of P2 built at {args}")
            return fn(*args)
        return guarded

    dual3 = lambda nv, d: nv == 3 and d < -200                  # noqa: E731
    basis_p2 = lambda space, i, d: (space, i) == (P2, 2) and d < -200   # noqa: E731
    for mod in (qacm.monomials, p2_route):
        monkeypatch.setattr(mod, "dual_exponents", guard(mod.dual_exponents, dual3))
    for mod in (qacm.monomials, qacm.plane, qacm.quadric, p2_route):
        monkeypatch.setattr(mod, "basis", guard(mod.basis, basis_p2))


def test_deep_twist_builds_no_plane_dual_basis(monkeypatch):
    """At t = -300 the u-path must neither build the whole relation matrix
    nor any dual basis of H2(P2) at that depth.  The bundle has h|_L = 0, so
    the kernel is the 20-dimensional kernel of g on H1(P1) at every depth, the
    full h1 route runs to the end, and the u-rank one is 0 at depth 1.  The
    relation forms share the zeros of g on L, so this is no plane table: its
    degree data is refused, h0 included."""
    g = v ** 20 - w ** 20
    sheaf = ExtensionBundle(2, 21, 1, ci_from_forms(u, g), u * v)
    t = -300

    def forbidden(*args):
        raise AssertionError("relation_h2_matrix called on the u-path")

    monkeypatch.setattr(qacm.plane, "relation_h2_matrix", forbidden)
    _forbid_deep_plane_dual_bases(monkeypatch)

    ker = relation_h2_kernel(sheaf, t)
    assert (sheaf.h2_depth, ker.cols) == (1, 20)
    with pytest.raises(ValueError, match="common zero"):
        cohomology(sheaf, 0, t)
    fast = h1_restriction_kernel_dim(sheaf, t, relation_h2_kernel(sheaf, t - 1))
    full = h1_kernel_of_line_map_full(SimpleNamespace(other=sheaf), t, ker)
    assert fast == full == 0


@pytest.mark.parametrize("sheaf, total", [
    ("G(c=4,k=1,Z=[v,w^3],h=auto)@H2", 3),
    ("G(c=5,k=2,Z=[v,w^3],h=u^3+u*w^2+v^3)@H2", 6),
    ("G(c=4,k=2,Z=[v-u,w^2],h=auto)@H2", 4),
])
def test_u_free_fast_route_equals_the_full_route(sheaf, total):
    """Without a relation form c*u, h1 of a kernel sheaf is nonzero, and its
    three routes agree at every twist: the degree count of the table's fast
    route, the u-rank oracle (the whole H2 kernel multiplied by u) and the
    zig-zag of the full route.  Each G, twisted by -c2 so that it splits as
    O_L(c) + O_L on L, is the other side of a kernel sheaf against O(c) + O(0)."""
    g = build(parse(sheaf))
    c1, c2 = trivialize_on_line(g).degrees
    g = ExtensionBundle(g.side, g.c - 2 * c2, g.k - c2, g.ci, g.h)
    assert g.h2_depth is None
    k = make_kernel_sheaf(make_split_bundle(1, (c1 - c2, 0)), g)
    lo, hi = -14 + c2, 3 + c2
    kernels = {t: relation_h2_kernel(g, t) for t in range(lo - 1, hi + 1)}
    fast = [r.h1 for r in degree_table(k.degree_data, lo, hi).rows]
    assert fast == [h1_restriction_kernel_dim(g, t, kernels[t - 1]) for t in range(lo, hi + 1)]
    assert fast == [h1_kernel_of_line_map_full(k, t, kernels[t]) for t in range(lo, hi + 1)]
    assert fast == [r.h1 for r in coh_table(k, lo, hi).rows]
    assert sum(fast) == total


def _glued(g):
    """The kernel sheaf of G, twisted by -c2 so that it splits as O_L(c1 - c2) + O_L
    on L, glued to O(c1 - c2) + O(0), as in ``test_u_free_fast_route_equals_the_full_route``."""
    c1, c2 = trivialize_on_line(g).degrees
    g = ExtensionBundle(g.side, g.c - 2 * c2, g.k - c2, g.ci, g.h)
    return make_kernel_sheaf(make_split_bundle(1, (c1 - c2, 0)), g)


@settings(max_examples=100, deadline=None)
@given(_u_free_presentations(locally_free=True))
def test_u_free_table_equals_the_p2_route(g):
    """On every locally free u-free G, ``_glued``, the rows of the checked table
    equal the zig-zag on P2 at every twist of the aCM window.  The relation
    forms may hold u^2 (u^2 + v*w, or from f2), so the LES check on L reads the
    u-exponent slices past -1."""
    k = _glued(g)
    lo, hi = acm_window(k)
    g = k.other
    full = [h1_kernel_of_line_map_full(k, t, relation_h2_kernel(g, t)) for t in range(lo, hi + 1)]
    assert [r.h1 for r in coh_table(k, lo, hi).rows] == full


def test_line_walk_equals_the_full_route_on_the_c14_scans():
    """The collinear walk's LES route on L, the kernel of T_t Q on each H2 kernel,
    equals the zig-zag of the full route on the dual prefixes of P2 at every twist of the aCM window widened by 5 on each side, for every
    point-extension and collinear row of ``classify --cmax 14``, seeds 1 and 3."""
    twists = nonzero = rows = 0
    for seed in (1, 3):
        for kind, _, text in scan_descriptors(ScanConfig(c_max=14, point_seed=seed)):
            if kind == "split":
                continue
            k = build(parse(text))
            lo, hi = acm_window(k)
            window = range(lo - 5, hi + 6)
            kernels = [relation_h2_kernel(k.other, t) for t in window]
            full = [h1_kernel_of_line_map_full(k, t, ker) for t, ker in zip(window, kernels)]
            assert list(_line_walk(k, lo - 5, hi + 5)) == full, text
            rows, twists = rows + 1, twists + len(full)
            nonzero += sum(ker.cols > 0 for ker in kernels)
    assert (rows, twists, nonzero) == (128, 5162, 1178)


@pytest.mark.parametrize("c, k", [(4, 2), (6, 2), (7, 3)])
def test_line_walk_from_any_first_twist(c, k):
    """A walk that starts inside the range of nonzero kernels gives the full
    route's value at every twist, whatever its first twist: no step reads
    anything from the step before it."""
    kernel = collinear_extension_kernel(c, k, [((1, r), 1) for r in seeded_line_values(3, c - k)])
    lo, hi = acm_window(kernel)
    full = {t: h1_kernel_of_line_map_full(kernel, t, relation_h2_kernel(kernel.other, t))
            for t in range(lo, hi + 1)}
    starts = [t for t in range(lo, hi + 1) if relation_h2_kernel(kernel.other, t).cols]
    assert len(starts) >= 3
    for t0 in starts:
        assert list(_line_walk(kernel, t0, hi)) == [full[t] for t in range(t0, hi + 1)]


@settings(max_examples=80, deadline=None)
@given(_u_presentations(), st.integers(-12, 1))
def test_route_on_line_equals_the_full_route(sheaf, t):
    """On any extension bundle whose relation holds s*u, the u-coefficients of its
    forms drawn free or u-homogeneous, and whose restriction to L is a bundle (so
    that it has a trivialization), ``_glued``, the kernel of T_t Q on K at t equals
    the full route on the same H2 kernel."""
    assume(isinstance(sheaf, ExtensionBundle) and sheaf.line_relation_coprime)
    k = _glued(sheaf)
    ker = relation_h2_kernel(k.other, t)
    assert _h1_kernel_on_line(k, t, ker, _les_grid(k)) == h1_kernel_of_line_map_full(k, t, ker)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_u_presentations(), _u_free_presentations(locally_free=True)))
def test_les_route_equals_the_stacked_route_and_the_full_route(g):
    """On extension bundles with a relation form s*u or without one (K then covers
    several u-exponent slices) whose restriction to L is a bundle, ``_glued``, three
    routes agree at every twist of the aCM window widened by 3: the kernel of T_t Q
    on K, the stacked route [Q K | L_t] that reads no trivialization, and the
    zig-zag on P2."""
    assume(isinstance(g, ExtensionBundle) and g.line_relation_coprime)
    k = _glued(g)
    grid = _les_grid(k)
    lo, hi = acm_window(k)
    for t in range(lo - 3, hi + 4):
        ker = relation_h2_kernel(k.other, t)
        assert _h1_kernel_on_line(k, t, ker, grid) == h1_kernel_stacked(k, t, ker) == \
            h1_kernel_of_line_map_full(k, t, ker), t


def _u_free_g():
    """G(c=4,k=1,Z=[v,w^3],h=auto): the relation (-w^3, v, h) is three forms
    with no common zero, of degrees summing to 6, so with b = -1 the kernel
    in dual degree -(b + t) - 3 is zero from t = -6 on down."""
    return make_extension_bundle(4, 1, ci_from_forms(v, w ** 3), h="auto")


def _collinear_g(c, k):
    """The scan's G(c, k): the restrictions (-g, h|_L) are coprime of degrees
    c - k and k + 1, and the kernel is zero from t = -c - 2 on down."""
    return make_extension_bundle(c, k, ci_from_line_points(
        [((1, r), 1) for r in seeded_line_values(3, c - k)]), h="auto")


def test_deep_u_free_twist_builds_no_plane_dual_basis(monkeypatch):
    """At t = -250 the u-free G is far past its socle bound: neither the
    relation matrix nor any dual basis of H2(P2) below degree -200 is built,
    for h1, h2 or either h1 route of a kernel sheaf."""
    sheaf = _u_free_g()
    _forbid_deep_plane_dual_bases(monkeypatch)
    t = -250
    ker = relation_h2_kernel(sheaf, t)
    assert sheaf.h2_depth is None and ker.cols == 0
    assert ker.rows == cohomology_dim(P2, 2, sheaf.presentation.relation_twist + t)
    assert cohomology(sheaf, 1, t) == 0
    assert cohomology(sheaf, 2, t) == euler_char(sheaf, t)
    assert h1_restriction_kernel_dim(sheaf, t, relation_h2_kernel(sheaf, t - 1)) == 0
    assert h1_kernel_of_line_map_full(SimpleNamespace(other=sheaf), t, ker) == 0


@pytest.mark.parametrize("make, bound", [(_u_free_g, -6), (lambda: _collinear_g(5, 2), -7)])
def test_a_twist_past_the_bound_builds_and_eliminates_nothing(monkeypatch, make, bound):
    """The cut starts exactly at the bound: at bound + 1 the kernel (of
    dimension 1, the socle) is eliminated; at the bound and below, once
    the first deep twist has decided the per-sheaf common-zero answer, no
    matrix is built and nothing is eliminated."""
    sheaf = make()
    assert relation_h2_kernel(sheaf, bound + 1).cols == 1
    assert relation_h2_kernel(sheaf, bound).cols == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("matrix built or eliminated past the bound")

    monkeypatch.setattr(qacm.plane, "multiplication_matrix", forbidden)
    monkeypatch.setattr(qacm.plane, "kernel_basis", forbidden)
    monkeypatch.setattr(qacm.plane, "rank", forbidden)
    for t in range(bound - 40, bound + 1):
        assert relation_h2_kernel(sheaf, t).cols == 0
        assert cohomology(sheaf, 1, t) == 0


@pytest.mark.parametrize("make", [_u_free_g, lambda: _collinear_g(5, 2)])
def test_a_twist_with_an_empty_source_builds_nothing(monkeypatch, make):
    """From t = -b - 2 on the source of the H2-level relation is empty (the
    dual degree n is negative): the kernel, equal to what the elimination
    gives, has no rows or columns, and no matrix is built.  One twist lower
    the source has one monomial."""
    sheaf = make()
    top = -sheaf.presentation.relation_twist - 2
    assert relation_h2_kernel(sheaf, top - 1).rows == 1
    assert relation_h2_kernel(sheaf, top) == kernel_basis(relation_h2_matrix(sheaf, top))

    def forbidden(*args, **kwargs):
        raise AssertionError("matrix built or eliminated with an empty source")

    monkeypatch.setattr(qacm.plane, "multiplication_matrix", forbidden)
    monkeypatch.setattr(qacm.plane, "kernel_basis", forbidden)
    for t in range(top, top + 40):
        assert relation_h2_kernel(sheaf, t) == RatMatrix.zero(0, 0)


def test_a_u_free_common_zero_keeps_the_kernel_at_every_depth():
    """h = v*w lies in (v, w^3), so the three forms vanish at [1 : 0 : 0] and
    S/(v, w^3, v*w) = k[u, w]/(w^3) has Hilbert function 3 from degree 2 on:
    past the bound of three such degrees (t <= -6) the kernel stays 3-dimensional."""
    sheaf = ExtensionBundle(2, 4, 1, ci_from_forms(v, w ** 3), v * w)
    for t in range(-30, -5):
        ker = relation_h2_kernel(sheaf, t)
        assert sheaf.h2_depth is None and ker.cols == 3
        assert ker == kernel_basis(relation_h2_matrix(sheaf, t))


@pytest.mark.parametrize("sheaf", [
    CIIdealSheaf(2, CISubscheme(v + w, w ** 2 - u * v), 1),      # two forms on P2
    CIIdealSheaf(2, CISubscheme(u, v ** 2 - w ** 2), 1),        # one nonzero form on L
    ExtensionBundle(2, 21, 1, ci_from_forms(u, v ** 20 - w ** 20), u * v),
], ids=["u-free ideal", "collinear ideal", "h on L zero"])
def test_fewer_forms_than_variables_take_the_elimination(monkeypatch, sheaf):
    """With fewer acting forms than variables the ideal is never everything,
    so no common-zero answer is asked for, and every twist whose source is not
    empty is eliminated."""
    def forbidden(*args):
        raise AssertionError("common-zero test on fewer forms than variables")

    monkeypatch.setattr(qacm.plane, "no_common_zero", forbidden)
    monkeypatch.setattr(qacm.plane, "binary_forms_common_zero_free", forbidden)
    for t in range(-30, 2):
        ker = relation_h2_kernel(sheaf, t)
        if sheaf.h2_depth is None:
            assert ker == kernel_basis(relation_h2_matrix(sheaf, t))
        else:
            assert ker == kernel_basis(qacm.plane.line_relation_matrix(sheaf, t + 1, 1))
    assert relation_h2_kernel(sheaf, -30).cols > 0


def _kernel_twists(monkeypatch, k) -> tuple:
    """The twists at which one table of K over its aCM window computes an H2
    kernel, each checked to be of the other side, and the window."""
    calls = []
    compute = qacm.plane.relation_h2_kernel

    def counted(sheaf, t):
        calls.append((sheaf, t))
        return compute(sheaf, t)

    for mod in (qacm.plane, qacm.quadric):
        monkeypatch.setattr(mod, "relation_h2_kernel", counted)
    lo, hi = acm_window(k)
    coh_table(k, lo, hi)
    assert all(sheaf is k.other for sheaf, _ in calls)
    return [t for _, t in calls], lo, hi


def _collinear_k():
    return collinear_extension_kernel(4, 2, [((1, r), 1) for r in seeded_line_values(3, 2)])


def test_collinear_table_walks_each_kernel_once(monkeypatch):
    """The checks ask for the H2 kernel of the other side once at every twist t,
    for the Hilbert check and the LES route on L; the rows are a count of degrees."""
    twists, lo, hi = _kernel_twists(monkeypatch, _collinear_k())
    assert twists == list(range(lo, hi + 1))


def test_collinear_table_eliminates_once_per_nonzero_kernel(monkeypatch):
    """A collinear table over its window builds no matrix on P2 and stacks none,
    and its LES check ranks one matrix per twist whose H2 kernel is nonzero,
    T_t Q K: no L_t is built or eliminated for it."""
    k = _collinear_k()
    lo, hi = acm_window(k)
    nonzero = sum(relation_h2_kernel(k.other, t).cols > 0 for t in range(lo, hi + 1))
    ranks = []
    real_rank, real_mult = qacm.linalg.rank, qacm.monomials.multiplication_matrix

    def on_line(grid, srcs, tgts):
        assert all(p.space == P1 for p in srcs + tgts), "P2 matrix built on a collinear walk"
        return real_mult(grid, srcs, tgts)

    for mod in (qacm.plane, qacm.quadric):
        monkeypatch.setattr(mod, "multiplication_matrix", on_line)
    for mod in (qacm.linalg, qacm.plane, qacm.quadric):
        monkeypatch.setattr(mod, "rank", lambda m: ranks.append(m) or real_rank(m))
    monkeypatch.setattr(qacm.quadric, "hstack", lambda *m: pytest.fail("hstack on a table"))
    coh_table(k, lo, hi)
    assert nonzero == 4 and len(ranks) == nonzero


def test_u_free_table_walks_each_kernel_once(monkeypatch):
    """Without a relation form c*u the degree count at t reads h1 of the other
    side at t - 1, from the degrees even at lo - 1, so no kernel below the
    window is computed."""
    k = build(parse("K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h=u+v)@H2,e=id)"))
    twists, lo, hi = _kernel_twists(monkeypatch, k)
    assert twists == list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# the closed-form Koszul oracle


def h0_p1(d: int) -> int:
    return max(0, d + 1)


def koszul_h1(c: int, k: int, t: int) -> int:
    """h1(G(t)) for the collinear extension bundle G(c, k).

    G has the presentation 0 -> O(-1) -> O(c-k-1) + O(0) + O(k) -> G -> 0
    with relation (-g, u, h), deg g = c - k, deg h = k + 1.  Plane line
    bundles have no h1, so h1(G(t)) is the kernel of the relation on H2,
    which is multiplication by (g, h|_L) from H1(O_L(t)) to
    H1(O_L(t + c - k)) + H1(O_L(t + k + 1)) (u|_L = 0 drops out).  When
    g and h|_L are coprime, 0 -> O(t) -> O(t+p) + O(t+q) -> O(t+p+q) -> 0
    (p = c - k, q = k + 1, the Koszul complex of a regular sequence on P1) is
    exact, so that kernel is the image of the connecting map from
    H0(O(t+p+q)), and its dimension is
    h0(t+c+1) - h0(t+c-k) - h0(t+k+1) + h0(t)."""
    return h0_p1(t + c + 1) - h0_p1(t + c - k) - h0_p1(t + k + 1) + h0_p1(t)


def test_koszul_oracle_on_the_c16_scan():
    checks = 0
    for c, k in classify_pairs(16):
        pts = [((1, r), 1) for r in seeded_line_values(0, c - k)]
        g = make_extension_bundle(c, k, ci_from_line_points(pts), h="auto")
        lo, hi = acm_window(SimpleNamespace(c=c, other=g))
        for t in range(lo, hi + 1):
            assert cohomology(g, 1, t) == relation_h2_kernel(g, t).cols == koszul_h1(c, k, t), \
                (c, k, t)
            checks += 1
    assert len(classify_pairs(16)) == 79 and checks == 2612


def test_koszul_oracle_fails_when_g_and_h_share_a_root():
    """h = g is not coprime to g: the kernel of (g, g) is the kernel of g,
    of dimension deg g = 2 at every t <= -3, while the formula gives 0 once
    t <= -5."""
    g2 = ci_from_line_points([((1, 1), 1), ((1, 2), 1)])
    sheaf = ExtensionBundle(2, 3, 1, g2, g2.f2)
    for t in range(-30, -4):
        assert relation_h2_kernel(sheaf, t).cols == 2 != koszul_h1(3, 1, t)
