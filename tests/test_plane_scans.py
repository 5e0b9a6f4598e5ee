"""The searches on L that skip work keep the answers of the plain loops.

``_auto_extension_form`` skips, for a collinear Z = V(u, g), every support
of monomials that all contain u; ``trivialize_on_line`` splits F|_L by a
mu-basis of the syzygies of the restricted relation, or in closed form when
one of its forms is zero, and a split bundle by its unit rows, with no search
at all.  The plain loops are kept here as references: the full support
search, the scan of h0(F|_L(s)) for the splitting type and the search for
the first surjective pair of rows; the mu-basis is the reference of the
closed form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import assume, strategies as st

from qacm.cli import classify_pairs, seeded_line_values
from qacm.linalg import rank
from qacm.monomials import P1, Form, basis, binary_forms_common_zero_free, cohomology_dim, \
    h0_exponents, multiplication_matrix
from qacm.plane import (U, CISubscheme, ExtensionBundle, _auto_extension_form,
                        _hom_row_candidates, _koszul_rows, _mu_basis_rows, ci_from_forms,
                        ci_from_line_points, make_extension_bundle, make_split_bundle,
                        no_common_zero, trivialize_on_line)
from p2_route import kernel_dim, line_relation_matrix

u, v, w = (Form.variable(3, n) for n in "uvw")


def reference_extension_form(ci, deg_h: int) -> Form:
    """The first h in the search order, trying every support."""
    if deg_h == 0:
        return Form.constant(3, 1)
    mons = h0_exponents(3, deg_h)
    for support in range(1, 4):
        for pos in itertools.combinations(range(len(mons)), support):
            for coefs in itertools.product((1, -1, 2, -2), repeat=support):
                h = Form.from_dict(3, {mons[p]: c for p, c in zip(pos, coefs)})
                if no_common_zero([ci.f1, ci.f2, h]):
                    return h
    raise ValueError("no extension class of the required degree is locally free")


def reference_line_h0_dim(sheaf, t: int) -> int:
    """h0(F|_L(t)) from the restricted presentation (hypercohomology on P1)."""
    pres = sheaf.line_presentation
    total = sum(cohomology_dim(P1, 0, a + t) for a in pres.target_twists)
    if pres.relation_twist is None:
        return total
    return total - rank(line_relation_matrix(sheaf, t, 0)) + kernel_dim(line_relation_matrix(sheaf, t, 1))


def reference_splitting_degrees(sheaf) -> tuple:
    """The scan of h0(F|_L(s)) over [-bound - 1, bound]."""
    pres = sheaf.line_presentation
    targets, b = pres.target_twists, pres.relation_twist
    deg = sum(targets) - (b if b is not None else 0)
    bound = sum(abs(a) for a in targets) + (abs(b) if b is not None else 0) + abs(deg) + 4
    degrees = []
    prev = reference_line_h0_dim(sheaf, -bound - 1)
    if prev != 0:
        raise ValueError("restriction to the line is not a vector bundle")
    threshold = 1
    for s in range(-bound, bound + 1):
        cur = reference_line_h0_dim(sheaf, s)
        while cur - prev >= threshold and len(degrees) < sheaf.rank:
            degrees.append(-s)
            threshold += 1
        prev = cur
        if len(degrees) == sheaf.rank:
            break
    if len(degrees) != sheaf.rank or sum(degrees) != deg:
        raise ValueError("restriction to the line has torsion (not locally free along L)")
    return tuple(degrees)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


line_points = st.lists(st.tuples(st.sampled_from([(1, 1), (1, 2), (1, -3), (2, 5), (1, 0), (0, 1)]),
                                 st.integers(1, 2)),
                       min_size=1, max_size=3, unique_by=lambda p: p[0])


@settings(max_examples=60, deadline=None)
@given(pts=line_points, swap=st.booleans(), deg_h=st.integers(0, 4))
def test_auto_extension_form_matches_the_full_search(pts, swap, deg_h):
    ci = ci_from_line_points(pts)
    if swap:
        ci = CISubscheme(ci.f2, ci.f1, ci.points)
    assert U in (ci.f1, ci.f2)
    assert _outcome(_auto_extension_form, ci, deg_h) == _outcome(reference_extension_form, ci, deg_h)


NON_COLLINEAR = [(v, w), (u + v, w), (v - u, w * w - u * u), (v * v + u * w, w - u),
                 (u * u + v * w, v - w)]


@st.composite
def extension_bundles(draw):
    """Extension bundles on non-collinear Z or with h mixing u-free and u-divisible terms."""
    f1, f2 = draw(st.sampled_from(NON_COLLINEAR + [(u, v * w), (u, v * v - w * w)]))
    ci = ci_from_forms(f1, f2)
    k = draw(st.integers(0, 3))
    c = k + ci.degree
    deg_h = 2 * k - c + sum(ci.degrees)
    assume(deg_h >= 0)
    mons = h0_exponents(3, deg_h)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(mons), max_size=len(mons)))
    h = Form.from_dict(3, dict(zip(mons, coeffs)))
    assume(not h.is_zero and no_common_zero([f1, f2, h]))
    return make_extension_bundle(c, k, ci, h)


def reference_rows(sheaf, e: int) -> list:
    """The maps F|_L -> O_L(e): the syzygies of the restricted relation, or,
    without a relation, every row with one monomial."""
    if sheaf.line_presentation.relation_twist is not None:
        return _hom_row_candidates(sheaf, e)
    targets = sheaf.line_presentation.target_twists
    return [tuple(Form.from_dict(2, {m: 1}) if j == i else Form.zero(2) for j in range(len(targets)))
            for i, a in enumerate(targets) for m in basis(P1, e - a).basis]


def reference_rows_surjective(r, s) -> bool:
    """The combined map sum O(a_i) -> O(e_1) + O(e_2) given by the two rows
    is onto as a sheaf map iff its 2x2 minors have no common zero on L."""
    return binary_forms_common_zero_free([r[i] * s[j] - r[j] * s[i]
                                          for i, j in itertools.combinations(range(len(r)), 2)])


def reference_trivialization(sheaf) -> tuple:
    """The splitting degrees from the h0 scan and the first surjective pair of
    rows (hi, lo) among the maps F|_L -> O_L(c1) and F|_L -> O_L(c2)."""
    c1, c2 = reference_splitting_degrees(sheaf)
    hi_candidates, lo_candidates = reference_rows(sheaf, c1), reference_rows(sheaf, c2)
    if c1 > c2:
        assert len(lo_candidates) == 1
        pairs = [(hi, lo_candidates[0]) for hi in hi_candidates]
    else:
        pairs = itertools.combinations(hi_candidates, 2)
    return (c1, c2), next(pair for pair in pairs if reference_rows_surjective(*pair))


def split_of(sheaf) -> tuple:
    triv = trivialize_on_line(sheaf)
    return triv.degrees, triv.rows


def assert_same_split(sheaf):
    """trivialize_on_line agrees with the search: equal degrees and lo, and hi
    equal or, if chosen otherwise, hi_new - lambda * hi_old in lo * S."""
    degrees, (new_hi, new_lo) = split_of(sheaf)
    (c1, c2), (hi, lo) = reference_trivialization(sheaf)
    assert degrees == (c1, c2) and new_lo == lo
    if new_hi != hi:
        assert c1 > c2
        tgts = [basis(P1, c1 - a) for a in sheaf.line_presentation.target_twists]

        def rank_with(*rows):
            """rank of lo * S_(c1 - c2) and the given rows, one column each"""
            return rank(multiplication_matrix([(f,) + tuple(r[i] for r in rows)
                                               for i, f in enumerate(lo)],
                                              [basis(P1, c1 - c2)] + [basis(P1, 0)] * len(rows),
                                              tgts))
        assert rank_with(hi) == rank_with(new_hi) == rank_with(hi, new_hi) == rank_with() + 1


@settings(max_examples=60, deadline=None)
@given(g=extension_bundles())
def test_splitting_scan_matches_the_loose_bound_scan(g):
    """On extension bundles of non-collinear Z, or of h mixing u-free and
    u-divisible terms, the mu-basis split is the one of the h0 scan and the
    pair search."""
    assert_same_split(g)


@pytest.mark.parametrize("sheaf", [
    make_split_bundle(1, (5, 2)), make_split_bundle(2, (0, 0)), make_split_bundle(1, (2, -3)),
    make_extension_bundle(3, 1, ci_from_forms(u, v * w), h=u * v + v * v - w * w),
    make_extension_bundle(1, 0, ci_from_forms(v, w), h=u),
    # h = v^2 meets Z = V(u, v) on L: the restriction has torsion at [0:0:1]
    ExtensionBundle(2, 2, 1, ci_from_forms(u, v), v * v),
], ids=["split52", "split00", "split2m3", "mixed-u-h", "point-off-L", "torsion"])
def test_splitting_scan_examples(sheaf):
    assert _outcome(split_of, sheaf) == _outcome(reference_trivialization, sheaf)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collinear_scan_sheaves_split_as_the_search_does(seed):
    """Every G of a ``classify --cmax 16`` scan: collinear Z from seeded
    points on L and h = auto."""
    for c, k in classify_pairs(16):
        pts = [((1, r), 1) for r in seeded_line_values(seed, c - k)]
        assert_same_split(make_extension_bundle(c, k, ci_from_line_points(pts), "auto"))


def closed_form_sheaves():
    """Every G of a ``classify --cmax 10`` scan at seeds 0-2 (collinear Z, so
    u restricts to 0), the point extension and G(c=2,k=1,Z=[v,w]), whose auto
    classes h = u and h = u^2 restrict to 0."""
    for seed in range(3):
        for c, k in classify_pairs(10):
            pts = [((1, r), 1) for r in seeded_line_values(seed, c - k)]
            yield make_extension_bundle(c, k, ci_from_line_points(pts), "auto")
    yield make_extension_bundle(1, 0, ci_from_forms(v, w), "auto")
    yield make_extension_bundle(2, 1, ci_from_forms(v, w), "auto")


def test_closed_form_rows_are_the_mu_basis_rows():
    """Where one restricted form is zero, the unit and Koszul rows are the
    degrees and rows the mu-basis finds, and trivialize_on_line returns them."""
    sheaves = list(closed_form_sheaves())
    assert len(sheaves) == 3 * len(classify_pairs(10)) + 2 == 104
    for g in sheaves:
        closed = _koszul_rows(g.line_presentation)
        assert closed is not None and closed == _mu_basis_rows(g)
        assert split_of(g) == closed


def test_the_closed_form_needs_exactly_one_zero_form():
    g = make_extension_bundle(5, 2, ci_from_forms(v, w ** 3), u ** 3 + u * w * w + v ** 3)
    assert all(not f.is_zero for f in g.line_presentation.relation)
    assert _koszul_rows(g.line_presentation) is None
    assert split_of(g) == _mu_basis_rows(g)


def test_torsion_along_the_line_is_refused():
    with pytest.raises(ValueError, match="not a vector bundle"):
        trivialize_on_line(ExtensionBundle(2, 2, 1, ci_from_forms(u, v), v * v))


@pytest.mark.parametrize("side", [1, 2])
def test_split_bundle_trivialization_matches_the_search(side):
    for c1 in range(-3, 13):
        for c2 in range(-3, c1 + 1):
            sheaf = make_split_bundle(side, (c2, c1))
            assert split_of(sheaf) == reference_trivialization(sheaf)
