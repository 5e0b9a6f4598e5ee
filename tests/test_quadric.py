import pytest

import qacm.plane
import qacm.quadric
from qacm.cli import classify_pairs, main, seeded_line_values
from qacm.descriptor import build, parse
from qacm.errors import InternalCheckError
from qacm.linalg import RatMatrix
from qacm.monomials import Form
from qacm.plane import CohRow, CohTable, ExtensionBundle, ci_from_forms, \
    coh_table as plane_table, degree_table, euler_char as plane_euler_char, \
    make_extension_bundle, make_split_bundle
from qacm.quadric import (RankOneSheaf, UlrichResult, acm_check, acm_window, coh_row,
                          coh_table,
                          collinear_extension_kernel,
                          diagonal_gluing, gluing_variation_report,
                          global_generation_surjective, h0, h1, h2,
                          identity_gluing, make_kernel_sheaf,
                          point_extension_kernel, rank_one_cohomology, restriction_invariants,
                          split_pair_kernel, ulrich_check, upper_gluing)

u, v, w = (Form.variable(3, n) for n in "uvw")


def collinear_kernel(c=3, k=1):
    pts = [((1, i + 1), 1) for i in range(c - k)]
    return collinear_extension_kernel(c, k, pts)


# ---------------------------------------------------------------------------
# construction and validation


def test_trivial_pair_is_structure_sheaf_squared():
    k = split_pair_kernel(0)
    assert h0(k, 0) == 2
    assert acm_check(k).is_acm


def test_mismatched_splitting_types_rejected():
    f1 = make_split_bundle(1, (2, 0))
    g = make_extension_bundle(3, 1, ci_from_forms(u, v * w), h="auto", side=2)
    with pytest.raises(ValueError, match="mismatched splitting"):
        make_kernel_sheaf(f1, g)


@pytest.mark.parametrize("other", ["O(3)+O(0)", "O(1)+O(1)", "O(2)+O(-1)"])
def test_split_other_side_of_another_type_rejected(capsys, other):
    """A split other side is trivialized by its own twists, which must still be
    checked against the split side's (c, 0): by make_kernel_sheaf, and by
    ``qacm cohomology`` with exit 2."""
    f2 = build(parse(f"{other}@H2"))
    with pytest.raises(ValueError, match="mismatched splitting"):
        make_kernel_sheaf(make_split_bundle(1, (2, 0)), f2)
    code = main(["cohomology", "--sheaf", f"K(F1=O(2)+O(0)@H1,F2={other}@H2,e=id)",
                 "--tmin", "0", "--tmax", "0", "--no-timestamp"])
    assert code == 2 and "mismatched splitting" in capsys.readouterr().err


def test_unnormalized_split_side_rejected():
    with pytest.raises(ValueError, match="normalized"):
        make_kernel_sheaf(make_split_bundle(1, (3, 1)), make_split_bundle(2, (3, 1)))


def test_same_plane_rejected():
    with pytest.raises(ValueError, match="different planes"):
        make_kernel_sheaf(make_split_bundle(1, (1, 0)), make_split_bundle(1, (1, 0)))


def test_zero_gluing_scalar_rejected():
    with pytest.raises(ValueError):
        diagonal_gluing(0, 1)


def test_upper_gluing_wrong_degree_rejected():
    with pytest.raises(ValueError, match="degree"):
        make_kernel_sheaf(make_split_bundle(1, (2, 0)), make_split_bundle(2, (2, 0)),
                          upper_gluing(1, 1, Form.variable(2, "v")))


# ---------------------------------------------------------------------------
# cohomology values


def test_collinear_kernel_h0():
    k = collinear_kernel(3, 1)
    assert h0(k, 0) == 13           # 11 + 7 - 5


def test_point_extension_values():
    k = point_extension_kernel(1)
    assert h0(k, 0) == 4
    assert h0(k, -1) == 0


def test_acm_collinear_family_instance():
    rep = acm_check(collinear_kernel(3, 1))
    assert rep.is_acm
    assert all(r.h1 == 0 for r in rep.table.rows)
    assert rep.window[0] <= -11 and rep.window[1] == 6


def test_acm_split_pair():
    rep = acm_check(split_pair_kernel(2))
    assert rep.is_acm


def ulrich(k):
    """ulrich_check on the aCM table, as the scan runs it."""
    return ulrich_check(k, acm_check(k).table)


def test_ulrich_trichotomy():
    assert ulrich(point_extension_kernel(1)).is_ulrich
    assert ulrich(point_extension_kernel(2)).is_ulrich
    assert not ulrich(split_pair_kernel(2)).is_ulrich
    assert not ulrich(collinear_kernel(3, 1)).is_ulrich


def test_ulrich_data():
    r = ulrich(point_extension_kernel(1))
    assert (r.t0, r.h0_after) == (-1, 4)
    s = ulrich(split_pair_kernel(2))
    assert (s.t0, s.h0_after) == (-3, 1)


@pytest.mark.parametrize("k", [point_extension_kernel(1), split_pair_kernel(2),
                               collinear_kernel(3, 1)], ids=["point", "split", "collinear"])
def test_ulrich_check_on_a_table_cut_before_h0_turns_positive(monkeypatch, k):
    """A table that ends at t0, where h0 is still 0, gives the result of the
    full window: ulrich_check computes the one row after it, and only then."""
    full = acm_check(k).table
    whole = ulrich_check(k, full)
    cut = CohTable(tuple(r for r in full.rows if r.t <= whole.t0))
    assert all(r.h0 == 0 for r in cut.rows)
    extra = []
    real = qacm.quadric.coh_table
    monkeypatch.setattr(qacm.quadric, "coh_table",
                        lambda k, lo, hi: extra.append((lo, hi)) or real(k, lo, hi))
    assert ulrich_check(k, full) == whole and extra == []
    assert ulrich_check(k, cut) == whole and extra == [(whole.t0 + 1,) * 2]


def test_ulrich_check_refuses_a_table_with_h0_at_its_low_end():
    k = split_pair_kernel(2)
    with pytest.raises(ValueError, match="window too small"):
        ulrich_check(k, coh_table(k, 0, 3))


def test_degenerate_collinear_c1_is_the_ulrich_sheaf():
    """(c,k) = (1,0) with Z on L gives the tangent-type bundle, hence one of
    the two Ulrich sheaves; its table matches the point-extension one."""
    k_line = collinear_extension_kernel(1, 0, [((1, 1), 1)])
    k_point = point_extension_kernel(2)
    assert ulrich(k_line).is_ulrich
    assert coh_table(k_line, -5, 4) == coh_table(k_point, -5, 4)


def test_restriction_invariants():
    assert restriction_invariants(collinear_kernel(3, 1)) == ((3, 0), (3, 4))
    assert restriction_invariants(split_pair_kernel(0)) == ((0, 0), (0, 0))
    assert restriction_invariants(point_extension_kernel(1)) == ((1, 1), (1, 0))
    assert restriction_invariants(point_extension_kernel(2)) == ((1, 0), (1, 1))


def test_chi_additivity():
    """chi(K(t)) = chi(F_split(t)) + chi(F_other(t)) - chi(O_L(c+t)) - chi(O_L(t)),
    from the Euler characteristics of the plane presentations."""
    k = collinear_kernel(4, 2)
    for t in range(-10, 6):
        line_chi = (k.c + t + 1) + (t + 1)
        assert h0(k, t) - h1(k, t) + h2(k, t) == (plane_euler_char(k.split, t)
                                                  + plane_euler_char(k.other, t) - line_chi)


def _forbid_h0_maps(monkeypatch):
    """Make every H0-level build or rank that quadric could reach raise:
    ``relation_h0_matrix`` is no name of ``src/`` (it is a reference of the
    tests), so it is set on the module only to catch a caller put back."""
    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} was called")
        return call

    assert not hasattr(qacm.plane, "relation_h0_matrix")
    for name in ("_assembled_matrix", "relation_h0_matrix", "rank"):
        monkeypatch.setattr(qacm.quadric, name, forbidden(name), raising=False)


def test_acm_and_ulrich_checks_build_no_h0_map(monkeypatch):
    """acm_check then ulrich_check read h0 from the degrees: no twist of the
    window builds the assembled H0-level map or the relation's H0-level
    matrix, or ranks anything in quadric, and the table is the one the H0
    ranks gave (tests/test_h0_line.py compares the two at every twist)."""
    _forbid_h0_maps(monkeypatch)
    k = collinear_kernel(3, 1)
    rep = acm_check(k)
    lo, hi = rep.window
    assert (lo, hi) == (-12, 6) and rep.is_acm
    assert [r.h0 for r in rep.table.rows] == [0] * 10 + [1, 5, 13, 25, 41, 61, 85, 113, 145]
    assert ulrich_check(k, rep.table) == UlrichResult(False, -3, 1)


def test_acm_invariant_under_twist():
    """Twisting shifts the table: h1(K(t+s)) stays identically zero."""
    k = collinear_kernel(3, 2)
    lo, hi = acm_check(k).window
    for s in range(-2, 3):
        assert all(h1(k, t + s) == 0 for t in range(lo, hi + 1))


def test_les_cross_check_runs_at_every_twist():
    # coh_table raises InternalCheckError if the count and the full route disagree; a full table
    # exercises both routes at each twist.
    table = coh_table(collinear_kernel(2, 1), -9, 5)
    assert all(r.h1 == 0 for r in table.rows)


SCAN_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:{}];[0:1:{}]),h=auto)@H2,e=id)".format(
    *seeded_line_values(0, 2))


def test_les_cross_check_fails_when_the_full_route_is_perturbed(monkeypatch, capsys):
    """On the collinear family h1 is 0, so the degree count of the fast route
    holds the full route to 0: one more in the route the collinear walk runs,
    the zig-zag on L, must be refused, by coh_row and by ``qacm cohomology``
    with exit 3."""
    k = build(parse(SCAN_SHEAF))
    t = -3
    assert acm_check(k).is_acm and coh_row(k, t).h1 == 0
    real = qacm.quadric._h1_kernel_on_line
    monkeypatch.setattr(qacm.quadric, "_h1_kernel_on_line", lambda *args: real(*args) + 1)
    with pytest.raises(InternalCheckError, match="LES inconsistency"):
        coh_row(k, t)
    code = main(["cohomology", "--sheaf", SCAN_SHEAF, "--tmin", str(t), "--tmax", str(t),
                 "--no-timestamp"])
    assert code == 3 and "LES inconsistency" in capsys.readouterr().err


def test_les_cross_check_fails_when_the_u_coefficients_are_zeroed(monkeypatch, capsys):
    """The LES check on L reads the built forms: with the u-coefficients zeroed,
    T_t Q is zero and the route gives dim K where the count gives 0, and ``qacm
    cohomology`` of the collinear sheaf over its aCM window exits 3."""
    k = build(parse(SCAN_SHEAF))
    lo, hi = acm_window(k)
    monkeypatch.setattr(qacm.quadric, "_u_coefficients",
                        lambda pres: tuple((Form.zero(2),) for _ in pres.relation))
    code = main(["cohomology", "--sheaf", SCAN_SHEAF, "--tmin", str(lo), "--tmax", str(hi),
                 "--no-timestamp"])
    assert code == 3 and "LES inconsistency" in capsys.readouterr().err


def _zero_lo_row(grid):
    """The grid T q with its lo row, the trivialization's O_L factor, zeroed."""
    return grid[0], tuple(Form.zero(2) for _ in grid[1])


def test_les_cross_check_fails_when_the_lo_row_is_zeroed(monkeypatch, capsys):
    """The LES check reads the trivialization rows: with the lo row of T q zeroed,
    T_t no longer maps onto H1(O_L(t)), its kernel grows past im L_t, and the
    route is refused on the collinear sheaf over its aCM window (h1 = 0
    everywhere; ``qacm cohomology`` exits 3) and on the sheaf that is not aCM
    (h1 = 1 at t = -3, -2, -1)."""
    real = qacm.quadric._les_grid
    monkeypatch.setattr(qacm.quadric, "_les_grid", lambda k: _zero_lo_row(real(k)))
    k = build(parse(SCAN_SHEAF))
    lo, hi = acm_window(k)
    with pytest.raises(InternalCheckError, match="LES inconsistency"):
        coh_table(k, lo, hi)
    code = main(["cohomology", "--sheaf", SCAN_SHEAF, "--tmin", str(lo), "--tmax", str(hi),
                 "--no-timestamp"])
    assert code == 3 and "LES inconsistency" in capsys.readouterr().err
    with pytest.raises(InternalCheckError, match="LES inconsistency"):
        acm_check(_not_acm_kernel())


README_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"


def test_les_cross_check_fails_when_the_degree_count_is_perturbed(monkeypatch, capsys):
    """h1 is a count of degrees (``degree_table``), so the LES check can fail
    from that side too: one more in each row's h1 must be refused, by coh_row
    and by ``qacm cohomology`` with exit 3."""
    k = build(parse(README_SHEAF))
    t = -3
    assert coh_row(k, t).h1 == 0
    real = qacm.quadric.degree_table
    monkeypatch.setattr(qacm.quadric, "degree_table", lambda d, lo, hi: CohTable(tuple(
        CohRow(r.t, r.h0, r.h1 + 1, r.h2) for r in real(d, lo, hi).rows)))
    with pytest.raises(InternalCheckError, match="LES inconsistency"):
        coh_row(k, t)
    code = main(["cohomology", "--sheaf", README_SHEAF, "--tmin", str(t), "--tmax", str(t),
                 "--no-timestamp"])
    assert code == 3 and "LES inconsistency" in capsys.readouterr().err


def _not_acm_kernel(h=u ** 2):
    """G(c=4,k=1,Z=[v,w^3],h) twisted by -1 (cover twists (1, -1, 0), relation
    twist -2), which splits as O_L(2) + O_L on L for h = u^2, glued to O(2) + O(0)."""
    g = ExtensionBundle(2, 2, 0, ci_from_forms(v, w ** 3), h)
    return make_kernel_sheaf(make_split_bundle(1, (2, 0)), g)


def test_a_kernel_sheaf_that_is_not_acm():
    """u is not injective on H1 of the other side everywhere: the kernel sheaf
    has h1 = 1 at t = -3, -2, -1, both h1 routes agreeing, and the aCM verdict
    is no."""
    k = _not_acm_kernel()
    table = coh_table(k, -8, 4)
    assert [(r.t, r.h1) for r in table.rows if r.h1] == [(-3, 1), (-2, 1), (-1, 1)]
    assert not acm_check(k).is_acm


def _drop_last_column(m):
    return RatMatrix.make(m.rows, m.cols - 1, [{j: x for j, x in r.items() if j < m.cols - 1}
                                               for r in m.data], m.den)


def _add_one_at_the_corner(m):
    """The matrix with 1 added to entry (0, 0), when it has one."""
    if not (m.rows and m.cols):
        return m
    first = dict(m.data[0])
    first[0] = first.get(0, 0) + m.den
    return RatMatrix.make(m.rows, m.cols, ({j: x for j, x in first.items() if x},) + m.data[1:],
                          m.den)


@pytest.mark.parametrize("target, name, mutate", [
    pytest.param(qacm.quadric, "relation_h2_kernel", _drop_last_column, id="kernel-column"),
    pytest.param(qacm.plane, "multiplication_matrix", _add_one_at_the_corner, id="builder-entry")])
def test_hilbert_check_fails_when_an_h2_kernel_is_perturbed(monkeypatch, capsys, target, name,
                                                            mutate):
    """Each H2 kernel a kernel-sheaf row reads must have the dimension the
    Hilbert function of the relation forms gives.  The README sheaf's kernel
    has dimensions 1, 2, 1 at t = -4, -3, -2.  Dropping a column of the kernel
    the table receives, or adding 1 to one entry of each matrix the plane
    builds (at t = -3 the H1-level relation on L is a zero 1 x 2 matrix), must
    be refused, by coh_row and by ``qacm cohomology`` with exit 3."""
    k = build(parse(README_SHEAF))
    t = -3
    assert coh_row(k, t) == CohRow(t, 0, 0, 1)
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *args: mutate(real(*args)))
    with pytest.raises(InternalCheckError, match="H2 kernel .* Hilbert function"):
        coh_row(k, t)
    code = main(["cohomology", "--sheaf", README_SHEAF, "--tmin", str(t), "--tmax", str(t),
                 "--no-timestamp"])
    assert code == 3 and "Hilbert function" in capsys.readouterr().err


@pytest.mark.parametrize("sheaf", [
    README_SHEAF, "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h=u+v)@H2,e=id)"],
    ids=["collinear", "u-free"])
def test_each_h2_kernel_is_hilbert_checked_once(monkeypatch, sheaf):
    """A table checks each H2 kernel of the other side once, where it computes
    it: the twists checked are the twists computed, each twist of the window
    once and none below it, collinear (on L) or u-free."""
    k = build(parse(sheaf))
    computed, checked = [], []
    compute, check = qacm.quadric.relation_h2_kernel, qacm.quadric.check_h2_kernel
    monkeypatch.setattr(qacm.quadric, "relation_h2_kernel",
                        lambda s, t: computed.append(t) or compute(s, t))
    monkeypatch.setattr(qacm.quadric, "check_h2_kernel",
                        lambda s, t, ker: checked.append(t) or check(s, t, ker))
    lo, hi = acm_window(k)
    coh_table(k, lo, hi)
    assert checked == computed == list(range(lo, hi + 1))


def test_a_twist_without_sections_builds_no_h0_matrix(monkeypatch):
    """No twist builds or ranks an H0-level map, with sections on a cover
    summand (O(3) has them from t = -3 on) or without."""
    k = build(parse(SCAN_SHEAF))
    assert max(k.twists) == 3
    expected = coh_table(k, -8, 8)
    _forbid_h0_maps(monkeypatch)
    assert coh_table(k, -8, 8) == expected
    assert [r.h0 for r in expected.rows] == [0] * 6 + [1, 5, 13, 25, 41, 61, 85, 113, 145, 181, 221]


def test_h2_counts_the_line_kernel():
    """h2 of a kernel sheaf holds the kernel of the H1-level restriction of the
    other side (the line kernel, h1) beside h2 of the components: the whole
    rows of the non-aCM sheaf, where that kernel is not 0, are pinned."""
    assert [(r.t, r.h0, r.h1, r.h2) for r in coh_table(_not_acm_kernel(), -5, 1).rows] == [
        (-5, 0, 0, 17), (-4, 0, 0, 7), (-3, 0, 1, 2), (-2, 0, 1, 0), (-1, 2, 1, 0),
        (0, 7, 0, 0), (1, 17, 0, 0)]


def _seeded_collinear(c, k, seed):
    return collinear_extension_kernel(c, k, [((1, r), 1) for r in seeded_line_values(seed, c - k)])


U_FREE_SHEAF = "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h={})@H2,e=id)"


@pytest.mark.parametrize("pair", [
    lambda: (_seeded_collinear(5, 2, 1), _seeded_collinear(5, 2, 2)),
    lambda: tuple(build(parse(U_FREE_SHEAF.format(h))) for h in ("u+v", "u+2*v")),
    lambda: (_not_acm_kernel(), _not_acm_kernel(u ** 2 + u * v)),
], ids=["collinear seeds", "u-free h", "not aCM h"])
def test_equal_degree_data_give_equal_checked_tables(pair):
    """A table is a function of the degree data: two kernel sheaves with
    different forms and equal ``DegreeData`` pass the checks on their own forms
    with the same rows."""
    k1, k2 = pair()
    assert k1.other != k2.other and k1.degree_data == k2.degree_data
    lo, hi = acm_window(k1)
    assert coh_table(k1, lo, hi) == coh_table(k2, lo, hi)


def test_h1_vanishes_outside_the_acm_window():
    """Over [-250, 250], h1 from the degrees is 0 outside ``acm_window`` on 100
    kernel sheaves: the scan pairs with c <= 16, the split pairs, both point
    extensions, the non-aCM sheaf and the u-free README kernel."""
    sheaves = ([_seeded_collinear(c, k, 0) for c, k in classify_pairs(16)]
               + [split_pair_kernel(c) for c in range(17)]
               + [point_extension_kernel(1), point_extension_kernel(2), _not_acm_kernel(),
                  build(parse(U_FREE_SHEAF.format("u+v")))])
    assert len(sheaves) == 100
    for k in sheaves:
        lo, hi = acm_window(k)
        outside = [r.t for r in degree_table(k.degree_data, -250, 250).rows
                   if r.h1 and not lo <= r.t <= hi]
        assert outside == [], k


# ---------------------------------------------------------------------------
# global generation


def test_global_generation_point_extension():
    k = point_extension_kernel(1)
    assert h1(k, -1) == 0 and h2(k, -2) == 0   # 0-regular
    assert global_generation_surjective(k)


@pytest.mark.parametrize("c,k", [(2, 1), (3, 1), (3, 2)])
def test_global_generation_collinear(c, k):
    kern = collinear_kernel(c, k)
    assert h1(kern, -1) == 0 and h2(kern, -2) == 0
    assert global_generation_surjective(kern)


# ---------------------------------------------------------------------------
# gluing variation


def test_diagonal_gluing_matches_identity():
    k = collinear_kernel(3, 1)
    rows = gluing_variation_report(k, [identity_gluing(), diagonal_gluing(2, 3)], -6, 3)
    assert all(r.equal_to_identity for r in rows)


def test_upper_gluing_reported():
    k = collinear_kernel(3, 1)
    beta = Form.from_dict(2, {(3, 0): 1})
    rows = gluing_variation_report(k, [upper_gluing(1, 1, beta)], -6, 3)
    assert len(rows) == 1
    assert rows[0].gluing.startswith("upper")
    assert len(rows[0].table.rows) == 10


def test_a_gluing_report_computes_one_table(monkeypatch):
    """No row reads the gluing, so a four-gluing report computes one table and
    gives it, equal to each gluing's own table, under every gluing.  Each gluing
    is still validated: an upper form of the wrong degree is refused."""
    k = collinear_kernel(3, 1)
    v2, w2 = Form.variable(2, "v"), Form.variable(2, "w")
    gluings = [identity_gluing(), diagonal_gluing(2, 3), upper_gluing(1, 1, v2 ** 3),
               upper_gluing(2, -1, v2 ** 3 - w2 ** 3)]
    calls, real = [], qacm.quadric.coh_table
    monkeypatch.setattr(qacm.quadric, "coh_table",
                        lambda kg, lo, hi: calls.append((lo, hi)) or real(kg, lo, hi))
    rows = gluing_variation_report(k, gluings, -6, 3)
    assert calls == [(-6, 3)]
    assert [r.gluing for r in rows] == ["id", "diag(2,3)", "upper(1,1,v^3)", "upper(2,-1,v^3 - w^3)"]
    for r, g in zip(rows, gluings):
        assert r.equal_to_identity and r.table == real(make_kernel_sheaf(k.split, k.other, g), -6, 3)
    with pytest.raises(ValueError, match="upper gluing form must have degree 3"):
        gluing_variation_report(k, gluings + [upper_gluing(1, 1, v2 ** 2)], -6, 3)


def test_gluing_report_trivializes_the_pair_once_whatever_the_gluings(monkeypatch, capsys):
    """Each --e is checked by ``check_gluing`` alone, and the split side's columns
    are the gluing matrix itself, so the one trivialization of the pair, the other
    side's (a mu-basis for this u-free G), is computed when the descriptor is built
    and never again, however many gluings are listed."""
    sheaf = "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h=u+v)@H2,e=id)"
    calls, real = [], qacm.quadric.trivialize_on_line
    monkeypatch.setattr(qacm.quadric, "trivialize_on_line",
                        lambda s: calls.append(s) or real(s))
    counts = []
    for gluings in (["id"], ["id", "diag(2,3)", "upper(1,1,v^2)", "upper(2,-1,v^2-w^2)"]):
        calls.clear()
        argv = ["gluing-report", "--sheaf", sheaf, "--tmin", "-4", "--tmax", "2", "--no-timestamp"]
        assert main(argv + [a for g in gluings for a in ("--e", g)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [1, 1]


def test_a_gluing_report_checks_its_gluings_before_the_table(monkeypatch, capsys):
    """An upper form of the wrong degree is refused before the one table is
    computed, so the run exits 2 with no table built."""
    monkeypatch.setattr(qacm.quadric, "coh_table", lambda *a: pytest.fail("a table was computed"))
    sheaf = "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h=u+v)@H2,e=id)"
    argv = ["gluing-report", "--sheaf", sheaf, "--e", "upper(1,1,v^3)", "--no-timestamp"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: upper gluing form must have degree 2\n")


def test_a_zero_gluing_scalar_is_reported_before_the_sides():
    """A zero scalar on an unnormalized split side is reported as the bad gluing."""
    with pytest.raises(ValueError, match="gluing scalars must be nonzero"):
        build(parse("K(F1=O(3)+O(1)@H1,F2=O(3)+O(0)@H2,e=diag(0,1))"))


@pytest.mark.parametrize("e, message", [
    (("diagonal", 0, 1), "gluing scalars must be nonzero"),
    (("upper", 1, 1, u), "beta must be a binary form on L"),
], ids=["zero scalar", "plane beta"])
def test_make_kernel_sheaf_checks_an_unchecked_gluing_before_the_sides(e, message):
    """A gluing built without ``check_gluing`` is refused by ``make_kernel_sheaf``
    first, before the sides are looked at."""
    with pytest.raises(ValueError, match=message):
        make_kernel_sheaf(make_split_bundle(1, (3, 1)), make_split_bundle(2, (3, 0)),
                          qacm.quadric.GluingData(*e))


def test_empty_gluing_list():
    assert gluing_variation_report(collinear_kernel(2, 1), [], -2, 2) == []


# ---------------------------------------------------------------------------
# rank-one sheaves


def test_rank_one_structure_sheaf():
    r = RankOneSheaf(2, -1, 0)
    assert rank_one_cohomology(r, 0, 0) == 1
    assert [rank_one_cohomology(r, 0, t) for t in (0, 1, 2)] == [1, 4, 9]


def test_rank_one_twisted_conic_ideal():
    assert rank_one_cohomology(RankOneSheaf(2, -1, -2), 0, 2) == 4


def test_rank_one_h1_vanishes_everywhere():
    for a in range(-4, 5):
        for b in range(-4, 5):
            for t in range(-6, 7):
                assert rank_one_cohomology(RankOneSheaf(1, a, b), 1, t) == 0


def test_rank_one_table_chi():
    table = plane_table(RankOneSheaf(1, -2, 1), -3, 3)
    for row in table.rows:
        assert row.chi == row.h0 - row.h1 + row.h2


# ---------------------------------------------------------------------------
# independent closed-form cross-checks


@pytest.mark.parametrize("c,k", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_h0_closed_route(c, k):
    """The split block of the assembled map is onto at every twist, so
    h0(K(t)) = h0(F1(t)) + h0(F2(t)) - h0(O_L(c+t)) - h0(O_L(t)) identically;
    this route uses only plane cohomology, not the assembled kernel."""
    from qacm.monomials import P1, cohomology_dim
    from qacm.plane import cohomology as plane_cohomology
    kern = collinear_kernel(c, k)
    for t in range(-c - 8, 6):
        closed = (plane_cohomology(kern.split, 0, t) + plane_cohomology(kern.other, 0, t)
                  - cohomology_dim(P1, 0, c + t) - cohomology_dim(P1, 0, t))
        assert h0(kern, t) == closed


def test_point_extension_serre_duality_on_x():
    """The Ulrich bundle is locally free with determinant O_X(1) and
    dualizing sheaf O_X(-2), so h2(K(t)) = h0(K(-3-t))."""
    k = point_extension_kernel(1)
    for t in range(-8, 5):
        assert h2(k, t) == h0(k, -3 - t)


def test_point_extension_hilbert_polynomial():
    """chi(K(t)) = 2(t+1)(t+2), the Hilbert polynomial of a rank-2 Ulrich
    sheaf on a degree-2 surface."""
    k = point_extension_kernel(2)
    for t in range(-6, 6):
        assert coh_row(k, t).chi == 2 * (t + 1) * (t + 2)


@pytest.mark.parametrize("c,k", [(2, 1), (4, 1), (5, 4), (6, 3)])
def test_restriction_invariant_formula(c, k):
    """The non-split side carries (c, k(c-k) + deg Z) with deg Z = c - k."""
    kern = collinear_kernel(c, k)
    assert restriction_invariants(kern) == ((c, 0), (c, k * (c - k) + (c - k)))
