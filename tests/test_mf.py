"""Matrix-factorization tests.  The rank-one oracle here is a brute-force
graded-ideal computation on the ambient ring: h0 of an extension sheaf is the
dimension of (x, F)_t / (xy)_t, computed by listing monomial multiples; it
does not share the cokernel route under test."""

import json

import pytest

import qacm.mf
from qacm.cli import main
from qacm.linalg import QQ, RatMatrix, rank
from qacm.mf import (MFPair, SAMPLE_POINTS, cokernel_hilbert, determinant,
                     form_matrix, is_linear_matrix,
                     partner_from_adjugate, rank_at_point,
                     ulrich_example_matrix, ulrich_linear_check, verify_cost, verify_mf)
from qacm.monomials import Form, GradedPiece, h0_exponents, multiplication_matrix
from qacm.quadric import RankOneSheaf, point_extension_kernel, h0 as kernel_h0, \
    rank_one_cohomology

x, y, z, w = (Form.variable(4, n) for n in "xyzw")


def test_example_matrix_rows():
    n = ulrich_example_matrix(1)
    zero = Form.zero(4)
    assert n == form_matrix([
        [y, z, w, zero],
        [zero, -x, zero, w],
        [zero, zero, -x, -z],
        [zero, zero, zero, y],
    ])


def test_example_determinant():
    assert determinant(ulrich_example_matrix(1)) == (x * y) ** 2
    assert determinant(ulrich_example_matrix(2)) == (x * y) ** 2


def test_partner_is_linear_and_factorizes():
    n = ulrich_example_matrix(1)
    b = partner_from_adjugate(n)
    assert is_linear_matrix(b)
    assert verify_mf(MFPair(n, b, x * y))


def test_partner_of_component_one_is_component_two():
    assert partner_from_adjugate(ulrich_example_matrix(1)) == ulrich_example_matrix(2)


def test_diag_partner():
    b = partner_from_adjugate(form_matrix([[x, 0], [0, y]]))
    assert b == form_matrix([[y, 0], [0, x]])


def test_partner_rejects_wrong_determinant():
    with pytest.raises(ValueError, match="det"):
        partner_from_adjugate(form_matrix([[x, 0], [0, x]]))


def test_verify_rejects_non_partner():
    n = ulrich_example_matrix(1)
    eye = form_matrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert not verify_mf(MFPair(n, eye, x * y))


def test_verify_symmetry():
    pair = MFPair(form_matrix([[x, 0], [0, y]]), form_matrix([[y, 0], [0, x]]), x * y)
    assert verify_mf(pair)


def test_verify_cost_counts_terms_entry_products_and_den_words():
    """[[x + y]] against [[z]] forms 2 term products and one entry product
    each way.  A 2048-bit den counts each term 3 times and adds its 2 words,
    squared, per entry of the sum.  A dense n x n matrix of 4-term linear
    forms against itself costs 2 n (4 n)^2 + 2 * 7 n^3 = 46 n^3."""
    one = form_matrix([[z]])
    assert verify_cost(form_matrix([[x + y]]), one) == 2 * (2 + 7)
    d = 2 ** 2047 + 1
    assert verify_cost(form_matrix([[x * QQ(1, d)]]), one) == 2 * (3 + 7 + 5 * 2 ** 2)
    dense = form_matrix([[x + y + z + w] * 3 for _ in range(3)])
    assert verify_cost(dense, dense) == 46 * 3 ** 3


def test_verify_refuses_a_product_entry_of_mixed_degrees():
    a = form_matrix([[x, 1], [0, 1]])
    b = form_matrix([[x, 0], [y, 0]])
    with pytest.raises(ValueError, match="adding forms of different degrees"):
        verify_mf(MFPair(a, b, x * y))


def test_verify_bound_is_far_above_the_distinguished_pair():
    n = ulrich_example_matrix(1)
    assert verify_cost(n, partner_from_adjugate(n)) * 10 ** 4 < qacm.mf.MAX_VERIFY_TERM_PRODUCTS


def test_rank_at_points():
    n = ulrich_example_matrix(1)
    assert rank_at_point(n, (0, 0, 1, 0)) == 2
    assert rank_at_point(n, (0, 1, 1, 1)) == 2
    assert rank_at_point(n, (1, 1, 0, 0)) == 4


def test_rank_at_all_sample_points():
    n = ulrich_example_matrix(1)
    for pt, locus in SAMPLE_POINTS:
        expected = 2 if locus in ("L", "H1", "H2") else 4
        assert rank_at_point(n, pt) == expected


def test_rank_at_zero_rejected():
    with pytest.raises(ValueError):
        rank_at_point(ulrich_example_matrix(1), (0, 0, 0, 0))


def test_cokernel_hilbert_values():
    n = ulrich_example_matrix(1)
    assert [cokernel_hilbert(n, t) for t in (-1, 0, 1)] == [0, 4, 12]


def test_cokernel_hilbert_rejects_nonlinear():
    with pytest.raises(ValueError, match="linear"):
        cokernel_hilbert(form_matrix([[x * y, 0], [0, 1]]), 0)


def cokernel_hilbert_by_rank(a, t: int) -> int:
    """Reference for ``cokernel_hilbert``: n h0(O_P3(t)) less the rank of the
    H0-level matrix of A: O(-1)^n -> O^n at twist t, built and eliminated."""
    a = form_matrix(a)
    if t < 0:
        return 0
    src, tgt = (GradedPiece("P3", d, h0_exponents(4, d)) for d in (t - 1, t))
    return len(a) * tgt.dim - rank(multiplication_matrix(a, [src] * len(a), [tgt] * len(a)))


_NONSINGULAR = {
    "N1": ulrich_example_matrix(1),
    "N2": ulrich_example_matrix(2),
    "partner of N1": partner_from_adjugate(ulrich_example_matrix(1)),
    "partner of N2": partner_from_adjugate(ulrich_example_matrix(2)),
    "[[x, y], [z, w]]": form_matrix([[x, y], [z, w]]),
}


@pytest.mark.parametrize("name", sorted(_NONSINGULAR))
def test_cokernel_hilbert_count_equals_the_rank_route(name):
    """The count n C(t + 2, 2) is the rank route on every nonsingular linear
    matrix tried, at every twist of [-1, 20]."""
    a = _NONSINGULAR[name]
    assert not determinant(a).is_zero
    for t in range(-1, 21):
        assert cokernel_hilbert(a, t) == cokernel_hilbert_by_rank(a, t) == \
            (len(a) * (t + 1) * (t + 2) // 2 if t >= 0 else 0)


def test_cokernel_hilbert_refuses_a_singular_matrix():
    """A singular linear matrix is not injective on sections, so the count
    would be wrong there: the rank route differs from it, and the matrix is
    refused."""
    a = form_matrix([[x, y], [x, y]])
    assert determinant(a).is_zero
    assert any(cokernel_hilbert_by_rank(a, t) != 2 * (t + 1) * (t + 2) // 2
               for t in range(1, 6))
    for t in (-1, 0, 3):
        with pytest.raises(ValueError, match="det"):
            cokernel_hilbert(a, t)


def test_mf_hilbert_builds_and_ranks_no_matrix(monkeypatch, capsys):
    """``qacm mf hilbert`` up to its twist limit is a count of degrees: it
    builds and eliminates nothing, and every row is 4 C(t + 2, 2)."""
    def refuse(*args, **kwargs):
        raise AssertionError("mf hilbert built or ranked a matrix")

    monkeypatch.setattr(qacm.mf, "rank", refuse)
    monkeypatch.setattr(qacm.mf, "multiplication_matrix", refuse, raising=False)
    assert main(["mf", "hilbert", "--component", "2", "--tmin", "-1", "--tmax", "250",
                 "--no-timestamp"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [{"t": t, "h0": 4 * (t + 1) * (t + 2) // 2 if t >= 0 else 0}
                    for t in range(-1, 251)]


def test_ulrich_linear_check():
    n = ulrich_example_matrix(1)
    assert ulrich_linear_check(n)
    rows = [list(r) for r in n]
    rows[0][0] = z * z
    assert not ulrich_linear_check(form_matrix(rows))
    assert not ulrich_linear_check(form_matrix([[x * y, 0], [0, 1]]))


def test_det_times_det_is_q_to_n():
    n = ulrich_example_matrix(1)
    b = partner_from_adjugate(n)
    assert determinant(n) * determinant(b) == (x * y) ** 4


def test_hilbert_polynomial_periodicity():
    """coker(N) and coker(partner) have the same Hilbert values (the pair
    presents the two components of one 2-periodic resolution)."""
    n = ulrich_example_matrix(1)
    b = partner_from_adjugate(n)
    assert [cokernel_hilbert(n, t) for t in (2, 3, 4)] == \
        [cokernel_hilbert(b, t) for t in (2, 3, 4)]


def test_cross_construction_identity():
    """h0 of the matrix cokernel equals h0 of the point-extension kernel sheaf
    at every twist in [-2, 4]: the two descriptions give the same sheaf."""
    n = ulrich_example_matrix(1)
    k = point_extension_kernel(1)
    for t in range(-2, 5):
        assert cokernel_hilbert(n, t) == kernel_h0(k, t)


@pytest.mark.parametrize("component", [1, 2])
def test_mf_example_builds_the_matrix_and_its_partner_once(monkeypatch, capsys, component):
    """``qacm mf example`` prints the matrix and partner its report carries: each
    is built once, and the partner is the adjugate partner of the matrix."""
    calls = []
    for name in ("ulrich_example_matrix", "partner_from_adjugate"):
        real = getattr(qacm.mf, name)
        monkeypatch.setattr(qacm.mf, name, lambda *a, _f=real: calls.append(_f.__name__) or _f(*a))
    assert main(["mf", "example", "--component", str(component), "--no-timestamp"]) == 0
    assert calls == ["ulrich_example_matrix", "partner_from_adjugate"]
    payload = json.loads(capsys.readouterr().out)
    a = ulrich_example_matrix(component)
    assert payload["matrix"] == [[str(f) for f in row] for row in a]
    assert payload["partner"] == [[str(f) for f in row] for row in partner_from_adjugate(a)]


# ---------------------------------------------------------------------------
# rank-one extensions cross-checked on the ambient graded ring


def _graded_piece_dim(gens, t):
    """dim of the degree-t piece of the ideal generated by ``gens`` in
    k[x,y,z,w], by listing monomial multiples (brute force)."""
    mons_t = h0_exponents(4, t)
    index = {m: i for i, m in enumerate(mons_t)}
    rows = []
    for g in gens:
        if g.degree is None or g.degree > t:
            continue
        for m in h0_exponents(4, t - g.degree):
            row = [QQ(0)] * len(mons_t)
            for e, cf in g.terms:
                row[index[tuple(a + b for a, b in zip(e, m))]] += QQ(cf, g.den)
            rows.append(row)
    if not rows:
        return 0
    return rank(RatMatrix.from_rows(rows))


@pytest.mark.parametrize("a,b", [(-1, -2), (-1, -3), (0, -1), (1, -1), (2, 0)])
def test_rank_one_formula_vs_ideal_quotient(a, b):
    """A nonsplit extension of O_{H1}(b) by O_{H2}(a) is, after twisting,
    the ideal sheaf of a plane curve of degree a+1-b inside X.  Its h0 is
    dim (x, F)_t - dim (xy)_t for F of that degree in k[y,z,w]; compare with
    the closed additivity formula."""
    deg_c = a + 1 - b
    assert deg_c >= 1
    f = (y + z + w) ** deg_c if deg_c > 1 else y + z + w
    xy = x * y
    sheaf = RankOneSheaf(2, a, b)
    for t in range(0, 5):
        shift = t + a + 1   # E = I_C(a+1) twisted by t
        lhs = _graded_piece_dim([x, f], shift) - _graded_piece_dim([xy], shift)
        assert lhs == rank_one_cohomology(sheaf, 0, t)
