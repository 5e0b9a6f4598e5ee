"""The H0-level map of a kernel sheaf is taken on L.

``quadric._assembled_matrix`` is the matrix of binary forms
Phi = [e o tau_split | -tau_other] on P1 sections.  The oracle below builds
the same map the long way, on the P2 sections of the two free covers: the
gluing matrix times each trivialization block times the 0/1 restriction
u := 0, from ``multiplication_matrix`` and ``restriction_matrix`` alone.  The
oracle's rank must be the rank taken on L, and the oracle must equal, entry
for entry, the composed matrix that global generation works with.  A table
row builds none of these: its h0 is a count of degrees, which must be what
the ranks of the oracle and of the other side's relation on H0 give."""

import pytest

from qacm.cli import classify_pairs, seeded_line_values
from qacm.linalg import RatMatrix, block_diag, hstack, rank
from qacm.monomials import (P1, P2, Form, basis, cohomology_dim, multiplication_matrix,
                            restriction_matrix)
from qacm.plane import trivialize_on_line
from qacm.quadric import (KernelSheaf, _assembled_matrix, _restriction, acm_window, coh_table,
                          collinear_extension_kernel, diagonal_gluing, identity_gluing,
                          make_kernel_sheaf, point_extension_kernel, split_pair_kernel,
                          upper_gluing)
from test_linalg import vstack
from test_plane import h1_restriction_kernel_dim, relation_h0_matrix

vv, ww = Form.variable(2, "v"), Form.variable(2, "w")


def _line_block(f: Form, a: int, e: int, t: int) -> RatMatrix:
    """Multiplication by f: H0(O_L(a + t)) -> H0(O_L(e + t)); zero forms mark
    impossible degrees."""
    src = basis(P1, 0, a + t)
    if f.is_zero:
        return RatMatrix.zero(cohomology_dim(P1, 0, e + t), src.dim)
    return multiplication_matrix([[f]], [src], [basis(P1, 0, e + t)])


def _restricted(sheaf, t: int) -> RatMatrix:
    """H0(F(t)) -> H0(O_L(c1 + t)) + H0(O_L(c2 + t)) on the free cover's sections."""
    triv = trivialize_on_line(sheaf)
    twists = sheaf.presentation.target_twists
    return vstack(*[hstack(*[_line_block(r, a, e, t) @ restriction_matrix(a + t)
                             for a, r in zip(twists, row)])
                    for e, row in zip(triv.degrees, triv.rows)])


def oracle_matrix(k, t: int) -> RatMatrix:
    """hstack(G @ T_s @ R_s, -T_o @ R_o) with the gluing matrix G built on its own."""
    hi, lo = cohomology_dim(P1, 0, k.c + t), cohomology_dim(P1, 0, t)
    beta = k.e.beta
    m_beta = (RatMatrix.zero(hi, lo) if beta is None or beta.is_zero
              else multiplication_matrix([[beta]], [basis(P1, 0, t)], [basis(P1, 0, k.c + t)]))
    g = vstack(hstack(_scalar(hi, k.e.alpha), m_beta),
               hstack(RatMatrix.zero(lo, hi), _scalar(lo, k.e.delta)))
    return hstack(g @ _restricted(k.split, t), _scalar(hi + lo, -1) @ _restricted(k.other, t))


def _scalar(n: int, s) -> RatMatrix:
    """s times the n x n identity."""
    return RatMatrix.from_dicts(n, n, [{i: s} for i in range(n)])


def _scan_sheaves():
    out = [(f"split{c}", c, lambda e, c=c: split_pair_kernel(c, e)) for c in (0, 2)]
    out += [(f"point{i}", 1, lambda e, i=i: point_extension_kernel(i, e)) for i in (1, 2)]
    for c, kk in classify_pairs(5):
        if (c, kk) in ((2, 1), (3, 1), (4, 2), (5, 2)):
            pts = [((1, r), 1) for r in seeded_line_values(0, c - kk)]
            out.append((f"collinear{c}{kk}", c,
                        lambda e, c=c, kk=kk, pts=pts: collinear_extension_kernel(c, kk, pts, e=e)))
    return out


def _gluings(c: int):
    return [("id", identity_gluing()),
            ("diag", diagonal_gluing(2, -3)),
            ("upper0", upper_gluing(3, 2, Form.zero(2))),
            ("upper", upper_gluing(2, -1, vv ** c - ww ** c * 2))]


@pytest.mark.parametrize("build, gluing", [
    pytest.param(build, g, id=f"{name}-{gname}")
    for name, c, build in _scan_sheaves() for gname, g in _gluings(c)])
def test_h0_on_line_matches_the_cover_section_oracle(build, gluing):
    k = build(gluing)
    lo, hi = acm_window(k)
    for t in range(lo, hi + 1):
        on_line = _assembled_matrix(k, t)
        oracle = oracle_matrix(k, t)
        assert rank(on_line) == rank(oracle)
        assert on_line.rows == oracle.rows
        assert on_line @ _restriction(k, t) == oracle


@pytest.mark.parametrize("build, gluing", [
    pytest.param(build, g, id=f"{name}-{gname}")
    for name, c, build in _scan_sheaves() for gname, g in _gluings(c)])
def test_h0_from_degrees_matches_the_ranked_h0_maps(build, gluing):
    """The ranked H0-level maps against the degree count of ``coh_table``: at
    every twist of the window the H0-level map onto L is onto (rank = rows),
    and h0 is the cover sections less the rank of the oracle and of the other
    side's relation on H0."""
    k = build(gluing)
    lo, hi = acm_window(k)
    for row in coh_table(k, lo, hi).rows:
        t = row.t
        on_line = _assembled_matrix(k, t)
        assert rank(on_line) == on_line.rows
        sections = sum(cohomology_dim(P2, 0, a + t) for a in k.twists)
        assert row.h0 == sections - rank(oracle_matrix(k, t)) - rank(relation_h0_matrix(k.other, t))


@pytest.mark.parametrize("drop", ["beta", "delta"])
def test_oracle_refuses_a_miscomposed_line_map(drop):
    """The oracle can fail: a line map without the beta * r_lo term, or without
    the delta scale, differs from it at some twist."""
    pts = [((1, r), 1) for r in seeded_line_values(0, 2)]
    base = collinear_extension_kernel(3, 1, pts)
    k = make_kernel_sheaf(base.split, base.other, upper_gluing(2, 5, vv ** 3 + ww ** 3))
    (s_hi, s_lo), (o_hi, o_lo) = trivialize_on_line(k.split).rows, trivialize_on_line(k.other).rows
    if drop == "beta":
        hi = tuple(r * k.e.alpha for r in s_hi) + tuple(-r for r in o_hi)
        bad = (hi, k.line_map[1])
    else:
        lo = tuple(s_lo) + tuple(-q for q in o_lo)
        bad = (k.line_map[0], lo)
    broken = KernelSheaf(k.split, k.other, k.e, k.c, k.twists, bad)
    assert all(_assembled_matrix(k, t) @ _restriction(k, t) == oracle_matrix(k, t)
               for t in range(-1, 4))
    assert any(_assembled_matrix(broken, t) @ _restriction(broken, t) != oracle_matrix(broken, t)
               for t in range(-1, 4))


def test_split_restriction_is_two_restriction_blocks():
    k = split_pair_kernel(3)
    r = block_diag(restriction_matrix(3), restriction_matrix(0))
    assert _assembled_matrix(k, 0) @ _restriction(k, 0) == hstack(r, _scalar(r.rows, -1) @ r)
    assert h1_restriction_kernel_dim(k.split, 0, None) == 0
