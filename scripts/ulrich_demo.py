#!/usr/bin/env python3
"""Walk through the distinguished Ulrich pair: the linear matrix
factorization of xy, its adjugate partner, rank behaviour on X, and the
agreement with the kernel-sheaf construction of the same sheaf."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qacm.mf import (MFPair, SAMPLE_POINTS, cokernel_hilbert, determinant,
                     partner_from_adjugate, rank_at_point, ulrich_example_matrix,
                     verify_mf)
from qacm.monomials import Form
from qacm.quadric import acm_check, coh_table, point_extension_kernel, ulrich_check


def show_matrix(name, m):
    print(f"{name} =")
    for row in m:
        print("   [" + ", ".join(f"{str(f):>4}" for f in row) + "]")


def main() -> int:
    n = ulrich_example_matrix(1)
    b = partner_from_adjugate(n)
    show_matrix("N", n)
    show_matrix("partner", b)
    q = Form.variable(4, "x") * Form.variable(4, "y")
    print("det N =", determinant(n))
    print("N*B = B*N = xy*I:", verify_mf(MFPair(n, b, q)))
    print("\nranks at the published sample points:")
    for pt, locus, in SAMPLE_POINTS:
        print(f"   {str(pt):>14}  {locus:>4}  rank {rank_at_point(n, pt)}")

    k = point_extension_kernel(1)
    print("\nkernel-sheaf construction of the same sheaf:")
    rep = acm_check(k)
    print("   aCM:", rep.is_acm)
    print("   Ulrich:", ulrich_check(k, rep.table))
    print("   h0 agreement with the matrix cokernel, t in [-2, 4]:")
    for r in coh_table(k, -2, 4).rows:
        print(f"     t={r.t:>2}  coker: {cokernel_hilbert(n, r.t):>3}  kernel sheaf: {r.h0:>3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
