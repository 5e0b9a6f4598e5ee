"""Kernel bases are reproducible bit for bit: a digest of the bases of the
README kernel sheaf's relation matrices and of its assembled matrix on the
sections of the two free covers (the one global generation takes a kernel
of) over a window of twists, pinned to the value the dense-matrix
implementation produced."""

import hashlib

from qacm.descriptor import build, parse
from qacm.linalg import kernel_basis
from qacm.quadric import _assembled_matrix, _restriction
from p2_route import relation_h2_matrix
from test_plane import relation_h0_matrix

README_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"
GOLDEN = "639562179d7d9d2a1ff29b2d96a4d4474a4b794832801cc77fa47e4d65b7a6b5"


def test_kernel_basis_digest():
    k = build(parse(README_SHEAF))
    digest = hashlib.sha256()
    for t in range(-25, 3):
        for m in (relation_h2_matrix(k.other, t), relation_h0_matrix(k.other, t),
                  _assembled_matrix(k, t) @ _restriction(k, t)):
            b = kernel_basis(m)
            for j in range(b.cols):
                digest.update(repr(tuple(str(r.get(j, 0)) for r in b.data)).encode())
    assert digest.hexdigest() == GOLDEN
