"""The ``record`` value classes keep the semantics of frozen dataclasses: the
same construction, equality, hash, repr and immutability, pinned here on the
package's own classes, and importing the CLI loads no code generator."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qacm
from qacm.cli import ScanConfig
from qacm.descriptor import DLBSum, DRankOne, build, parse
from qacm.linalg import RatMatrix
from qacm.monomials import Form
from qacm.plane import CohRow, CohTable, DegreeData, ExtensionBundle
from qacm.quadric import GluingData, identity_gluing


def test_form_equality_and_hash_are_those_of_its_fields():
    u = Form.variable(3, "u")
    same = Form(3, u.terms)
    assert same == u and same is not u
    assert hash(u) == hash((3, u.terms, u.den))
    assert u != Form.variable(3, "v") and u != Form(2, u.terms)
    assert len({u, same, Form(num_vars=3, terms=u.terms, den=1)}) == 1
    assert u * Fraction(1, 2) == Form(3, u.terms, 2) != u


def test_degree_data_defaults_equality_and_hash():
    d = DegreeData((2, 0), -1)
    assert d == DegreeData((2, 0), -1, None) == DegreeData(cover=(2, 0), relation=-1)
    assert hash(d) == hash(((2, 0), -1, None))
    assert d != DegreeData((2, 0), -1, 3) and d != ((2, 0), -1, None)
    assert repr(d) == "DegreeData(cover=(2, 0), relation=-1, c=None)"


def test_a_one_field_record_hashes_the_one_tuple():
    rows = (CohRow(0, 1, 0, 0),)
    assert hash(CohTable(rows)) == hash((rows,)) != hash(rows)
    assert repr(CohTable(())) == "CohTable(rows=())"


def test_records_of_different_classes_are_not_equal():
    assert DLBSum((0, 0), 1) != DRankOne(1, 0, 0)
    assert DLBSum((0, 0), 1).__eq__(DRankOne(1, 0, 0)) is NotImplemented
    assert DLBSum((0, 0), 1) == DLBSum((0, 0), 1)


def test_a_record_refuses_assignment_and_deletion():
    row = CohRow(t=0, h0=1, h1=0, h2=0)
    with pytest.raises(AttributeError):
        row.h0 = 5
    with pytest.raises(AttributeError):
        row.chi_cache = 1
    with pytest.raises(AttributeError):
        del row.t
    assert row == CohRow(0, 1, 0, 0) and vars(row) == {"t": 0, "h0": 1, "h1": 0, "h2": 0}
    assert repr(row) == "CohRow(t=0, h0=1, h1=0, h2=0)"


def test_cached_properties_fill_the_instance_dict_unseen_by_equality():
    g = build(parse("G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2"))
    assert isinstance(g, ExtensionBundle)
    assert vars(g)["relation_common_zero_free"] is True  # set by make_extension_bundle
    assert g.presentation is g.presentation and "presentation" in vars(g)
    fresh = ExtensionBundle(g.side, g.c, g.k, g.ci, g.h)
    assert "presentation" not in vars(fresh)
    assert fresh == g and hash(fresh) == hash(g) == hash((g.side, g.c, g.k, g.ci, g.h))
    assert fresh.relation_common_zero_free is True


def test_rat_matrix_keeps_its_own_hash():
    m = RatMatrix.make(2, 2, ({0: 1}, {1: 3}), 2)
    assert vars(RatMatrix)["__hash__"].__qualname__ == "RatMatrix.__hash__"
    assert hash(m) == hash((2, 2, 2, (frozenset({(0, 1)}), frozenset({(1, 3)}))))
    assert m == RatMatrix.make(2, 2, ({0: 1}, {1: 3}), 2) and (m.data[1], m.den) == ({1: 3}, 2)


def test_gluing_data_defaults():
    e = GluingData("identity")
    assert (e.alpha, e.delta, e.beta) == (1, 1, None)
    assert e == identity_gluing() == GluingData("identity", Fraction(1), Fraction(1), None)
    assert GluingData("diagonal", delta=Fraction(2)) == GluingData("diagonal", 1, 2)
    assert repr(e) == ("GluingData(kind='identity', alpha=Fraction(1, 1), "
                       "delta=Fraction(1, 1), beta=None)")


@pytest.mark.parametrize("args, kwargs", [
    ((0, 1, 0), {}),                 # missing h2
    ((0, 1, 0, 0, 9), {}),           # one argument too many
    ((0, 1, 0, 0), {"chi": 1}),      # no such field
    ((0, 1, 0), {"t": 0}),           # t twice
])
def test_a_missing_or_extra_argument_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CohRow(*args, **kwargs)


def test_scan_config_is_frozen_and_checked_at_construction():
    config = ScanConfig(c_max=3)
    assert config == ScanConfig(3, 0, 8)
    with pytest.raises(AttributeError):
        config.c_max = 4
    with pytest.raises(ValueError, match="c_max must be >= 1"):
        ScanConfig(c_max=0)
    with pytest.raises(ValueError, match="window margin"):
        ScanConfig(window_margin=3)


def test_importing_the_cli_loads_no_code_generator_csv_or_datetime():
    """What ``import qacm.cli`` itself adds to ``sys.modules``, in a fresh
    interpreter: a --no-timestamp JSON run needs none of these modules."""
    code = ("import sys; before = set(sys.modules); import qacm.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(qacm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert not {"dataclasses", "inspect", "csv", "datetime"} & set(out)
    assert "qacm.cli" in out and "qacm.record" in out
