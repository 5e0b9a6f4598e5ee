import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qacm.descriptor
import qacm.plane
from qacm.cli import main
from qacm.descriptor import (DCIForms, DCIPoints, DExt, DIdeal,
                             DKernel, DLBSum, DRankOne, DescriptorParseError,
                             build, parse, parse_ambient_form, parse_gluing,
                             to_text)
from qacm.monomials import Form, h0_exponents
from qacm.plane import CIIdealSheaf, ci_from_forms
from qacm.quadric import GluingData, KernelSheaf, RankOneSheaf

QQ = Fraction


# ---------------------------------------------------------------------------
# examples


def test_parse_split_bundle():
    assert parse("O(3)+O(0)@H1") == DLBSum((3, 0), 1)


def test_parse_kernel_request():
    d = parse("K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=[u,v*w],h=auto)@H2,e=id)")
    assert isinstance(d, DKernel)
    assert d.f1 == DLBSum((3, 0), 1)
    assert isinstance(d.f2, DExt) and (d.f2.c, d.f2.k) == (3, 1)
    assert d.e.kind == "identity"


def test_build_kernel_request():
    k = build(parse("K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=[u,v*w],h=auto)@H2,e=id)"))
    assert isinstance(k, KernelSheaf)
    assert k.c == 3


def test_semantic_degree_error():
    with pytest.raises(ValueError, match="c - k"):
        build(parse("G(c=1,k=2,Z=[u,v],h=auto)@H2"))


def test_locally_free_error_on_build():
    # parses fine; the constructor rejects the class (vanishes on Z)
    text = "G(c=3,k=1,Z=[u,v*w],h=v^2)@H2"
    assert isinstance(parse(text), DExt)
    with pytest.raises(ValueError, match="Cayley-Bacharach"):
        build(parse(text))


def test_parse_rank_one():
    assert parse("R1(side=2,a=-1,b=0)") == DRankOne(2, -1, 0)
    assert isinstance(build(parse("R1(side=2,a=-1,b=0)")), RankOneSheaf)


def test_parse_points():
    d = parse("I(points([0:1:3];[0:1:5]))(2)@H2")
    assert d == DIdeal(DCIPoints(((QQ(0), QQ(1), QQ(3)), (QQ(0), QQ(1), QQ(5)))), 2, 2)
    obj = build(d)
    assert obj.ci.points is not None


def test_points_off_line_rejected_at_build():
    with pytest.raises(ValueError, match="u = 0"):
        build(parse("I(points([1:0:0]))(1)@H1"))


def _count_validations(monkeypatch) -> dict:
    """Counts of the calls to ci_from_forms and to the plane's rank."""
    counts = {"ci_from_forms": 0, "rank": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    counting(qacm.descriptor, "ci_from_forms")
    counting(qacm.plane, "ci_from_forms")
    counting(qacm.plane, "rank")
    return counts


@pytest.mark.parametrize("text, validations, ranks", [
    ("I([u,v^2000])(0)@H1", 1, 0), ("I([v^2000+u*w^1999,u])(0)@H2", 1, 0),
    ("I([v,w+u])(1)@H2", 1, 0), ("I([v,v+u])(0)@H2", 1, 2),
    ("I(points([0:1:3];[0:1:5]))(2)@H2", 0, 0),
], ids=["u-first", "u-second", "plane-pair", "plane-pair-sharing-a-root-on-L", "points"])
def test_an_ideal_descriptor_is_validated_once(monkeypatch, text, validations, ranks):
    """(u, g) is a regular sequence exactly when g|_L != 0, and another pair is
    one when it is coprime on L; both are decided with no rank of a P2 matrix
    whatever the degrees.  A pair with u that shares a root on L takes two
    ranks.  I(...) is validated once, by the subscheme it names."""
    counts = _count_validations(monkeypatch)
    assert isinstance(build(parse(text)), CIIdealSheaf)
    assert counts == {"ci_from_forms": validations, "rank": ranks}


def test_a_u_free_pair_with_a_common_factor_exits_2_with_no_rank(monkeypatch):
    """Two forms without u that share a root on L share a line through
    [1:0:0], so the pair is refused from its gcd on L, with no rank."""
    text = "I([v*w+w^2,v^2+v*w])(0)@H2"
    counts = _count_validations(monkeypatch)
    with pytest.raises(ValueError, match="Z not zero-dimensional"):
        build(parse(text))
    assert counts == {"ci_from_forms": 1, "rank": 0}
    code, out, err = _cohomology_exit(text)
    assert (code, out) == (2, "") and "Z not zero-dimensional" in err


@pytest.mark.parametrize("text", ["I([u,u*v])(0)@H1", "I([w*u^2,u])(1)@H2"])
def test_an_ideal_with_u_dividing_both_generators_exits_2(text):
    with pytest.raises(ValueError, match="Z not zero-dimensional"):
        build(parse(text))
    code, out, err = _cohomology_exit(text)
    assert (code, out) == (2, "") and "Z not zero-dimensional" in err


def test_parse_gluings():
    d = parse("K(F1=O(0)+O(0)@H1,F2=O(0)+O(0)@H2,e=diag(2,3))")
    assert d.e == GluingData("diagonal", QQ(2), QQ(3))
    d2 = parse("K(F1=O(3)+O(0)@H1,F2=O(3)+O(0)@H2,e=upper(1,1,v^3))")
    assert d2.e.kind == "upper" and d2.e.beta.degree == 3


def test_a_zero_gluing_scalar_parses_and_fails_to_build():
    """Parsing is total: the gluing is kept as written, and ``build``
    validates it."""
    d = parse("K(F1=O(0)+O(0)@H1,F2=O(0)+O(0)@H2,e=diag(0,3))")
    assert d.e == GluingData("diagonal", QQ(0), QQ(3))
    assert to_text(d).endswith("e=diag(0,3))")
    with pytest.raises(ValueError, match="gluing scalars must be nonzero"):
        build(d)


def test_parse_rational_coefficients():
    d = parse("I([u,3/2*v^2+w^2])(0)@H1")
    f2 = d.ci.f2
    assert (f2.terms, f2.den) == ((((0, 2, 0), 3), ((0, 0, 2), 2)), 2)


def test_whitespace_insensitive():
    a = parse("K( F1 = O(1)+O(0)@H1 , F2 = O(1)+O(0)@H2 , e = id )")
    b = parse("K(F1=O(1)+O(0)@H1,F2=O(1)+O(0)@H2,e=id)")
    assert a == b


def test_ambient_form_parser():
    f = parse_ambient_form("x*y - z^2")
    assert f.num_vars == 4 and f.degree == 2
    with pytest.raises(DescriptorParseError):
        parse_ambient_form("x*u")


# ---------------------------------------------------------------------------
# errors


@pytest.mark.parametrize("bad", [
    "", "O(", "O(3)@H3", "Q(3)", "O(3)@H1 junk", "points",
    "K(F1=O(0)@H1,F2=O(0)@H1,e=id)",
    "K(F1=R1(side=1,a=0,b=0),F2=O(0)@H2,e=id)",
    "G(c=2,k=0,Z=[u,v*w],h=1/0)@H1",
    "O(2)+@H1", "I([u])(0)@H1", "R1(side=3,a=0,b=0)",
    "K(F1=K(F1=O(0)@H1,F2=O(0)@H2,e=id),F2=O(0)@H2,e=id)",
    "O(\u00b2)@H1", "I([v^\u00b2,w])(0)@H1", "R1(side=1,a=\u00b2,b=0)", "O(\u0663)@H1",
])
def test_parse_errors_are_positioned(bad):
    with pytest.raises(DescriptorParseError) as err:
        parse(bad)
    assert err.value.line >= 1 and err.value.col >= 1
    lines = bad.split("\n")
    assert err.value.line <= max(1, len(lines))
    assert err.value.col <= len(lines[err.value.line - 1]) + 1


def _points(n):
    return "points(" + ";".join(f"[0:1:{i}]" for i in range(1, n + 1)) + ")"


@pytest.mark.parametrize("entry, text, message", [
    (parse, "G(c 1,k=0,Z=[v,w],h=auto)@H2", "1:5: got '1' (expected '=')"),
    (parse, "G(c=1,q=0,Z=[v,w],h=auto)@H2", "1:7: got 'q' (expected k)"),
    (parse, "G(c=1 k=0,Z=[v,w],h=auto)@H2", "1:7: got 'k' (expected ',')"),
    (parse, "G(c=1,k=0,Z=[v,w],h=auto@H2", "1:25: got '@' (expected ')')"),
    (parse, "G(c=1,k=0,Z=[v,w],h=)@H2", "1:21: got ')' (expected u, v, w, a coefficient)"),
    (parse, "O(3)@H3", "1:6: got 'H3' (expected H1, H2)"),
    (parse, "O(3)+O(@H1", "1:8: got '@' (expected an integer)"),
    (parse, "O(3)+P(1)@H1", "1:6: got 'P' (expected O)"),
    (parse, "I([u,v](0)@H1", "1:8: got '(' (expected ')')"),
    (parse, "I([u v])(0)@H1", "1:6: got 'v' (expected ',')"),
    (parse, "I(line)(0)@H1", "1:3: got 'line' (expected '[', points)"),
    (parse, "I(points([0:1 1]))(0)@H1", "1:15: got '1' (expected ':')"),
    (parse, "I(points([0:1:1],[0:1:2]))(0)@H1", "1:17: got ',' (expected ')')"),
    (parse, "I(points([0:1:2:3]))(0)@H1", "1:16: got ':' (expected ']')"),
    pytest.param(parse, "I(" + _points(601) + ")(0)@H1", "1:5902: more than 600 points: "
                 "the form through them would pass the degree-sum limit 600", id="601 points"),
    (parse, "I([u,1/0*v])(0)@H1", "1:9: zero denominator"),
    (parse, "I([u,1/-2*v])(0)@H1", "1:8: denominator must be a positive integer "
                                   "(expected an integer)"),
    (parse, "I([u,v^2001])(0)@H1", "1:8: exponent 2001 is beyond the form-degree limit 2000"),
    (parse, "I([u,v^w])(0)@H1", "1:8: exponent must be a nonnegative integer "
                                "(expected an integer)"),
    (parse, "K(F1=O(0)@H1;F2=O(0)@H2,e=id)", "1:13: got ';' (expected ',')"),
    (parse, "K(F1=O(0)@H1,F2=O(0)@H2,e=id", "1:28: unexpected end of input (expected ')')"),
    (parse, "K(F1=O(0)@H1,\nF2=O(0)@H2,\ne=id", "3:4: unexpected end of input "
                                                "(expected ')')"),
    (parse, "K(F1=O(0)@H1,F2=O(0)@H1,e=id)", "1:29: F1 and F2 must live on different planes"),
    (parse, "K(F1=K(F1=O(0)@H1,F2=O(0)@H2,e=id),F2=O(0)@H2,e=id)",
     "1:6: kernel components must be sheaves on a single plane"),
    (parse, "K(F1=O(0)@H1,F2=O(0)@H2,e=diag(1,2,3))", "1:35: got ',' (expected ')')"),
    (parse, "R1(side=3,a=0,b=0)", "1:10: side must be 1 or 2"),
    (parse, "R1(side=3 a=0,b=0)", "1:11: side must be 1 or 2"),
    (parse, "R1(side=1,a=0 b=0)", "1:15: got 'b' (expected ',')"),
    (parse, "R1(side=1,b=0,a=0)", "1:11: got 'b' (expected a)"),
    (parse, "O(3)@H1 junk", "1:9: trailing input 'junk'"),
    (parse, "", "1:1: unexpected end of input (expected O, I, G, K, R1)"),
    (parse, "Q(3)", "1:1: got 'Q' (expected O, I, G, K, R1)"),
    (parse, "(3)", "1:1: got '(' (expected O, I, G, K, R1)"),
    (parse, "O(3)@H1 !", "1:9: unexpected character '!'"),
    (parse_gluing, "diag(1;2)", "1:7: got ';' (expected ',')"),
    (parse_gluing, "upper(1,2)", "1:10: got ')' (expected ',')"),
    (parse_gluing, "upper(1,2,u)", "1:11: got 'u' (expected v, w, a coefficient)"),
    (parse_gluing, "swap", "1:1: got 'swap' (expected id, diag, upper)"),
    (parse_gluing, "id(1)", "1:3: trailing input '('"),
    (parse_ambient_form, "x*u", "1:3: got 'u' (expected x, y, z, w, a coefficient)"),
    (parse_ambient_form, "x+", "1:2: unexpected end of input (expected x, y, z, w, a coefficient)"),
    (parse_ambient_form, "x y", "1:3: trailing input 'y'"),
    (parse_ambient_form, "", "1:1: unexpected end of input (expected x, y, z, w, a coefficient)"),
])
def test_parse_error_text_is_pinned(entry, text, message):
    """The exact message, position and expected set of each production's and
    each separator's refusal, through all three entry points."""
    with pytest.raises(DescriptorParseError) as err:
        entry(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, col", [
    ("O(\u00b2)@H1", 3), ("I([v^\u00b2,w])(0)@H1", 6), ("R1(side=1,a=\u00b2,b=0)", 13),
    ("O(\u0663)@H1", 3),
])
def test_a_non_ascii_digit_is_an_unexpected_character(text, col):
    """A number is ASCII digits only: str.isdigit() admits digits that int()
    refuses or reads as another number."""
    with pytest.raises(DescriptorParseError) as err:
        parse(text)
    assert str(err.value) == f"1:{col}: unexpected character {text[col - 1]!r}"


def test_deep_nesting_is_a_parse_error():
    text = "K(F1=" * 64 + "O(0)@H1" + ")" * 64
    with pytest.raises(DescriptorParseError):
        parse(text)


# ---------------------------------------------------------------------------
# round-trip property


def _form(num_vars, degree):
    mons = h0_exponents(num_vars, degree)
    return st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)).map(
        lambda cs: Form.from_dict(num_vars, dict(zip(mons, cs)))).filter(
        lambda f: not f.is_zero)


def _forms3():
    return st.integers(1, 3).flatmap(lambda d: _form(3, d))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
planes = st.sampled_from([1, 2])


def _ci():
    return st.one_of(
        st.tuples(_forms3(), _forms3()).map(lambda t: DCIForms(*t)),
        st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3).map(
            lambda pts: DCIPoints(tuple((QQ(0), a, b) for a, b in pts))),
    )


def _lbsum(plane):
    return st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(
        lambda ts: DLBSum(tuple(ts), plane))


def _ideal(plane):
    return st.tuples(_ci(), st.integers(-3, 3)).map(lambda t: DIdeal(t[0], t[1], plane))


def _ext(plane):
    return st.tuples(st.integers(0, 4), st.integers(0, 3), _ci(),
                     st.one_of(st.just("auto"), _forms3())).map(
        lambda t: DExt(t[0], t[1], t[2], t[3], plane))


def _gluing():
    nonzero = rationals.filter(lambda q: q != 0)
    return st.one_of(
        st.just(GluingData("identity")),
        st.tuples(nonzero, nonzero).map(lambda t: GluingData("diagonal", *t)),
        st.tuples(nonzero, nonzero, st.integers(0, 3).flatmap(lambda d: _form(2, d))).map(
            lambda t: GluingData("upper", t[0], t[1], t[2])),
    )


def _plane_sheaf(plane):
    return st.one_of(_lbsum(plane), _ideal(plane), _ext(plane))


descriptors = st.one_of(
    planes.flatmap(_plane_sheaf),
    st.tuples(planes, st.booleans()).flatmap(
        lambda t: st.tuples(_plane_sheaf(t[0]), _plane_sheaf(3 - t[0]), _gluing()).map(
            lambda s: DKernel(s[0], s[1], s[2]))),
    st.tuples(planes, st.integers(-6, 6), st.integers(-6, 6)).map(
        lambda t: DRankOne(*t)),
)


@given(descriptors)
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(node):
    text = to_text(node)
    assert parse(text) == node
    assert to_text(parse(text)) == text


# ---------------------------------------------------------------------------
# totality fuzz


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_parse_is_total_on_arbitrary_text(text):
    try:
        parse(text)
    except DescriptorParseError:
        pass


@given(st.text(alphabet="OIGKR12()[]+-*/^,;:=@Hvuwzcke points auto diag", max_size=50))
@settings(max_examples=400, deadline=None)
def test_parse_is_total_on_grammar_alphabet(text):
    try:
        parse(text)
    except DescriptorParseError:
        pass


# ---------------------------------------------------------------------------
# parse -> build -> twists, to exit codes


def _cohomology_exit(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cohomology", "--sheaf", text, "--tmin", "-3", "--tmax", "2"])
    return code, out.getvalue(), err.getvalue()


@given(descriptors)
@settings(max_examples=100, deadline=None)
def test_cohomology_of_any_descriptor_ends_in_an_exit_code(node):
    """Every printable descriptor is parsed, built and tabled over [-3, 2]:
    the run ends in 0 (with a JSON report), 2 (input error) or 3 (a failed
    cross-check), and never in a traceback."""
    code, out, err = _cohomology_exit(to_text(node))
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["descriptor"] == to_text(node)


@pytest.mark.parametrize("text", ["I(points([1:0:0]))(1)@H1",
                                  "G(c=2,k=1,Z=points([0:1:2];[1:1:0]),h=auto)@H2"])
def test_cohomology_of_a_point_off_the_line_exits_2(text):
    code, out, err = _cohomology_exit(text)
    assert (code, out) == (2, "") and "u = 0" in err


# ---------------------------------------------------------------------------
# the degree limits


@pytest.mark.parametrize("text, message", [
    ("I([v^1000000,w])(0)@H2", "exponent 1000000 is beyond the form-degree limit 2000"),
    ("I([u,v^2001])(0)@H2", "exponent 2001 is beyond the form-degree limit 2000"),
    ("I([v^" + "9" * 5000 + ",w])(0)@H2", "is beyond the form-degree limit 2000"),
    ("I([u,v^1000*w^1001])(0)@H2", "term of degree 2001 is beyond the form-degree limit 2000"),
    ("I([u,v^1000*2*w*u^1000])(0)@H2", "term of degree 2001 is beyond the form-degree limit"),
    ("K(F1=O(1)+O(0)@H1,F2=O(1)+O(0)@H2,e=upper(1,1,v^2001))", "exponent 2001"),
    ("I(" + _points(601) + ")(0)@H2", "more than 600 points"),
    ("I([v^300,w^301+u^301])(0)@H2", "the forms of Z have degrees summing to 601, beyond "
                                     "the degree-sum limit 600"),
    ("I([v^400,w^400+u^400])(0)@H2", "summing to 800, beyond the degree-sum limit 600"),
    ("G(c=601,k=400,Z=[v,w^201],h=auto)@H2", "the forms of Z and h (h of degree 401) have "
                                             "degrees summing to 603, beyond the degree-sum"),
    ("G(c=79801,k=39801,Z=[v^200,w^200+u^200],h=auto)@H2", "summing to 601, beyond"),
    ("G(c=79801,k=39801,Z=[v^200,w^200+u^200],h=u^201)@H2", "summing to 601, beyond"),
    ("G(c=599,k=299,Z=" + _points(300) + ",h=auto)@H2", "summing to 601, beyond"),
    ("G(c=599,k=299,Z=[u,v^300],h=auto)@H2", "summing to 601, beyond"),
], ids=["exponent 10^6", "exponent 2001", "exponent of 5000 digits", "term 2001",
        "term 2001 with a coefficient", "gluing form 2001", "601 points", "pair 601",
        "pair 800", "G with Z of degree 201", "G of forms at 200 and h=auto",
        "G of forms at 200 and h given", "G with 300 points", "G with (u, g)"])
def test_a_degree_beyond_the_limits_exits_2_before_any_product(monkeypatch, text, message):
    """Each refusal of MAX_FORM_DEGREE and MAX_DEGREE_SUM exits 2 with a message
    naming the limit, in well under a second, before a product past it is formed
    or a subscheme is validated.  A pair is refused by ``ci_from_forms`` itself,
    before its gcd on L or any rank; G before its Z is built."""
    real_pow, real_mul = Form.__pow__, Form.__mul__

    def degree(f):
        return f.degree or 0 if isinstance(f, Form) else 0

    def bounded_pow(f, n):
        assert degree(f) * n <= 2000, "a power past the form-degree limit"
        return real_pow(f, n)

    def bounded_mul(f, g):
        assert degree(f) + degree(g) <= 2000, "a product past the form-degree limit"
        return real_mul(f, g)

    def refuse(*args, **kwargs):
        raise AssertionError("a subscheme was validated or built past the limits")

    monkeypatch.setattr(Form, "__pow__", bounded_pow)
    monkeypatch.setattr(Form, "__mul__", bounded_mul)
    for name in ("rank", "binary_forms_common_zero_free"):
        monkeypatch.setattr(qacm.plane, name, refuse)
    pair = text.startswith("I([")
    for name in ("ci_from_line_points", "make_extension_bundle") + ("ci_from_forms",) * (not pair):
        monkeypatch.setattr(qacm.descriptor, name, refuse)
    start = time.perf_counter()
    code, out, err = _cohomology_exit(text)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_ci_from_forms_refuses_a_pair_past_the_degree_sum_before_any_gcd(monkeypatch):
    """A direct caller of ``ci_from_forms`` is bounded too: the pair is refused
    before its gcd on L or a rank is taken."""
    u, v, w = (Form.variable(3, n) for n in "uvw")

    def refuse(*args):
        raise AssertionError("a pair past the limit was validated")

    for name in ("rank", "binary_forms_common_zero_free"):
        monkeypatch.setattr(qacm.plane, name, refuse)
    with pytest.raises(ValueError, match="the forms of Z have degrees summing to 601, beyond "
                                         "the degree-sum limit 600"):
        ci_from_forms(v ** 300, w ** 301 + u ** 301)


def test_degrees_at_the_limits_are_admitted():
    v, w, u = (Form.variable(3, n) for n in "vwu")
    assert parse("I([v^200,w^200+u^200])(0)@H2") == \
        DIdeal(DCIForms(v ** 200, w ** 200 + u ** 200), 0, 2)
    assert parse("I([u,v^1000*w^1000])(0)@H2").ci.f2.degree == 2000
    assert len(parse("I(" + _points(600) + ")(0)@H2").ci.points) == 600
    assert parse_ambient_form("x^2000").degree == 2000
    with pytest.raises(DescriptorParseError, match="form-degree limit 2000"):
        parse_ambient_form("x^1000*y^1001")
    assert isinstance(build(parse("I([v^300,w^300+u^300])(0)@H2")), CIIdealSheaf)
    assert build(parse("G(c=200,k=199,Z=[v,w],h=auto)@H2")).h.degree == 200
    assert build(parse("G(c=598,k=298,Z=[u,v^300],h=auto)@H2")).h.degree == 299


def test_parsing_forms_one_product_per_star_and_no_sum_of_forms(monkeypatch):
    """A power is one monomial built from its exponent vector, and a form one sum
    over its terms: parsing x^2000 forms no product, and parsing the 1,000-term
    form x^999 + x^998*z + ... forms one product per "*" and adds no two forms."""
    products, real_mul = [], Form.__mul__
    monkeypatch.setattr(Form, "__mul__", lambda f, g: products.append(g) or real_mul(f, g))
    monkeypatch.setattr(Form, "__add__", lambda f, g: pytest.fail("two forms added"))
    assert parse_ambient_form("x^2000") == Form.from_ints(4, {(2000, 0, 0, 0): 1})
    assert products == []
    text = "+".join("*".join(m for m in (f"x^{999 - i}" * (i < 999), f"z^{i}" * (i > 0)) if m)
                    for i in range(1000))
    assert text.startswith("x^999+x^998*z^1+") and text.endswith("+x^1*z^998+z^999")
    assert parse_ambient_form(text) == Form.from_ints(4, {(999 - i, 0, i, 0): 1
                                                          for i in range(1000)})
    assert len(products) == 998


def test_mf_verify_refuses_a_form_beyond_the_degree_limit(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"q": "x*y", "A": [["x^2001"]], "B": [["y"]]}))
    assert main(["mf", "verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exponent 2001 is beyond the form-degree limit 2000" in captured.err


# ---------------------------------------------------------------------------
# the coefficient limit


@pytest.fixture
def int_limit():
    """Set the interpreter's int-to-text digit limit for one test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


_N = "9" * 3000


@pytest.mark.parametrize("text, col", [
    (f"I([{_N}*{_N}*v,w])(0)@H2", 3005),
    (f"K(F1=O(1)+O(0)@H1,F2=O(1)+O(0)@H2,e=upper(1,1,{_N}*{_N}*v))", 3048),
], ids=["ideal", "gluing form"])
def test_a_coefficient_past_the_int_limit_is_refused_at_its_factor(int_limit, text, col):
    """A product of numerals whose coefficient has more digits than str()
    converts is a parse error at the factor that crosses the limit, not the
    printer's unpositioned ValueError after the table."""
    int_limit(4300)
    code, out, err = _cohomology_exit(text)
    assert (code, out) == (2, "")
    assert err == (f"error: 1:{col}: coefficient of more digits than the integer "
                   "conversion limit of 4300 digits\n")


def test_the_coefficient_limit_is_exact_and_covers_every_form(int_limit, tmp_path, capsys):
    """10^640 - 1 has 640 digits and 10^640 has 641: at a limit of 640 the one
    is admitted and the other refused, as a numerator, a denominator or a sum of
    like terms, in plane forms and ambient forms alike.  A limit of 0 is none."""
    int_limit(640)
    h = 10 ** 320
    node = parse(f"I([{h - 1}*{h + 1}*v,w])(0)@H2")
    assert node.ci.f1 == Form.from_ints(3, {(0, 1, 0): h * h - 1})
    assert to_text(node).startswith(f"I([{h * h - 1}*v,")
    assert parse_ambient_form(f"1/{h + 1}*x+1/{h + 3}*y").den == (h + 1) * (h + 3)
    message = "coefficient of more digits than the integer conversion limit of 640 digits"
    for text, col in [(f"{h}*{h}*x", 323), (f"1/{h}*1/{h}*x", 325),
                      (f"1/{h + 1}*x+1/{h + 3}*x", 327)]:
        with pytest.raises(DescriptorParseError) as err:
            parse_ambient_form(text)
        assert str(err.value) == f"1:{col}: {message}"
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"q": "x*y", "A": [[f"{h}*{h}*x"]], "B": [["y"]]}))
    assert main(["mf", "verify", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: 1:323: {message}\n")
    int_limit(0)
    assert parse_ambient_form(f"{h}*{h}*x") == Form.from_ints(4, {(1, 0, 0, 0): h * h})
