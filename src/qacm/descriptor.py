"""The sheaf-descriptor mini-language: the single ingestion point for the CLI
and config files.

Grammar (whitespace insignificant, keywords case-sensitive):

    sheaf  := lbsum | ideal | ext | kernel | rank1
    lbsum  := "O(" int ")" { "+" "O(" int ")" } "@" plane
    ideal  := "I(" ci ")(" int ")" "@" plane
    ci     := "[" form "," form "]" | "points(" pt { ";" pt } ")"
    ext    := "G(c=" int ",k=" int ",Z=" ci ",h=" ( form | "auto" ) ")" "@" plane
    kernel := "K(F1=" sheaf ",F2=" sheaf ",e=" gluing ")"
    gluing := "id" | "diag(" rat "," rat ")" | "upper(" rat "," rat "," form ")"
    rank1  := "R1(side=" ("1"|"2") ",a=" int ",b=" int ")"
    plane  := "H1" | "H2"
    pt     := "[" rat ":" rat ":" rat "]"

Plane forms use (u, v, w), forms on the line use (v, w), ambient forms
(x, y, z, w); products need an explicit "*", powers use "^"; a number is
ASCII digits.  Parsing is total: any input produces either a Descriptor or a
positioned DescriptorParseError.  Semantic validation (regular sequences,
degree constraints, Cayley-Bacharach) happens in the constructing modules.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .linalg import QQ
from .monomials import VAR_NAMES, Form
from .plane import MAX_DEGREE_SUM, CIIdealSheaf, SplitBundle, ci_from_forms, ci_from_line_points, \
    make_extension_bundle, make_split_bundle
from .quadric import MAX_FORM_DEGREE, GluingData, RankOneSheaf, make_kernel_sheaf
from .record import record


class DescriptorParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


# --- AST ------------------------------------------------------------------


@record
class DCIForms:
    f1: Form
    f2: Form


@record
class DCIPoints:
    points: tuple  # ((u, v, w) rational triples)


@record
class DLBSum:
    twists: tuple
    plane: int


@record
class DIdeal:
    ci: object
    m: int
    plane: int


@record
class DExt:
    c: int
    k: int
    ci: object
    h: object  # Form or "auto"
    plane: int


@record
class DKernel:
    f1: object
    f2: object
    e: GluingData       # as parsed; ``build`` validates it


@record
class DRankOne:
    side: int
    a: int
    b: int


# --- tokenizer --------------------------------------------------------------

_PUNCT = set("()[]+-*/^,;:=@")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        start = (line, col)
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("NUM", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(("PUNCT", ch, start))
            col += 1
            i += 1
            continue
        raise DescriptorParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", (line, max(col - 1, 1) if col > 1 else 1)))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message, expected=()):
        kind, text, (line, col) = self.peek()
        raise DescriptorParseError(message, line, col, expected)

    def _got(self, expected):
        text = self.peek()[1]
        self.error(f"got {text!r}" if text else "unexpected end of input", expected)

    def expect_end(self):
        kind, text, _ = self.peek()
        if kind != "EOF":
            self.error(f"trailing input {text!r}")

    def accept(self, text) -> bool:
        """Consume the next token if its text is ``text`` (a punctuation mark
        or a name: the two never share a text)."""
        if self.peek()[1] != text:
            return False
        self.pos += 1
        return True

    def expect_punct(self, ch):
        if not self.accept(ch):
            self._got((repr(ch),))

    def expect_name(self, *names):
        text = self.peek()[1]
        if text not in names:
            self._got(names)
        self.pos += 1
        return text

    def args(self, brackets, *fields):
        """Read ``open field {sep field} close``, ``brackets`` the three marks
        (as "(,)"); a field is a parse method, or a (key, method) pair read as
        ``key=value``.  Returns the values read."""
        open_, sep, close = brackets
        self.expect_punct(open_)
        values = []
        for i, field in enumerate(fields):
            if i:
                self.expect_punct(sep)
            if isinstance(field, tuple):
                key, field = field
                self.expect_name(key)
                self.expect_punct("=")
            values.append(field())
        self.expect_punct(close)
        return values

    def _numeral(self) -> int:
        """The value of the NUM token at hand, consumed; a numeral longer than
        the interpreter converts to an int is refused at its token."""
        text = self.peek()[1]
        try:
            value = int(text)
        except ValueError:
            self.error(f"numeral of {len(text)} digits is beyond the integer conversion "
                       f"limit of {sys.get_int_max_str_digits()} digits")
        self.advance()
        return value

    def _check_digits(self, nums, den, at):
        """Refuse at ``at`` a coefficient num/den, num in ``nums``, whose numerator or
        denominator in lowest terms has more digits than ``str`` converts (a limit of 0
        is none).  From bit lengths: n < 8^limit is short; only a longer n meets 10^limit."""
        limit = sys.get_int_max_str_digits()
        for num in nums:
            n = max(abs(num), den)
            if limit and n.bit_length() > 3 * limit and n // gcd(num, den) >= 10 ** limit:
                raise DescriptorParseError("coefficient of more digits than the integer "
                                           f"conversion limit of {limit} digits", *at)

    def parse_int(self) -> int:
        neg = self.accept("-")
        if self.peek()[0] != "NUM":
            self._got(("an integer",))
        value = self._numeral()
        return -value if neg else value

    def parse_rat(self) -> Fraction:
        num = self.parse_int()
        if not self.accept("/"):
            return QQ(num)
        if self.peek()[0] != "NUM":
            self.error("denominator must be a positive integer", expected=("an integer",))
        den = self._numeral()
        if den == 0:
            self.error("zero denominator")
        return QQ(num, den)

    def parse_form(self, num_vars: int) -> Form:
        """One sum of the terms, as int numerators over one den; a term of a degree
        other than the nonzero sum's is refused as it comes, and a coefficient past
        ``_check_digits`` at the factor or term that takes it there."""
        names = VAR_NAMES[num_vars]
        acc, den, sign = {}, 1, self._sign() or 1
        while sign:
            at = self.peek()[2]
            term = self._parse_term(num_vars, names)
            for e, c in term.terms:             # one term, or none for a zero term
                if acc and sum(e) != sum(next(iter(acc))):
                    raise ValueError("adding forms of different degrees")
                if den % term.den:
                    scale = term.den // gcd(den, term.den)
                    acc, den = {x: y * scale for x, y in acc.items()}, den * scale
                acc[e] = acc.get(e, 0) + sign * c * (den // term.den)
                self._check_digits([acc[e]], den, at)
                if not acc[e]:
                    del acc[e]
            sign = self._sign()
        return Form.from_ints(num_vars, acc, den)

    def _sign(self):
        return 1 if self.accept("+") else -1 if self.accept("-") else None

    def _parse_term(self, num_vars, names) -> Form:
        out = self._parse_factor(num_vars, names)
        while self.accept("*"):
            at = self.peek()[2]
            f = self._parse_factor(num_vars, names)
            degree = (out.degree or 0) + (f.degree or 0)
            if degree > MAX_FORM_DEGREE:
                self.error(f"term of degree {degree} is beyond the form-degree limit "
                           f"{MAX_FORM_DEGREE}")
            out = out * f
            self._check_digits([c for _, c in out.terms], out.den, at)
        return out

    def _parse_factor(self, num_vars, names) -> Form:
        kind, text, _ = self.peek()
        if kind == "NUM":
            return Form.constant(num_vars, self.parse_rat())
        if kind == "NAME" and text in names:
            self.advance()
            exp = 1
            if self.accept("^"):
                k2, t2, _ = self.peek()
                if k2 != "NUM":
                    self.error("exponent must be a nonnegative integer", expected=("an integer",))
                digits = t2.lstrip("0") or "0"
                if len(digits) > len(str(MAX_FORM_DEGREE)) or int(digits) > MAX_FORM_DEGREE:
                    self.error(f"exponent {t2} is beyond the form-degree limit {MAX_FORM_DEGREE}")
                self.advance()
                exp = int(digits)
            return Form.from_ints(num_vars, {tuple(exp * (n == text) for n in names): 1})
        self._got(tuple(names) + ("a coefficient",))

    def _plane_form(self) -> Form:
        return self.parse_form(3)

    def parse_plane(self) -> int:
        self.expect_punct("@")
        return 1 if self.expect_name("H1", "H2") == "H1" else 2

    def parse_point(self):
        return tuple(self.args("[:]", self.parse_rat, self.parse_rat, self.parse_rat))

    def parse_ci(self):
        if self.peek()[1] == "[":
            return DCIForms(*self.args("[,]", self._plane_form, self._plane_form))
        if not self.accept("points"):
            self._got(("'['", "points"))
        self.expect_punct("(")
        pts = [self.parse_point()]
        while self.accept(";"):
            if len(pts) == MAX_DEGREE_SUM:
                self.error(f"more than {MAX_DEGREE_SUM} points: the form through them "
                           f"would pass the degree-sum limit {MAX_DEGREE_SUM}")
            pts.append(self.parse_point())
        self.expect_punct(")")
        return DCIPoints(tuple(pts))

    def parse_gluing(self) -> GluingData:
        name = self.expect_name("id", "diag", "upper")
        if name == "id":
            return GluingData("identity")
        if name == "diag":
            return GluingData("diagonal", *self.args("(,)", self.parse_rat, self.parse_rat))
        return GluingData("upper", *self.args("(,)", self.parse_rat, self.parse_rat,
                                              lambda: self.parse_form(2)))

    def _class(self):
        """G's extension class: "auto" or a plane form."""
        return "auto" if self.accept("auto") else self._plane_form()

    def _side(self) -> int:
        side = self.parse_int()
        if side not in (1, 2):
            self.error("side must be 1 or 2")
        return side

    def parse_sheaf(self):
        name = self.expect_name("O", "I", "G", "K", "R1")
        if name == "O":
            twists = self.args("(,)", self.parse_int)
            while self.accept("+"):
                self.expect_name("O")
                twists += self.args("(,)", self.parse_int)
            return DLBSum(tuple(twists), self.parse_plane())
        if name == "I":
            (ci,), (m,) = self.args("(,)", self.parse_ci), self.args("(,)", self.parse_int)
            return DIdeal(ci, m, self.parse_plane())
        if name == "G":
            c, k, ci, h = self.args("(,)", ("c", self.parse_int), ("k", self.parse_int),
                                    ("Z", self.parse_ci), ("h", self._class))
            return DExt(c, k, ci, h, self.parse_plane())
        if name == "K":
            f1, f2, e = self.args("(,)", ("F1", self._parse_kernel_child),
                                  ("F2", self._parse_kernel_child), ("e", self.parse_gluing))
            if f1.plane == f2.plane:
                self.error("F1 and F2 must live on different planes")
            return DKernel(f1, f2, e)
        return DRankOne(*self.args("(,)", ("side", self._side), ("a", self.parse_int),
                                   ("b", self.parse_int)))

    def _parse_kernel_child(self):
        """A plane sheaf; refusing K and R1 before descending bounds the
        nesting depth at one."""
        if self.peek()[1] in ("K", "R1"):
            self.error("kernel components must be sheaves on a single plane")
        return self.parse_sheaf()


def _whole(text, production):
    """``production`` (a _Parser method) run over the whole of ``text``."""
    if not isinstance(text, str):
        raise DescriptorParseError("input must be a string", 1, 1)
    p = _Parser(text)
    node = production(p)
    p.expect_end()
    return node


def parse(text: str):
    """Parse a descriptor; raises DescriptorParseError on any malformed input."""
    return _whole(text, _Parser.parse_sheaf)


# --- printer -----------------------------------------------------------------


def _print_ci(ci) -> str:
    if isinstance(ci, DCIForms):
        return f"[{ci.f1},{ci.f2}]"
    pts = ";".join(f"[{a}:{b}:{c}]" for a, b, c in ci.points)
    return f"points({pts})"


def to_text(node) -> str:
    """Canonical text of a descriptor; reparses to an equal AST."""
    if isinstance(node, DLBSum):
        body = "+".join(f"O({t})" for t in node.twists)
        return f"{body}@H{node.plane}"
    if isinstance(node, DIdeal):
        return f"I({_print_ci(node.ci)})({node.m})@H{node.plane}"
    if isinstance(node, DExt):
        h = "auto" if isinstance(node.h, str) else str(node.h)
        return f"G(c={node.c},k={node.k},Z={_print_ci(node.ci)},h={h})@H{node.plane}"
    if isinstance(node, DKernel):
        return f"K(F1={to_text(node.f1)},F2={to_text(node.f2)},e={node.e.describe()})"
    if isinstance(node, DRankOne):
        return f"R1(side={node.side},a={node.a},b={node.b})"
    raise ValueError(f"not a descriptor node: {node!r}")


# --- builder -----------------------------------------------------------------


def _build_ci(ci):
    if isinstance(ci, DCIForms):
        return ci_from_forms(ci.f1, ci.f2)
    pts = []
    for (a, b, c) in ci.points:
        if a != 0:
            raise ValueError("points(...) subschemes must lie on the line u = 0")
        pts.append(((b, c), 1))
    return ci_from_line_points(pts)


def _check_degree_sum(node: DExt) -> None:
    """Refuse, before Z is built, a G whose class h, of degree 2k - c + d1 + d2
    whether given or searched (h=auto), would be tested with Z up to a sum of
    degrees past MAX_DEGREE_SUM; ``ci_from_forms`` bounds the pair itself."""
    ci = node.ci
    d1, d2 = (f.degree or 0 for f in (ci.f1, ci.f2)) if isinstance(ci, DCIForms) \
        else (1, len(ci.points))
    deg_h = 2 * node.k - node.c + d1 + d2
    if d1 + d2 + deg_h > MAX_DEGREE_SUM:
        raise ValueError(f"the forms of Z and h (h of degree {deg_h}) have degrees summing to "
                         f"{d1 + d2 + deg_h}, beyond the degree-sum limit {MAX_DEGREE_SUM}")


def build(node):
    """Turn a parsed descriptor into the corresponding sheaf object; semantic
    constraints are enforced by the constructors and surface as ValueError."""
    if isinstance(node, DLBSum):
        return make_split_bundle(node.plane, node.twists)
    if isinstance(node, DIdeal):
        return CIIdealSheaf(node.plane, _build_ci(node.ci), node.m)
    if isinstance(node, DExt):
        _check_degree_sum(node)
        return make_extension_bundle(node.c, node.k, _build_ci(node.ci), node.h,
                                     side=node.plane)
    if isinstance(node, DKernel):
        s1 = build(node.f1)
        s2 = build(node.f2)
        if isinstance(s1, SplitBundle):
            f_split, f_other = s1, s2
        elif isinstance(s2, SplitBundle):
            f_split, f_other = s2, s1
        else:
            raise ValueError("a kernel sheaf of simple type needs one split side")
        return make_kernel_sheaf(f_split, f_other, node.e)
    if isinstance(node, DRankOne):
        return RankOneSheaf(node.side, node.a, node.b)
    raise ValueError(f"not a descriptor node: {node!r}")


def parse_gluing(text: str) -> GluingData:
    """Parse a lone gluing, "id", "diag(a,d)" or "upper(a,d,form)", as written;
    ``check_gluing`` validates it."""
    return _whole(text, _Parser.parse_gluing)


def parse_ambient_form(text: str) -> Form:
    """Standalone parser for forms in (x, y, z, w), used by the matrix-
    factorization file interface."""
    return _whole(text, lambda p: p.parse_form(4))
