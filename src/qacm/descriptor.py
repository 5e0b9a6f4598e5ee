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
(x, y, z, w); products need an explicit "*", powers use "^".  Parsing is
total: any input produces either a Descriptor or a positioned
DescriptorParseError.  Semantic validation (regular sequences, degree
constraints, Cayley-Bacharach) happens in the constructing modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import QQ
from .monomials import VAR_NAMES, Form
from .plane import U, CIIdealSheaf, SplitBundle, ci_from_forms, ci_from_line_points, \
    make_extension_bundle, make_split_bundle
from .quadric import MAX_DEGREE_SUM, MAX_FORM_DEGREE, GluingData, RankOneSheaf, \
    diagonal_gluing, identity_gluing, make_kernel_sheaf, upper_gluing


class DescriptorParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class DCIForms:
    f1: Form
    f2: Form


@dataclass(frozen=True)
class DCIPoints:
    points: tuple  # ((u, v, w) rational triples)


@dataclass(frozen=True)
class DLBSum:
    twists: tuple
    plane: int


@dataclass(frozen=True)
class DIdeal:
    ci: object
    m: int
    plane: int


@dataclass(frozen=True)
class DExt:
    c: int
    k: int
    ci: object
    h: object  # Form or "auto"
    plane: int


@dataclass(frozen=True)
class DKernel:
    f1: object
    f2: object
    e: GluingData       # as parsed; ``build`` validates it


@dataclass(frozen=True)
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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

    def expect_end(self):
        kind, text, _ = self.peek()
        if kind != "EOF":
            self.error(f"trailing input {text!r}")

    def expect_punct(self, ch):
        kind, text, _ = self.peek()
        if kind != "PUNCT" or text != ch:
            self.error(f"got {text!r}" if text else "unexpected end of input", expected=(repr(ch),))
        return self.advance()

    def expect_name(self, *names):
        kind, text, _ = self.peek()
        if kind != "NAME" or (names and text not in names):
            self.error(f"got {text!r}" if text else "unexpected end of input",
                       expected=names or ("a name",))
        return self.advance()[1]

    def at_punct(self, ch) -> bool:
        kind, text, _ = self.peek()
        return kind == "PUNCT" and text == ch

    def parse_int(self) -> int:
        neg = False
        if self.at_punct("-"):
            self.advance()
            neg = True
        kind, text, _ = self.peek()
        if kind != "NUM":
            self.error(f"got {text!r}" if text else "unexpected end of input",
                       expected=("an integer",))
        self.advance()
        val = int(text)
        return -val if neg else val

    def parse_rat(self) -> Fraction:
        num = self.parse_int()
        if self.at_punct("/"):
            self.advance()
            kind, text, _ = self.peek()
            if kind != "NUM":
                self.error("denominator must be a positive integer", expected=("an integer",))
            self.advance()
            den = int(text)
            if den == 0:
                self.error("zero denominator")
            return QQ(num, den)
        return QQ(num)

    def parse_form(self, num_vars: int) -> Form:
        names = VAR_NAMES[num_vars]
        total = Form.zero(num_vars)
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        elif self.at_punct("+"):
            self.advance()
        while True:
            total = total + self._parse_term(num_vars, names) * sign
            if self.at_punct("+"):
                self.advance()
                sign = 1
            elif self.at_punct("-"):
                self.advance()
                sign = -1
            else:
                return total

    def _parse_term(self, num_vars, names) -> Form:
        out = self._parse_factor(num_vars, names)
        while self.at_punct("*"):
            self.advance()
            f = self._parse_factor(num_vars, names)
            degree = (out.degree or 0) + (f.degree or 0)
            if degree > MAX_FORM_DEGREE:
                self.error(f"term of degree {degree} is beyond the form-degree limit "
                           f"{MAX_FORM_DEGREE}")
            out = out * f
        return out

    def _parse_factor(self, num_vars, names) -> Form:
        kind, text, _ = self.peek()
        if kind == "NUM":
            return Form.constant(num_vars, self.parse_rat())
        if kind == "NAME" and text in names:
            self.advance()
            exp = 1
            if self.at_punct("^"):
                self.advance()
                k2, t2, _ = self.peek()
                if k2 != "NUM":
                    self.error("exponent must be a nonnegative integer", expected=("an integer",))
                digits = t2.lstrip("0") or "0"
                if len(digits) > len(str(MAX_FORM_DEGREE)) or int(digits) > MAX_FORM_DEGREE:
                    self.error(f"exponent {t2} is beyond the form-degree limit {MAX_FORM_DEGREE}")
                self.advance()
                exp = int(digits)
            return Form.variable(num_vars, text) ** exp
        self.error(f"got {text!r}" if text else "unexpected end of input",
                   expected=tuple(names) + ("a coefficient",))

    def parse_plane(self) -> int:
        self.expect_punct("@")
        name = self.expect_name("H1", "H2")
        return 1 if name == "H1" else 2

    def parse_point(self):
        self.expect_punct("[")
        a = self.parse_rat()
        self.expect_punct(":")
        b = self.parse_rat()
        self.expect_punct(":")
        c = self.parse_rat()
        self.expect_punct("]")
        return (a, b, c)

    def parse_ci(self):
        if self.at_punct("["):
            self.advance()
            f1 = self.parse_form(3)
            self.expect_punct(",")
            f2 = self.parse_form(3)
            self.expect_punct("]")
            return DCIForms(f1, f2)
        kind, text, _ = self.peek()
        if kind == "NAME" and text == "points":
            self.advance()
            self.expect_punct("(")
            pts = [self.parse_point()]
            while self.at_punct(";"):
                self.advance()
                if len(pts) == MAX_DEGREE_SUM:
                    self.error(f"more than {MAX_DEGREE_SUM} points: the form through them "
                               f"would pass the degree-sum limit {MAX_DEGREE_SUM}")
                pts.append(self.parse_point())
            self.expect_punct(")")
            return DCIPoints(tuple(pts))
        self.error(f"got {text!r}" if text else "unexpected end of input",
                   expected=("'['", "points"))

    def parse_gluing(self) -> GluingData:
        name = self.expect_name("id", "diag", "upper")
        if name == "id":
            return GluingData("identity")
        self.expect_punct("(")
        alpha = self.parse_rat()
        self.expect_punct(",")
        delta = self.parse_rat()
        if name == "diag":
            self.expect_punct(")")
            return GluingData("diagonal", alpha, delta)
        self.expect_punct(",")
        beta = self.parse_form(2)
        self.expect_punct(")")
        return GluingData("upper", alpha, delta, beta)

    def _parse_keyed(self, key):
        self.expect_name(key)
        self.expect_punct("=")

    def parse_sheaf(self):
        kind, text, _ = self.peek()
        if kind != "NAME":
            self.error(f"got {text!r}" if text else "unexpected end of input",
                       expected=("O", "I", "G", "K", "R1"))
        if text == "O":
            self.advance()
            twists = []
            self.expect_punct("(")
            twists.append(self.parse_int())
            self.expect_punct(")")
            while self.at_punct("+"):
                self.advance()
                self.expect_name("O")
                self.expect_punct("(")
                twists.append(self.parse_int())
                self.expect_punct(")")
            return DLBSum(tuple(twists), self.parse_plane())
        if text == "I":
            self.advance()
            self.expect_punct("(")
            ci = self.parse_ci()
            self.expect_punct(")")
            self.expect_punct("(")
            m = self.parse_int()
            self.expect_punct(")")
            return DIdeal(ci, m, self.parse_plane())
        if text == "G":
            self.advance()
            self.expect_punct("(")
            self._parse_keyed("c")
            c = self.parse_int()
            self.expect_punct(",")
            self._parse_keyed("k")
            k = self.parse_int()
            self.expect_punct(",")
            self._parse_keyed("Z")
            ci = self.parse_ci()
            self.expect_punct(",")
            self._parse_keyed("h")
            nk, ntext, _ = self.peek()
            if nk == "NAME" and ntext == "auto":
                self.advance()
                h = "auto"
            else:
                h = self.parse_form(3)
            self.expect_punct(")")
            return DExt(c, k, ci, h, self.parse_plane())
        if text == "K":
            self.advance()
            self.expect_punct("(")
            self._parse_keyed("F1")
            f1 = self._parse_kernel_child()
            self.expect_punct(",")
            self._parse_keyed("F2")
            f2 = self._parse_kernel_child()
            self.expect_punct(",")
            self._parse_keyed("e")
            e = self.parse_gluing()
            self.expect_punct(")")
            if f1.plane == f2.plane:
                self.error("F1 and F2 must live on different planes")
            return DKernel(f1, f2, e)
        if text == "R1":
            self.advance()
            self.expect_punct("(")
            self._parse_keyed("side")
            side = self.parse_int()
            if side not in (1, 2):
                self.error("side must be 1 or 2")
            self.expect_punct(",")
            self._parse_keyed("a")
            a = self.parse_int()
            self.expect_punct(",")
            self._parse_keyed("b")
            b = self.parse_int()
            self.expect_punct(")")
            return DRankOne(side, a, b)
        self.error(f"got {text!r}", expected=("O", "I", "G", "K", "R1"))

    def _parse_kernel_child(self):
        """A plane sheaf; refusing K and R1 before descending bounds the
        nesting depth at one."""
        kind, text, _ = self.peek()
        if kind == "NAME" and text in ("K", "R1"):
            self.error("kernel components must be sheaves on a single plane")
        return self.parse_sheaf()


def parse(text: str):
    """Parse a descriptor; raises DescriptorParseError on any malformed input."""
    if not isinstance(text, str):
        raise DescriptorParseError("input must be a string", 1, 1)
    p = _Parser(text)
    node = p.parse_sheaf()
    p.expect_end()
    return node


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


def _check_degree_sum(node) -> None:
    """Refuse, before anything is built, a plane sheaf whose validation would
    multiply its forms past MAX_DEGREE_SUM: a pair without u is ranked at
    d1 + d2, and G's class h, of degree 2k - c + d1 + d2 whether given or
    searched (h=auto), is tested with Z up to d1 + d2 + deg h - 2."""
    ci = node.ci
    if isinstance(ci, DCIForms):
        d1, d2 = (f.degree or 0 for f in (ci.f1, ci.f2))
    else:
        d1, d2 = 1, len(ci.points)
    if isinstance(node, DExt):
        deg_h = 2 * node.k - node.c + d1 + d2
        total, what = d1 + d2 + deg_h, f"Z and h (h of degree {deg_h})"
    elif isinstance(ci, DCIForms) and U not in (ci.f1, ci.f2):
        total, what = d1 + d2, "Z"
    else:
        return
    if total > MAX_DEGREE_SUM:
        raise ValueError(f"the forms of {what} have degrees summing to {total}, beyond "
                         f"the degree-sum limit {MAX_DEGREE_SUM}")


def _build_gluing(e: GluingData) -> GluingData:
    if e.kind == "identity":
        return identity_gluing()
    if e.kind == "diagonal":
        return diagonal_gluing(e.alpha, e.delta)
    return upper_gluing(e.alpha, e.delta, e.beta)


def build(node):
    """Turn a parsed descriptor into the corresponding sheaf object; semantic
    constraints are enforced by the constructors and surface as ValueError."""
    if isinstance(node, DLBSum):
        return make_split_bundle(node.plane, node.twists)
    if isinstance(node, DIdeal):
        _check_degree_sum(node)
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
        return make_kernel_sheaf(f_split, f_other, _build_gluing(node.e))
    if isinstance(node, DRankOne):
        return RankOneSheaf(node.side, node.a, node.b)
    raise ValueError(f"not a descriptor node: {node!r}")


def parse_gluing(text: str) -> GluingData:
    """Parse and build a lone gluing: "id", "diag(a,d)" or "upper(a,d,form)"."""
    p = _Parser(text)
    node = p.parse_gluing()
    p.expect_end()
    return _build_gluing(node)


def parse_ambient_form(text: str) -> Form:
    """Standalone parser for forms in (x, y, z, w), used by the matrix-
    factorization file interface."""
    p = _Parser(text)
    f = p.parse_form(4)
    p.expect_end()
    return f
