"""Scalar expression DSL: parser, tree, and jet evaluation.

Expressions are smooth complex-valued functions of declared real
coordinates.  The grammar is infix with standard precedence:

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := ("-" | "+") unary | power
    power   := atom ("^" exponent)?          # right-associative
    exponent:= signed integer | "(" signed integer "/" integer ")"
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Identifiers are declared coordinate names, the functions exp, log,
sqrt, sin, cos, or the builtin constants ``i`` (imaginary unit) and
``pi``.  Powers are by integer or rational exponent only.  Domain
restrictions (division, log, sqrt, fractional powers) are not checked
statically; scenarios declare exclusion predicates and samplers avoid
the excluded sets.

Expr objects also support Python operator syntax (+, -, *, /, **) so
library code can build expressions directly.
"""

from __future__ import annotations

import math

from .jets import jet_space

_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")
_CONSTANTS = {"i": 1j, "pi": math.pi}


class ExprError(ValueError):
    """Parse or evaluation error, with source position when parsing."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class Expr:
    """Base scalar expression node."""

    def eval_jet(self, space, coord_jets, n=1):
        """Jets at a block of ``n`` points, given the coordinates' jets
        there (see :mod:`.jets`)."""
        raise NotImplementedError

    def __call__(self, point):
        """Plain value at a point (sequence of real coordinates)."""
        space = jet_space(len(point), 0)
        jets = [space.coordinate(i, x) for i, x in enumerate(point)]
        return complex(self.eval_jet(space, jets)[0, 0, 0])

    # operator sugar for building expressions in library code
    def __add__(self, other):
        return Binary("+", self, as_expr(other))

    def __radd__(self, other):
        return Binary("+", as_expr(other), self)

    def __sub__(self, other):
        return Binary("-", self, as_expr(other))

    def __rsub__(self, other):
        return Binary("-", as_expr(other), self)

    def __mul__(self, other):
        return Binary("*", self, as_expr(other))

    def __rmul__(self, other):
        return Binary("*", as_expr(other), self)

    def __truediv__(self, other):
        return Binary("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return Binary("/", as_expr(other), self)

    def __neg__(self):
        return Unary("neg", self)

    def __pow__(self, p):
        if isinstance(p, tuple):
            return Pow(self, p[0], p[1])
        if not isinstance(p, int):
            raise ExprError("powers must be integer or rational (p, q) tuples")
        return Pow(self, p, 1)

    def __repr__(self):
        return f"<Expr {to_text(self)}>"


class Const(Expr):
    def __init__(self, value):
        self.value = complex(value)

    def eval_jet(self, space, coord_jets, n=1):
        return space.const([[self.value]], n)


class Coord(Expr):
    def __init__(self, index, name=None):
        self.index = index
        self.name = name or f"x{index}"

    def eval_jet(self, space, coord_jets, n=1):
        return coord_jets[self.index]


class Unary(Expr):
    OPS = ("neg", "exp", "log", "sqrt", "sin", "cos")

    def __init__(self, op, child):
        if op not in self.OPS:
            raise ExprError(f"unknown unary op {op!r}")
        self.op = op
        self.child = child

    def eval_jet(self, space, coord_jets, n=1):
        u = self.child.eval_jet(space, coord_jets, n)
        if self.op == "neg":
            return -u
        return getattr(space, self.op)(u)


class Binary(Expr):
    OPS = ("+", "-", "*", "/")

    def __init__(self, op, left, right):
        if op not in self.OPS:
            raise ExprError(f"unknown binary op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval_jet(self, space, coord_jets, n=1):
        a = self.left.eval_jet(space, coord_jets, n)
        b = self.right.eval_jet(space, coord_jets, n)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return space.scal_mul(a, b)
        return space.scal_mul(a, space.reciprocal(b))


class Pow(Expr):
    """Power by a rational exponent p/q (q >= 1)."""

    def __init__(self, base, p, q=1):
        if q < 1:
            raise ExprError("rational exponent must have positive denominator")
        self.base = base
        self.p = int(p)
        self.q = int(q)

    def eval_jet(self, space, coord_jets, n=1):
        u = self.base.eval_jet(space, coord_jets, n)
        return space.powr(u, self.p, self.q)


def as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Const(value)
    raise ExprError(f"cannot coerce {value!r} to an expression")


# ---------------------------------------------------------------------------
# tokenizer + Pratt parser


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, coords):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = {name: k for k, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self):
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing token {tok.text!r}", tok.pos)
        return e

    def expression(self, min_bp):
        tok = self.advance()
        left = self.nud(tok)
        while True:
            tok = self.peek()
            bp = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}.get(tok.kind, 0)
            if bp <= min_bp:
                break
            self.advance()
            if tok.kind == "^":
                p, q = self.exponent()
                left = Pow(left, p, q)
            else:
                right = self.expression(bp)
                left = Binary(tok.kind, left, right)
        return left

    def nud(self, tok):
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "(":
                if name not in _FUNCTIONS:
                    raise ExprError(f"unknown function {name!r}", tok.pos)
                self.advance()
                arg = self.expression(0)
                self.expect(")")
                return Unary(name, arg)
            if name in self.coords:
                return Coord(self.coords[name], name)
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise ExprError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if tok.kind == "-":
            return Unary("neg", self.expression(30))
        if tok.kind == "+":
            return self.expression(30)
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)

    def exponent(self):
        """Integer or parenthesised rational exponent after '^'."""
        tok = self.advance()
        sign = 1
        if tok.kind == "-":
            sign = -1
            tok = self.advance()
        if tok.kind == "number":
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                raise ExprError("exponent must be integer or rational", tok.pos)
            return sign * int(tok.text), 1
        if tok.kind == "(":
            num = self.advance()
            if num.kind == "-":
                sign = -sign
                num = self.advance()
            if num.kind != "number" or "." in num.text:
                raise ExprError("exponent numerator must be an integer", num.pos)
            self.expect("/")
            den = self.advance()
            if den.kind != "number" or "." in den.text:
                raise ExprError("exponent denominator must be an integer", den.pos)
            self.expect(")")
            return sign * int(num.text), int(den.text)
        raise ExprError("malformed exponent", tok.pos)


def parse(text, coords):
    """Parse a DSL expression over the named coordinates."""
    return _Parser(text, tuple(coords)).parse()


def to_text(e):
    """Canonical parenthesised text; parse(to_text(e)) evaluates identically."""
    if isinstance(e, Const):
        v = e.value
        if v.imag == 0:
            r = v.real
            return str(int(r)) if r == int(r) and abs(r) < 1e15 else repr(r)
        if v == 1j:
            return "i"
        return f"({_fmt(v.real)} + {_fmt(v.imag)}*i)" if v.real else f"({_fmt(v.imag)}*i)"
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_text(e.child)})"
        return f"{e.op}({to_text(e.child)})"
    if isinstance(e, Binary):
        return f"({to_text(e.left)} {e.op} {to_text(e.right)})"
    if isinstance(e, Pow):
        if e.q == 1:
            return f"{to_text(e.base)}^{e.p}" if e.p >= 0 else f"{to_text(e.base)}^-{-e.p}"
        return f"{to_text(e.base)}^({e.p}/{e.q})"
    raise ExprError(f"cannot print {e!r}")


def _fmt(x):
    return str(int(x)) if x == int(x) else repr(x)
