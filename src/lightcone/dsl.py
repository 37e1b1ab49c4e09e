"""Tiny expression language for user-defined charts.

A program is a form name followed by a bracketed component list:

    r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]

The form fixes how many components are expected and which embedding
carries them into the light cone.  Components are expressions in ``u``,
``v``, ``pi``, free parameters, and the usual arithmetic; ``^`` is
exponentiation and binds right.  Free parameters are bound at chart
construction time.
"""

import re

import numpy as np

from .charts import (SurfaceChart, embed_flat, embed_hyperbolic,
                     embed_sphere)
from .errors import (ArityMismatch, DomainError, ParameterOutOfRange,
                     ParseError, UnknownIdentifier)
from .jets import Jet2, JetVec6

FUNCTIONS = {
    "sin": (Jet2.sin, np.sin),
    "cos": (Jet2.cos, np.cos),
    "sinh": (Jet2.sinh, np.sinh),
    "cosh": (Jet2.cosh, np.cosh),
    "exp": (Jet2.exp, np.exp),
    "sqrt": (Jet2.sqrt, np.sqrt),
}

FORMS = {
    "raw6": (6, JetVec6.from_components),
    "r41": (4, embed_flat),
    "s41": (5, embed_sphere),
    "h41": (5, embed_hyperbolic),
    "r3": (3, lambda xs: embed_flat(list(xs) + [1.0])),
    "r31": (3, lambda xs: embed_flat([1.0] + list(xs))),
}

# ASCII classes only: str patterns would let \d and \w match other
# scripts' digits and letters
_TOKEN = re.compile(r"""
    (?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<single>[-+*/^()\[\],])
  | (?P<space>[ \t\r]+)
  | (?P<newline>\n)
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError("unexpected character {!r}".format(text[pos]),
                             line, pos - start + 1)
        kind, word = match.lastgroup, match.group()
        if kind == "newline":
            line, start = line + 1, match.end()
        elif kind != "space":
            tokens.append(_Token(word if kind == "single" else kind, word,
                                 line, pos - start + 1))
        pos = match.end()
    tokens.append(_Token("end", "", line, pos - start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                "expected {!r}, found {!r}".format(kind, tok.text or "end"),
                tok.line, tok.col)
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            return ("bin", "^", node, self.unary())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(
                        "unknown function {!r}".format(tok.text),
                        name=tok.text, line=tok.line, col=tok.col)
                self.next()
                arg = self.expr()
                if self.peek().kind == ",":
                    raise ArityMismatch(
                        "{!r} takes one argument".format(tok.text),
                        name=tok.text)
                self.expect(")")
                return ("call", tok.text, arg)
            return ("name", tok.text)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("expected an expression, found {!r}"
                         .format(tok.text or "end"), tok.line, tok.col)


def parse_program(text):
    """Parse a chart program into ``(form_name, tuple_of_expressions)``."""
    parser = _Parser(_tokenize(text))
    head = parser.expect("ident")
    if head.text not in FORMS:
        raise UnknownIdentifier("unknown form {!r}".format(head.text),
                                name=head.text, line=head.line,
                                col=head.col)
    parser.expect("[")
    exprs = [parser.expr()]
    while parser.peek().kind == ",":
        parser.next()
        exprs.append(parser.expr())
    parser.expect("]")
    parser.expect("end")
    arity = FORMS[head.text][0]
    if len(exprs) != arity:
        raise ArityMismatch(
            "form {!r} takes {} components, got {}".format(
                head.text, arity, len(exprs)),
            form=head.text, expected=arity, got=len(exprs))
    return head.text, tuple(exprs)


def evaluate(node, env):
    """Evaluate an expression tree over an environment of jets."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "name":
        try:
            return env[node[1]]
        except KeyError:
            raise UnknownIdentifier("unbound name {!r}".format(node[1]),
                                    name=node[1]) from None
    if kind == "call":
        arg = evaluate(node[2], env)
        jet_fn, scalar_fn = FUNCTIONS[node[1]]
        if isinstance(arg, Jet2):
            return jet_fn(arg)
        out = scalar_fn(float(arg))
        if not np.isfinite(out):
            raise DomainError("{}({}) is not finite".format(node[1], arg))
        return float(out)
    if kind == "neg":
        return -evaluate(node[1], env)
    op = node[1]
    left = evaluate(node[2], env)
    right = evaluate(node[3], env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(right, Jet2):
            return left / right
        if right == 0 or not np.isfinite(1.0 / right):
            raise DomainError("division by a constant too close to zero",
                              divisor=float(right))
        return left * (1.0 / right)
    # exponentiation: the exponent must come out constant
    if isinstance(right, Jet2):
        if right.nilpotent_norm() > 1e-14:
            raise DomainError("exponent must be constant",
                              exponent_spread=float(right.nilpotent_norm()))
        vals = np.asarray(right.value)
        exponent = complex(vals.flat[0])
        if vals.size and np.max(np.abs(vals - exponent)) > 1e-14:
            raise DomainError("exponent must be a single constant")
    else:
        exponent = complex(right)
    if exponent.imag != 0:
        raise DomainError("complex exponents are not supported")
    if not isinstance(left, Jet2):
        # Python's power raises at 0 to a negative power and on
        # overflow, and turns complex at a negative base
        try:
            out = float(left) ** exponent.real
        except (ZeroDivisionError, OverflowError):
            out = np.inf
        if isinstance(out, complex) or not np.isfinite(out):
            raise DomainError("power is not a finite real number",
                              base=float(left), exponent=exponent.real)
        return out
    return left.power(exponent.real)


def free_parameters(text):
    """Names used by a program beyond ``u``, ``v`` and ``pi``, sorted."""
    _, exprs = parse_program(text)
    seen = set()

    def walk(node):
        kind = node[0]
        if kind == "name":
            seen.add(node[1])
        elif kind == "call":
            walk(node[2])
        elif kind == "neg":
            walk(node[1])
        elif kind == "bin":
            walk(node[2])
            walk(node[3])

    for e in exprs:
        walk(e)
    return sorted(seen - {"u", "v", "pi"})


def chart_from_source(text, params=None, name="dsl", domain=None,
                      periodic=(False, False)):
    """Build a chart from program text.

    ``params`` binds the free parameter names; a name the program does
    not read raises UnknownIdentifier listing those it does, and a value
    that is not finite raises ParameterOutOfRange.  ``domain`` defaults
    to the unit square centered at the origin.
    """
    form, exprs = parse_program(text)
    arity, embed = FORMS[form]
    params = {k: float(v) for k, v in (params or {}).items()}
    accepted = free_parameters(text)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UnknownIdentifier("unknown chart parameters", names=unknown,
                                available=accepted)
    bad = sorted(k for k, v in params.items() if not np.isfinite(v))
    if bad:
        raise ParameterOutOfRange("chart parameters must be finite",
                                  names=bad)
    if domain is None:
        domain = ((-1.0, 1.0), (-1.0, 1.0))

    def lift(U, V):
        env = {"u": U, "v": V, "pi": np.pi}
        env.update(params)
        comps = [evaluate(e, env) for e in exprs]
        jets = [c if isinstance(c, Jet2)
                else Jet2.constant(np.broadcast_to(c, U.batch_shape),
                                   U.order)
                for c in comps]
        return embed(jets)

    return SurfaceChart(name, lift, domain, periodic, params=params,
                        meta={"source": text, "form": form})

