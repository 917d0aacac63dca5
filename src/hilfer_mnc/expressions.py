"""Tiny expression language for nonlinearities.

Grammar (loosest to tightest): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative) < atoms. Atoms are nonnegative numeric literals, the
variables ``x`` and ``a``, parenthesised expressions, and calls to abs, log,
exp, sin, cos, sqrt (one argument) or min, max (two arguments).

Evaluation is numpy-vectorised and raises EvaluationError on domain
violations (log of a nonpositive value, sqrt of a negative, division by
zero) and on non-finite results; it never returns NaN silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParseError

_UNARY_FNS = ("abs", "log", "exp", "sin", "cos", "sqrt")
_BINARY_FNS = ("min", "max")
_VARS = ("x", "a")


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Lit, Var, Neg, Bin, Call]


@dataclass(frozen=True, eq=False)
class _Nodes:
    """A subtree in x alone, replaced by _bind with its read-only value on the bound nodes."""

    value: np.ndarray


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.peek()
        if kind == "op" and text == value:
            self.i += 1
            return
        raise ParseError(f"expected {value!r}", pos)

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.next()
                e = Bin(text, e, self.product())
            else:
                return e

    def product(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.next()
                e = Bin(text, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right associative, and the exponent may carry a unary minus
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "number":
            return Lit(float(text))
        if kind == "ident":
            if text in _VARS:
                return Var(text)
            if text in _UNARY_FNS or text in _BINARY_FNS:
                self.expect("(")
                args = [self.sum()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.next()
                        args.append(self.sum())
                    else:
                        break
                self.expect(")")
                want = 1 if text in _UNARY_FNS else 2
                if len(args) != want:
                    raise ParseError(
                        f"{text} takes {want} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.sum()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree."""
    return _Parser(text).parse()


def evaluate(expr: Expr, x, a):
    """Evaluate `expr` with numpy broadcasting over `x` and `a`.

    Returns a float for scalar inputs, an ndarray otherwise.
    """
    xv = np.asarray(x, dtype=float)
    av = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval(expr, xv, av)
    res = np.asarray(out, dtype=float)
    if not np.isfinite(res).all():
        raise EvaluationError("expression produced a non-finite value")
    if res.ndim == 0:
        return float(res)
    return res


def _variables(expr: Expr) -> set[str]:
    """The names of the variables expr reads."""
    match expr:
        case Var(name=n):
            return {n}
        case Neg(operand=e):
            return _variables(e)
        case Bin(left=l, right=r):
            return _variables(l) | _variables(r)
        case Call(args=args):
            return set().union(*map(_variables, args))
    return set()


def _bind(expr: Expr, x: np.ndarray) -> Expr:
    """expr with every largest subtree that reads x but not a replaced by its value on x.

    evaluate(_bind(expr, x), x, a) equals evaluate(expr, x, a) bit for bit,
    and raises the same error: each bound value is computed here once, as
    evaluate would compute it, and is read-only. A subtree whose evaluation
    raises stays in the tree, so it raises at the same point of every
    evaluation as before. Subtrees of literals alone stay as they are.
    """
    names = _variables(expr)
    if names == {"x"}:
        try:
            with np.errstate(all="ignore"):
                # the subtree reads no a, so x stands in for it; a view, so
                # that locking it leaves x writeable when the subtree is x
                value = np.asarray(_eval(expr, x, x), dtype=float).view()
        except EvaluationError:
            return expr
        value.flags.writeable = False
        return _Nodes(value)
    if "a" not in names:
        return expr
    match expr:
        case Neg(operand=e):
            return Neg(_bind(e, x))
        case Bin(op=op, left=l, right=r):
            return Bin(op, _bind(l, x), _bind(r, x))
        case Call(fn=fn, args=args):
            return Call(fn, tuple(_bind(e, x) for e in args))
    return expr


def _eval(expr: Expr, xv: np.ndarray, av: np.ndarray):
    match expr:
        case _Nodes(value=v):
            return v
        case Lit(value=v):
            return v
        case Var(name="x"):
            return xv
        case Var(name="a"):
            return av
        case Neg(operand=e):
            return -_eval(e, xv, av)
        case Bin(op="+", left=l, right=r):
            return _eval(l, xv, av) + _eval(r, xv, av)
        case Bin(op="-", left=l, right=r):
            return _eval(l, xv, av) - _eval(r, xv, av)
        case Bin(op="*", left=l, right=r):
            return _eval(l, xv, av) * _eval(r, xv, av)
        case Bin(op="/", left=l, right=r):
            num = _eval(l, xv, av)
            den = _eval(r, xv, av)
            if (np.asarray(den) == 0.0).any():
                raise EvaluationError("division by zero")
            return num / den
        case Bin(op="^", left=l, right=r):
            return np.power(_eval(l, xv, av), _eval(r, xv, av))
        case Call(fn="abs", args=(e,)):
            return np.abs(_eval(e, xv, av))
        case Call(fn="log", args=(e,)):
            v = np.asarray(_eval(e, xv, av))
            if (v <= 0.0).any():
                raise EvaluationError("log of a nonpositive value")
            return np.log(v)
        case Call(fn="exp", args=(e,)):
            return np.exp(_eval(e, xv, av))
        case Call(fn="sin", args=(e,)):
            return np.sin(_eval(e, xv, av))
        case Call(fn="cos", args=(e,)):
            return np.cos(_eval(e, xv, av))
        case Call(fn="sqrt", args=(e,)):
            v = np.asarray(_eval(e, xv, av))
            if (v < 0.0).any():
                raise EvaluationError("sqrt of a negative value")
            return np.sqrt(v)
        case Call(fn="min", args=(l, r)):
            return np.minimum(_eval(l, xv, av), _eval(r, xv, av))
        case Call(fn="max", args=(l, r)):
            return np.maximum(_eval(l, xv, av), _eval(r, xv, av))
    raise EvaluationError(f"malformed expression node: {expr!r}")


# precedence levels used by to_string; higher binds tighter
_PREC_SUM = 1
_PREC_PROD = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(expr: Expr) -> int:
    match expr:
        case Bin(op="+") | Bin(op="-"):
            return _PREC_SUM
        case Bin(op="*") | Bin(op="/"):
            return _PREC_PROD
        case Neg():
            return _PREC_NEG
        case Bin(op="^"):
            return _PREC_POW
        case _:
            return _PREC_ATOM


def _render(expr: Expr, min_prec: int) -> str:
    p = _prec(expr)
    match expr:
        case Lit(value=v):
            s = repr(v)
        case Var(name=n):
            s = n
        case Neg(operand=e):
            s = "-" + _render(e, _PREC_NEG)
        case Bin(op="^", left=l, right=r):
            s = _render(l, _PREC_POW + 1) + "^" + _render(r, _PREC_POW)
        case Bin(op=op, left=l, right=r):
            s = _render(l, p) + op + _render(r, p + 1)
        case Call(fn=fn, args=args):
            s = fn + "(" + ",".join(_render(e, _PREC_SUM) for e in args) + ")"
        case _:
            raise ValueError(f"malformed expression node: {expr!r}")
    if p < min_prec:
        return "(" + s + ")"
    return s


def to_string(expr: Expr) -> str:
    """Render `expr` with a minimal set of parentheses.

    parse(to_string(e)) reproduces e node for node.
    """
    return _render(expr, _PREC_SUM)
