"""Tiny expression language for nonlinearities.

Grammar (loosest to tightest): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative) < atoms. Atoms are nonnegative numeric literals, the
variables ``x`` and ``a``, parenthesised expressions, and calls to abs, log,
exp, sin, cos, sqrt (one argument) or min, max (two arguments).

Evaluation is numpy-vectorised and raises EvaluationError on domain
violations (log of a nonpositive value, sqrt of a negative, division by
zero) and on non-finite results; it never returns NaN silently. There is
one evaluator: _compile turns a tree into nested closures that make the
numpy calls of a walk of the tree, in the walk's order. evaluate compiles
its tree on every call; the operator (equations.NearBand) compiles each
bound part once per grid, so a one-row application pays a few Python
calls per node and no dispatch.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
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
        out = _compile(expr)(xv, av)
    return _finite(out)


def _finite(out) -> float | np.ndarray:
    """A compiled expression's value as evaluate returns it: a float when 0-d; raises unless finite."""
    res = np.asarray(out, dtype=float)
    if not np.isfinite(res).all():
        raise EvaluationError("expression produced a non-finite value")
    if res.ndim == 0:
        return float(res)
    return res


def _variables(expr: Expr) -> frozenset[str]:
    """The names of the variables expr reads."""
    return _bound(expr, None)[1]


def _bind(expr: Expr, x: np.ndarray) -> Expr:
    """expr with every largest subtree that reads x but not a replaced by its value on x.

    evaluate(_bind(expr, x), x, a) equals evaluate(expr, x, a) bit for bit,
    and raises the same error: each bound value is computed here once, as
    evaluate would compute it, and is read-only. A subtree whose evaluation
    raises stays in the tree, so it raises at the same point of every
    evaluation as before. Subtrees of literals alone stay as they are.
    """
    with np.errstate(all="ignore"):
        bound, names = _bound(expr, x)
        return _on_nodes(bound, x) if names == {"x"} else bound


def _bound(expr: Expr, x: np.ndarray | None) -> tuple[Expr, frozenset[str]]:
    """_bind's one walk: expr with the largest subtrees in x alone below it bound to x, and its variables.

    A subtree that reads no a comes back as it is, for the nearest
    ancestor that reads a to bind; with x None, nothing is bound.
    """
    match expr:
        case Bin(op=op, left=l, right=r):
            (l, left), (r, right) = _bound(l, x), _bound(r, x)
            names = left | right
            if "a" in names and x is not None:
                return Bin(op, _bound_kid(l, left, x), _bound_kid(r, right, x)), names
        case Call(fn=fn, args=args):
            walked = [_bound(e, x) for e in args]
            names = frozenset().union(*(n for _, n in walked))
            if "a" in names and x is not None:
                return Call(fn, tuple(_bound_kid(e, n, x) for e, n in walked)), names
        case Neg(operand=e):
            e, names = _bound(e, x)
            if "a" in names and x is not None:
                return Neg(_bound_kid(e, names, x)), names
        case Var(name=n):
            return expr, frozenset((n,))
        case _:
            return expr, frozenset()
    return expr, names


def _bound_kid(expr: Expr, names: frozenset[str], x: np.ndarray) -> Expr:
    """A child of a node that reads a, walked by _bound: bound to x if it reads x alone."""
    return _on_nodes(expr, x) if names == {"x"} else expr


def _on_nodes(expr: Expr, x: np.ndarray) -> Expr:
    """expr, which reads x alone, as its read-only value on x, or as it is if its evaluation raises."""
    try:
        # the subtree reads no a, so x stands in for it; a view, so that
        # locking it leaves x writeable when the subtree is x
        value = np.asarray(_compile(expr)(x, x), dtype=float).view()
    except EvaluationError:
        return expr
    value.flags.writeable = False
    return _Nodes(value)


# the numpy call of each operator but division, and of min and max
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": np.power}
_PAIR_FNS = {"min": np.minimum, "max": np.maximum}
# the domain checks of log and sqrt: the test that refuses a value, and the error
_DOMAINS = {
    "log": (np.less_equal, "log of a nonpositive value"),
    "sqrt": (np.less, "sqrt of a negative value"),
}


def _compile(expr: Expr) -> Callable[[np.ndarray, np.ndarray], float | np.ndarray]:
    """expr as nested closures of (x, a), which make the numpy calls of a tree walk in its order.

    Operands are evaluated left to right, and a call's argument before the
    call, so the first error raised is the walk's. The closure does not
    check that the result is finite (see evaluate) and assumes that the
    caller ignores floating-point errors. A division by a literal or a
    bound value checks that denominator for zeros here, once; if it holds
    a zero, every call evaluates the numerator and then raises. A malformed
    node raises where the walk would reach it, too.
    """
    # the commonest node first: each case a node falls past costs it time
    match expr:
        case Bin(op=op, left=l, right=r) if op in _OPERATORS:
            return _binary(_OPERATORS[op], _compile(l), _compile(r))
        case Lit(value=v) | _Nodes(value=v):
            return lambda x, a: v
        case Var(name="x"):
            return lambda x, a: x
        case Var(name="a"):
            return lambda x, a: a
        case Neg(operand=e):
            inner = _compile(e)
            return lambda x, a: -inner(x, a)
        case Bin(op="/", left=l, right=Lit(value=den) | _Nodes(value=den)):
            num = _compile(l)
            if (np.asarray(den) == 0.0).any():

                def zero_division(x, a):
                    num(x, a)
                    raise EvaluationError("division by zero")

                return zero_division
            return lambda x, a: num(x, a) / den
        case Bin(op="/", left=l, right=r):
            num, den = _compile(l), _compile(r)

            def divide(x, a):
                top, bottom = num(x, a), den(x, a)
                if (np.asarray(bottom) == 0.0).any():
                    raise EvaluationError("division by zero")
                return top / bottom

            return divide
        case Call(fn=fn, args=(l, r)) if fn in _PAIR_FNS:
            return _binary(_PAIR_FNS[fn], _compile(l), _compile(r))
        case Call(fn=fn, args=(e,)) if fn in _UNARY_FNS:
            # numpy's function of the same name, looked up as it compiles
            ufunc, inner = getattr(np, fn), _compile(e)
            if fn not in _DOMAINS:
                return lambda x, a: ufunc(inner(x, a))
            refused, message = _DOMAINS[fn]

            def checked(x, a):
                v = np.asarray(inner(x, a))
                if refused(v, 0.0).any():
                    raise EvaluationError(message)
                return ufunc(v)

            return checked

    def malformed(x, a):
        raise EvaluationError(f"malformed expression node: {expr!r}")

    return malformed


def _binary(fn, left, right):
    """A closure that applies fn to the values of the compiled left and then right operands."""
    return lambda x, a: fn(left(x, a), right(x, a))


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
