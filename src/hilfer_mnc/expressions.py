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
its tree on every call. The operator (equations.near_band) compiles each
part of an equation once per grid, bound to its nodes: the same walk
evaluates every subtree in x alone on them, so a one-row application pays
a few Python calls per node and no dispatch.
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
    return _compiled(expr, None)[1]


# the numpy call of each operator but division, and of min and max
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": np.power}
_PAIR_FNS = {"min": np.minimum, "max": np.maximum}
# the domain checks of log and sqrt: the test that refuses a value, and the error
_DOMAINS = {
    "log": (np.less_equal, "log of a nonpositive value"),
    "sqrt": (np.less, "sqrt of a negative value"),
}
_NO_NAMES, _X, _A = frozenset(), frozenset("x"), frozenset("a")


def _compile(
    expr: Expr, x: np.ndarray | None = None
) -> Callable[[np.ndarray, np.ndarray], float | np.ndarray]:
    """expr as nested closures of (x, a), which make the numpy calls of a tree walk in its order.

    Operands are evaluated left to right, and a call's argument before the
    call, so the first error raised is the walk's. The closure does not
    check that the result is finite (see evaluate) and assumes that the
    caller ignores floating-point errors. A malformed node raises where
    the walk would reach it.

    Given nodes x, the closures are bound to them: every subtree that reads
    x but not a is evaluated here, once, on x (floating-point errors
    ignored), and its closure returns that value as a read-only view, so x
    itself stays writeable. A call with these x then gives the bits of the
    unbound closure, or raises its error: a subtree whose evaluation raises
    keeps its closure, and raises at the same point of every call.
    Subtrees of literals alone are not evaluated. A division by a literal
    or by such a value checks that denominator for zeros here, once; if it
    holds a zero, every call evaluates the numerator and then raises.
    """
    if x is None:
        return _compiled(expr, None)[0]
    with np.errstate(all="ignore"):
        return _compiled(expr, x)[0]


def _compiled(expr: Expr, x: np.ndarray | None) -> tuple[Callable, frozenset[str], float | np.ndarray | None]:
    """_compile's one walk: expr's closure, the names of its variables, and its value if constant.

    The value is a literal's own, or with nodes x that of a subtree in x
    alone evaluated on them; it is None for every other subtree.
    """
    # the commonest node first: each case a node falls past costs it time
    match expr:
        case Bin(op=op, left=l, right=r) if op in _OPERATORS:
            (left, names, _), (right, right_names, _) = _compiled(l, x), _compiled(r, x)
            fn, names = _binary(_OPERATORS[op], left, right), names | right_names
        case Lit(value=v):
            return (lambda x, a: v), _NO_NAMES, v
        case Var(name="x"):
            fn, names = (lambda x, a: x), _X
        case Var(name="a"):
            return (lambda x, a: a), _A, None
        case Neg(operand=e):
            inner, names, _ = _compiled(e, x)
            fn = lambda x, a: -inner(x, a)
        case Bin(op="/", left=l, right=r):
            (num, names, _), (den, right_names, bottom) = _compiled(l, x), _compiled(r, x)
            fn, names = _divide(num, den, bottom), names | right_names
        case Call(fn=name, args=(l, r)) if name in _PAIR_FNS:
            (left, names, _), (right, right_names, _) = _compiled(l, x), _compiled(r, x)
            fn, names = _binary(_PAIR_FNS[name], left, right), names | right_names
        case Call(fn=name, args=(e,)) if name in _UNARY_FNS:
            inner, names, _ = _compiled(e, x)
            fn = _unary(name, inner)
        case _:

            def malformed(x, a):
                raise EvaluationError(f"malformed expression node: {expr!r}")

            return malformed, _NO_NAMES, None
    if x is None or names != _X:
        return fn, names, None
    try:
        # the subtree reads no a, so x stands in for it; a view, so that
        # locking it leaves x writeable when the subtree is x
        value = np.asarray(fn(x, x), dtype=float).view()
    except EvaluationError:
        return fn, names, None
    value.flags.writeable = False
    return (lambda x, a: value), names, value


def _binary(fn, left, right):
    """A closure that applies fn to the values of the compiled left and then right operands."""
    return lambda x, a: fn(left(x, a), right(x, a))


def _divide(num, den, bottom):
    """The closure of num / den, compiled; bottom is den's constant value, or None to check every call."""
    if bottom is None:

        def divide(x, a):
            top, under = num(x, a), den(x, a)
            if (np.asarray(under) == 0.0).any():
                raise EvaluationError("division by zero")
            return top / under

        return divide
    if (np.asarray(bottom) == 0.0).any():

        def zero_division(x, a):
            num(x, a)
            raise EvaluationError("division by zero")

        return zero_division
    return lambda x, a: num(x, a) / bottom


def _unary(name, inner):
    """The closure of the function name of the compiled inner, with its domain check if it has one."""
    # numpy's function of the same name, looked up as it compiles
    ufunc = getattr(np, name)
    if name not in _DOMAINS:
        return lambda x, a: ufunc(inner(x, a))
    refused, message = _DOMAINS[name]

    def checked(x, a):
        v = np.asarray(inner(x, a))
        if refused(v, 0.0).any():
            raise EvaluationError(message)
        return ufunc(v)

    return checked


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
