"""Tiny expression language for nonlinearities.

The grammar is two tables, which the parser, the printer and the compiler
all read. _BINARY gives each operator its precedence (higher binds
tighter) and its numpy call: ``+ -`` (1) < ``* /`` (2) < unary ``-`` (3)
< ``^`` (4) < atoms. ``+ - * /`` associate to the left; ``^`` associates
to the right and its exponent may carry a unary minus, so ``2^-3^2`` is
``2^(-(3^2))`` and ``-2^2`` is -4. _FUNCTIONS gives each function its
arity and the numpy ufunc it calls: abs, log, exp, sin, cos, sqrt take one
argument, min and max two. Atoms are numeric literals, the variables
``x`` and ``a``, parenthesised expressions and calls.

A literal must be finite: ``1e999`` is a ParseError, not infinity. So is
an expression that nests deeper than _MAX_DEPTH (100) levels, counting
every parenthesis, call, unary minus and operator on the path from the
root: a sum of 102 terms, or 101 nested parentheses, is refused at the
token that crosses the bound, before any walk of the tree could exhaust
the interpreter's stack.

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

import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParseError

# each operator's precedence, from 1 (loosest), and its numpy call; division's is
# None, as its arm (_divide) checks the denominator
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul), "/": (2, None), "^": (4, np.power)}
# the precedence of unary minus and of atoms
_NEG, _ATOM = 3, 5
# each function's arity and the name of the numpy ufunc it calls, looked up as it compiles
_FUNCTIONS = {name: (1, name) for name in ("abs", "log", "exp", "sin", "cos", "sqrt")}
_FUNCTIONS |= {"min": (2, "minimum"), "max": (2, "maximum")}
_VARS = ("x", "a")
_MAX_DEPTH = 100


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


def _deeper(depth: int, pos: int) -> int:
    """The depth one level below depth; ParseError at offset pos past _MAX_DEPTH."""
    if depth >= _MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", pos)
    return depth + 1


class _Parser:
    """Precedence climbing over the tokens.

    Each method reads the construct that starts at the next token, at the
    given depth (the levels around it), and returns its tree with the
    deepest depth inside it.
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.i = 0

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        _, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}", pos)

    def parse(self) -> Expr:
        e, _ = self.binary(1, 0)
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return e

    def binary(self, min_prec: int, depth: int) -> tuple[Expr, int]:
        """Unaries joined by the left-associative operators of precedence min_prec or tighter.

        Each operator takes as its right operand the unaries joined by the
        operators that bind tighter than it, so every level associates left.
        """
        e, deepest = self.unary(depth)
        while (op := self.tokens[self.i][1]) in _BINARY and min_prec <= (prec := _BINARY[op][0]) < _NEG:
            # each operator pushes every node of its left operand one level down
            deepest = _deeper(deepest, self.tokens[self.i][2])
            self.i += 1
            right, reach = self.binary(prec + 1, depth + 1)
            e, deepest = Bin(op, e, right), max(deepest, reach)
        return e, deepest

    def unary(self, depth: int) -> tuple[Expr, int]:
        """A unary minus of a unary, or an atom with an optional ^ whose exponent is a unary."""
        _, text, pos = self.tokens[self.i]
        if text == "-":
            self.i += 1
            e, deepest = self.unary(_deeper(depth, pos))
            return Neg(e), deepest
        base, deepest = self.atom(depth)
        if self.tokens[self.i][1] != "^":
            return base, deepest
        deepest = _deeper(deepest, self.next()[2])
        exponent, reach = self.unary(depth + 1)
        return Bin("^", base, exponent), max(deepest, reach)

    def atom(self, depth: int) -> tuple[Expr, int]:
        kind, text, pos = self.next()
        if kind == "number":
            if not math.isfinite(value := float(text)):
                raise ParseError(f"number {text} overflows a double", pos)
            return Lit(value), depth
        if text in _VARS:
            return Var(text), depth
        if text == "(":
            e, deepest = self.binary(1, _deeper(depth, pos))
            self.expect(")")
            return e, deepest
        if text in _FUNCTIONS:
            inner = _deeper(depth, pos)
            self.expect("(")
            args = [self.binary(1, inner)]
            while self.tokens[self.i][1] == ",":
                self.i += 1
                args.append(self.binary(1, inner))
            self.expect(")")
            arity = _FUNCTIONS[text][0]
            if len(args) != arity:
                raise ParseError(f"{text} takes {arity} argument(s), got {len(args)}", pos)
            exprs, reaches = zip(*args)
            return Call(text, exprs), max(reaches)
        if kind == "ident":
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree.

    Raises ParseError for text outside the language, a literal that is not
    finite, or nesting deeper than _MAX_DEPTH. Both bounds hold for parsed
    trees only: a tree built by hand in library code is not checked.
    """
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
        case Bin(op=op, left=l, right=r) if op in _BINARY:
            (left, names, _), (right, right_names, bottom) = _compiled(l, x), _compiled(r, x)
            call, names = _BINARY[op][1], names | right_names
            fn = _divide(left, right, bottom) if call is None else _binary(call, left, right)
        case Lit(value=v):
            return (lambda x, a: v), _NO_NAMES, v
        case Var(name="x"):
            fn, names = (lambda x, a: x), _X
        case Var(name="a"):
            return (lambda x, a: a), _A, None
        case Neg(operand=e):
            inner, names, _ = _compiled(e, x)
            fn = lambda x, a: -inner(x, a)
        case Call(fn=name, args=(e,)) if _FUNCTIONS.get(name, (0,))[0] == 1:
            inner, names, _ = _compiled(e, x)
            fn = _unary(name, inner)
        case Call(fn=name, args=(l, r)) if _FUNCTIONS.get(name, (0,))[0] == 2:
            (left, names, _), (right, right_names, _) = _compiled(l, x), _compiled(r, x)
            fn, names = _binary(getattr(np, _FUNCTIONS[name][1]), left, right), names | right_names
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
    """The closure of the one-argument function name of the compiled inner, with its domain check if any."""
    ufunc = getattr(np, _FUNCTIONS[name][1])
    if name not in _DOMAINS:
        return lambda x, a: ufunc(inner(x, a))
    refused, message = _DOMAINS[name]

    def checked(x, a):
        v = np.asarray(inner(x, a))
        if refused(v, 0.0).any():
            raise EvaluationError(message)
        return ufunc(v)

    return checked


def _prec(expr: Expr) -> int:
    match expr:
        case Bin(op=op) if op in _BINARY:
            return _BINARY[op][0]
        case Neg():
            return _NEG
        case _:
            return _ATOM


def _render(expr: Expr, min_prec: int) -> str:
    p = _prec(expr)
    match expr:
        case Lit(value=v):
            s = repr(v)
        case Var(name=n):
            s = n
        case Neg(operand=e):
            s = "-" + _render(e, _NEG)
        case Bin(op="^", left=l, right=r):
            # the base is an atom, the exponent a unary
            s = _render(l, _ATOM) + "^" + _render(r, _NEG)
        case Bin(op=op, left=l, right=r):
            s = _render(l, p) + op + _render(r, p + 1)
        case Call(fn=fn, args=args):
            s = fn + "(" + ",".join(_render(e, 1) for e in args) + ")"
        case _:
            raise ValueError(f"malformed expression node: {expr!r}")
    if p < min_prec:
        return "(" + s + ")"
    return s


def to_string(expr: Expr) -> str:
    """Render `expr` with a minimal set of parentheses.

    parse(to_string(e)) reproduces e node for node, and a parsed tree
    prints no deeper than its source nested.
    """
    return _render(expr, 1)
