"""Expression language: parsing, evaluation, printing, round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilfer_mnc.errors import EvaluationError, ParseError
from hilfer_mnc.expressions import Bin, Call, Lit, Neg, Var, _compile, _finite, evaluate, parse, to_string
from hilfer_mnc.fractional import uniform_nodes


def _ev(src: str, x=2.0, a=-3.0):
    return evaluate(parse(src), x, a)


def test_arithmetic_precedence():
    assert _ev("1+2*3") == 7.0
    assert _ev("(1+2)*3") == 9.0
    assert _ev("8/2/2") == 2.0
    assert _ev("1-2-3") == -4.0


def test_power_is_right_associative():
    assert _ev("2^3^2") == 512.0


def test_unary_minus_binds_looser_than_power():
    assert _ev("-2^2") == -4.0
    assert _ev("(-2)^2") == 4.0


def test_negative_exponent():
    assert _ev("2^-2") == 0.25


def test_variables_and_functions():
    assert _ev("abs(a)/6") == 0.5
    assert _ev("a/(3+log(x))", x=1.0) == -1.0
    assert _ev("min(x,a)") == -3.0
    assert _ev("max(a,0.5)") == 0.5
    assert _ev("sqrt(x)", x=9.0) == 3.0
    assert _ev("exp(0)") == 1.0
    assert _ev("sin(0)+cos(0)") == 1.0


def test_scientific_literals():
    assert _ev("1e3") == 1000.0
    assert _ev("2.5E-2") == 0.025


def test_vectorised_evaluation():
    xs = np.linspace(1.0, 3.0, 5)
    out = evaluate(parse("x^2+a"), xs, 1.0)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, xs**2 + 1.0)


def test_scalar_comes_back_as_float():
    out = _ev("x+a", x=1.0, a=1.0)
    assert isinstance(out, float)


def test_evaluation_domain_errors():
    with pytest.raises(EvaluationError):
        _ev("1/a", a=0.0)
    with pytest.raises(EvaluationError):
        _ev("log(a)", a=-1.0)
    with pytest.raises(EvaluationError):
        _ev("log(a)", a=0.0)
    with pytest.raises(EvaluationError):
        _ev("sqrt(a)", a=-2.0)
    with pytest.raises(EvaluationError):
        _ev("x^a", x=1e308, a=5.0)  # overflow to inf is rejected


def test_parse_errors_carry_position():
    for src, pos in (("1+*2", 2), ("foo(2)", 0), ("y+1", 0), ("1+", 2)):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.position == pos


def test_parse_error_cases():
    for src in ("", "(1+2", "min(1)", "abs(1,2)", "1 $ 2", "1..2"):
        with pytest.raises(ParseError):
            parse(src)


_TWO, _THREE = Lit(2.0), Lit(3.0)


@pytest.mark.parametrize(
    "src, outcome",
    [
        # unary minus binds looser than ^, whose exponent may carry its own minus
        ("-2^2", Neg(Bin("^", _TWO, _TWO))),
        ("2^-3^2", Bin("^", _TWO, Neg(Bin("^", _THREE, _TWO)))),
        ("2^-3*4", Bin("*", Bin("^", _TWO, Neg(_THREE)), Lit(4.0))),
        ("a--x", Bin("-", Var("a"), Neg(Var("x")))),
        ("-a*x", Bin("*", Neg(Var("a")), Var("x"))),
        ("a^x^a", Bin("^", Var("a"), Bin("^", Var("x"), Var("a")))),
        ("min(a,-x)", Call("min", (Var("a"), Neg(Var("x"))))),
        ("((x))", Var("x")),
        ("1-2-3", Bin("-", Bin("-", Lit(1.0), _TWO), _THREE)),
        ("8/2/2", Bin("/", Bin("/", Lit(8.0), _TWO), _TWO)),
        # every kind of ParseError, with its message and offset
        ("abs 2", "expected '(' (at offset 4)"),
        ("(1+2", "expected ')' (at offset 4)"),
        ("min(1,2", "expected ')' (at offset 7)"),
        ("1)", "unexpected token ')' (at offset 1)"),
        ("1+*2", "unexpected token '*' (at offset 2)"),
        ("1..2", "unexpected token '.2' (at offset 2)"),
        ("1+", "unexpected end of input (at offset 2)"),
        ("", "unexpected end of input (at offset 0)"),
        ("y+1", "unknown identifier 'y' (at offset 0)"),
        ("foo(2)", "unknown identifier 'foo' (at offset 0)"),
        ("1 $ 2", "unexpected character '$' (at offset 2)"),
        ("min(1)", "min takes 2 argument(s), got 1 (at offset 0)"),
        ("abs(1,2)", "abs takes 1 argument(s), got 2 (at offset 0)"),
    ],
)
def test_parse_outcomes_are_pinned(src, outcome):
    if not isinstance(outcome, str):
        assert parse(src) == outcome
        return
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == outcome
    assert exc.value.position == int(outcome.rsplit(" ", 1)[1][:-1])


def test_a_literal_must_be_finite():
    # float("1e999") is inf, which to_string would print as the unknown identifier inf
    with pytest.raises(ParseError) as exc:
        parse("min(abs(a),1e999)/6")
    assert str(exc.value) == "number 1e999 overflows a double (at offset 11)"
    # a literal that underflows is finite
    assert parse("1e-400") == Lit(0.0)


# each shape nested n levels deep, the offset of the token that takes it one
# level deeper than the bound, and its value at x = 1
_NESTED = {
    "sum": (lambda n: "+".join(["x"] * (n + 1)), 201, 101.0),
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, 100, 1.0),
    "powers": (lambda n: "x^" * n + "2", 201, 1.0),
    "minus": (lambda n: "-" * n + "x", 100, 1.0),
    "calls": (lambda n: "abs(" * n + "x" + ")" * n, 400, 1.0),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_is_bounded(shape):
    source, offset, value = _NESTED[shape]
    tree = parse(source(100))
    assert parse(to_string(tree)) == tree
    assert evaluate(tree, 1.0, 0.0) == value
    with pytest.raises(ParseError) as exc:
        parse(source(101))
    assert str(exc.value) == f"expression nests deeper than 100 levels (at offset {offset})"


def test_nesting_counts_the_levels_on_the_path_from_the_root():
    # 60 minus signs under 40 additions: the left operand sinks one level per operator
    assert parse("-" * 60 + "x" + "+x" * 40)
    with pytest.raises(ParseError) as exc:
        parse("-" * 60 + "x" + "+x" * 41)
    assert exc.value.position == 61 + 2 * 40
    # the arguments of a call are siblings: their depths do not add up
    assert parse("min(" + "(" * 99 + "x" + ")" * 99 + "," + "+".join(["x"] * 100) + ")")
    # the printer adds no level: a signed exponent prints without parentheses
    tree = parse("2^-" * 50 + "2")
    assert to_string(tree).startswith("2.0^-2.0^-") and parse(to_string(tree)) == tree


def test_tree_shapes():
    assert parse("x") == Var("x")
    assert parse("1.5") == Lit(1.5)
    assert parse("-x") == Neg(Var("x"))
    assert parse("x+a") == Bin("+", Var("x"), Var("a"))
    assert parse("abs(a)") == Call("abs", (Var("a"),))


def test_roundtrip_handwritten():
    sources = [
        "abs(a)/6",
        "a/(3+log(x))",
        "a/(2+x)",
        "-2^2",
        "2^3^2",
        "(1+2)*3",
        "1-(2-3)",
        "8/(2/2)",
        "min(x,a)-max(a,0.5)",
        "sqrt(abs(a))*exp(-x)",
        "-(x+a)",
        "(-x)^2",
    ]
    for src in sources:
        tree = parse(src)
        printed = to_string(tree)
        again = parse(printed)
        assert again == tree, f"{src!r} -> {printed!r}"
        # printing is a fixpoint after one round
        assert to_string(again) == printed


# abs() keeps -0.0 out: repr(-0.0) would re-parse as a negation node
_leaf = st.one_of(
    st.builds(Lit, st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(abs)),
    st.builds(Var, st.sampled_from(["x", "a"])),
)


def _node(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(
            Call,
            st.sampled_from(["abs", "log", "exp", "sin", "cos", "sqrt"]),
            st.tuples(children),
        ),
        st.builds(
            Call,
            st.sampled_from(["min", "max"]),
            st.tuples(children, children),
        ),
    )


_tree = st.recursive(_leaf, _node, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(tree=_tree)
def test_roundtrip_property(tree):
    printed = to_string(tree)
    assert parse(printed) == tree


def test_bundled_nonlinearities_against_hand_formulas():
    probes = [(1.0, -1.0), (1.5, 0.25), (2.0, -0.83), (3.0, 0.5), (2.2, 0.0)]
    for x, a in probes:
        assert _ev("abs(a)/6", x, a) == pytest.approx(abs(a) / 6.0, abs=1e-15)
        assert _ev("abs(a)", x, a) == pytest.approx(abs(a), abs=1e-15)
        assert _ev("a/(3+log(x))", x, a) == pytest.approx(a / (3.0 + math.log(x)), abs=1e-15)
        assert _ev("a/(2+x)", x, a) == pytest.approx(a / (2.0 + x), abs=1e-15)


# 4097 nodes hold x = 2.0 (node 2048) and x = 3.0 exactly
_BIND_NODES = uniform_nodes(3.0, 4097)


def _outcome(tree, a, evaluator=evaluate):
    """evaluator on the bind nodes, or the class and message of what it raised."""
    try:
        return evaluator(tree, _BIND_NODES, a)
    except EvaluationError as exc:
        return type(exc), str(exc)


def _walk(expr, xv, av):
    """The reference evaluator: a plain walk of the tree, node by node, with no compilation."""
    match expr:
        case Lit(value=v):
            return v
        case Var(name="x"):
            return xv
        case Var(name="a"):
            return av
        case Neg(operand=e):
            return -_walk(e, xv, av)
        case Bin(op="+", left=l, right=r):
            return _walk(l, xv, av) + _walk(r, xv, av)
        case Bin(op="-", left=l, right=r):
            return _walk(l, xv, av) - _walk(r, xv, av)
        case Bin(op="*", left=l, right=r):
            return _walk(l, xv, av) * _walk(r, xv, av)
        case Bin(op="/", left=l, right=r):
            num = _walk(l, xv, av)
            den = _walk(r, xv, av)
            if (np.asarray(den) == 0.0).any():
                raise EvaluationError("division by zero")
            return num / den
        case Bin(op="^", left=l, right=r):
            return np.power(_walk(l, xv, av), _walk(r, xv, av))
        case Call(fn="abs", args=(e,)):
            return np.abs(_walk(e, xv, av))
        case Call(fn="log", args=(e,)):
            v = np.asarray(_walk(e, xv, av))
            if (v <= 0.0).any():
                raise EvaluationError("log of a nonpositive value")
            return np.log(v)
        case Call(fn="exp", args=(e,)):
            return np.exp(_walk(e, xv, av))
        case Call(fn="sin", args=(e,)):
            return np.sin(_walk(e, xv, av))
        case Call(fn="cos", args=(e,)):
            return np.cos(_walk(e, xv, av))
        case Call(fn="sqrt", args=(e,)):
            v = np.asarray(_walk(e, xv, av))
            if (v < 0.0).any():
                raise EvaluationError("sqrt of a negative value")
            return np.sqrt(v)
        case Call(fn="min", args=(l, r)):
            return np.minimum(_walk(l, xv, av), _walk(r, xv, av))
        case Call(fn="max", args=(l, r)):
            return np.maximum(_walk(l, xv, av), _walk(r, xv, av))
    raise EvaluationError(f"malformed expression node: {expr!r}")


def _walked(expr, x, a):
    """evaluate's contract, by the reference walk."""
    with np.errstate(all="ignore"):
        res = np.asarray(_walk(expr, np.asarray(x, dtype=float), np.asarray(a, dtype=float)), dtype=float)
    if not np.isfinite(res).all():
        raise EvaluationError("expression produced a non-finite value")
    return float(res) if res.ndim == 0 else res


def _bound(expr, x, a):
    """evaluate's contract, by expr compiled bound to the nodes x, called as the operator calls it."""
    part = _compile(expr, x)
    with np.errstate(all="ignore"):
        return _finite(part(x, np.asarray(a, dtype=float)))


def _assert_same_outcome(got, want) -> None:
    """got has want's bits, or raised want's error."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple) and type(got) is type(want)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _assert_same_as_the_walk(tree, a) -> None:
    """The compiled evaluator gives the walk's bits or its first error, compiled unbound and bound."""
    want = _outcome(tree, a, _walked)
    for evaluator in (evaluate, _bound):
        _assert_same_outcome(_outcome(tree, a, evaluator), want)


def _folded_values(fn):
    """The arrays fn's closures hold: the values of the subtrees folded on the nodes."""
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value):
            yield from _folded_values(value)


def _assert_binding_changes_nothing(tree, a) -> None:
    _assert_same_outcome(_outcome(tree, a, _bound), _outcome(tree, a))
    for value in _folded_values(_compile(tree, _BIND_NODES)):
        assert not value.flags.writeable
        assert value.shape == _BIND_NODES.shape
    assert _BIND_NODES.flags.writeable


@settings(max_examples=200, deadline=None)
@given(tree=_tree, seed=st.integers(0, 2**32 - 1))
def test_binding_to_the_nodes_changes_no_value_and_no_error(tree, seed):
    # compiled with the nodes, the subtrees in x alone are evaluated once on
    # them; every call gives the bits of the tree compiled without them, or
    # the same first error
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, _BIND_NODES.size))
    _assert_binding_changes_nothing(tree, a)


def test_binding_keeps_the_first_error():
    a = np.random.default_rng(0).uniform(0.5, 1.5, (2, _BIND_NODES.size))
    a[1, 7] = -0.25
    # the a-error comes first; log(x-3) raises on its own and keeps its
    # closure, which reads x - 3 evaluated on the nodes
    tree = parse("sqrt(a)+log(x-3)")
    (folded,) = _folded_values(_compile(tree, _BIND_NODES))
    assert np.array_equal(folded, _BIND_NODES - 3.0)
    assert _outcome(tree, a, _bound) == (EvaluationError, "sqrt of a negative value")
    assert _outcome(tree, np.abs(a), _bound) == (EvaluationError, "log of a nonpositive value")
    # x - 2 is folded and vanishes at node 2048
    assert _outcome(parse("a/(x-2)"), a, _bound) == (EvaluationError, "division by zero")
    # 0 * inf is folded as NaN, and the sum is refused
    assert _outcome(parse("0*exp(800*x)+a"), a, _bound) == (
        EvaluationError,
        "expression produced a non-finite value",
    )
    for src in ("sqrt(a)+log(x-3)", "a/(x-2)", "0*exp(800*x)+a", "0.2*sin(x)+abs(a)/6"):
        for rows in (a, np.abs(a)):
            _assert_binding_changes_nothing(parse(src), rows)
    (folded,) = _folded_values(_compile(parse("0.2*sin(x)+abs(a)/6"), _BIND_NODES))
    assert np.array_equal(folded, 0.2 * np.sin(_BIND_NODES))
    # a tree in x alone is its value: a read-only view, not the nodes
    alone = _compile(Var("x"), _BIND_NODES)(_BIND_NODES, a)
    assert np.array_equal(alone, _BIND_NODES) and alone is not _BIND_NODES and not alone.flags.writeable


@settings(max_examples=300, deadline=None)
@given(tree=_tree, seed=st.integers(0, 2**32 - 1), scalar=st.booleans())
def test_compiled_evaluator_matches_the_tree_walk(tree, seed, scalar):
    # every node kind, on (3, n) rows of a and on one scalar a; the walk
    # and the compiled closures make the same numpy calls in the same order
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0) if scalar else rng.uniform(-2.0, 2.0, (3, _BIND_NODES.size))
    _assert_same_as_the_walk(tree, a)


def test_compiled_evaluator_keeps_the_first_error():
    a = np.random.default_rng(3).uniform(0.5, 1.5, (2, _BIND_NODES.size))
    cases = {
        "a/0": "division by zero",
        # bound: x - 2 is folded and vanishes at node 2048, checked once as it compiles
        "a/(x-2)": "division by zero",
        # a denominator of literals alone is not folded, and is checked on every call
        "a/(1-1)": "division by zero",
        # the numerator's error comes before the zero denominator's
        "log(a-2)/0": "log of a nonpositive value",
        "sqrt(a-2)/(x-2)": "sqrt of a negative value",
        "0*exp(800*x)+a": "expression produced a non-finite value",
        "sqrt(a)+log(x-3)": "log of a nonpositive value",
    }
    for src, message in cases.items():
        assert _outcome(parse(src), a) == (EvaluationError, message), src
        assert _outcome(parse(src), a, _bound) == (EvaluationError, message), src
        _assert_same_as_the_walk(parse(src), a)
    a[1, 7] = -0.25
    assert _outcome(parse("sqrt(a)+log(x-3)"), a) == (EvaluationError, "sqrt of a negative value")
    _assert_same_as_the_walk(parse("sqrt(a)+log(x-3)"), a)
    # a malformed node raises where the walk reaches it, after the nodes before it
    bad = Bin("+", parse("log(x-3)"), Call("abs", (Var("a"), Var("a"))))
    assert _outcome(bad, a) == (EvaluationError, "log of a nonpositive value")
    assert _outcome(Bin("+", Var("a"), Call("abs", ())), a)[1].startswith("malformed expression node")
    _assert_same_as_the_walk(bad, a)
