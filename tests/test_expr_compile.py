"""Compiled constant expressions answer exactly what ``expr.evaluate`` does.

:func:`repro.hdl.expr.compile_expr` turns an expression into a closure
once, and the DRC point plan calls it under every design point's folded
environment.  :func:`repro.hdl.expr.evaluate` is the reference: on every
expression and environment the two must give the same integer, or raise
the same exception type with the same message.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl import expr as E

BINARY_OPS = (
    "+", "-", "*", "/", "%", "mod", "rem", "**", "<<", ">>", "and", "&&",
    "or", "||", "&", "|", "^", "=", "==", "/=", "!=", "<", "<=", ">", ">=",
)
UNARY_OPS = ("-", "+", "not", "!", "~")
FUNCS = ("$clog2", "clog2", "log2ceil", "CLOG2", "maximum", "minimum", "max",
         "min", "abs", "$bogus", "mystery")
NAMES = ("W", "w", "Depth", "DEPTH", "n", "Flag", "Ghost")

ints = st.one_of(
    st.integers(-8, 64),
    st.sampled_from([E.FOLD_BIT_LIMIT, E.FOLD_BIT_LIMIT + 1, 1 << 40, -(1 << 40)]),
)
leaves = st.one_of(
    st.builds(E.Num, ints),
    st.builds(E.Name, st.sampled_from(NAMES)),
    st.builds(E.StrLit, st.sampled_from(["true", "FALSE", "True", "x", ""])),
)


def _tree(children):
    return st.one_of(
        st.builds(E.UnOp, st.sampled_from(UNARY_OPS + ("?",)), children),
        st.builds(E.BinOp, st.sampled_from(BINARY_OPS + ("<=>",)), children, children),
        st.builds(E.Cond, children, children, children),
        st.builds(
            E.Call, st.sampled_from(FUNCS), st.lists(children, max_size=3).map(tuple)
        ),
    )


exprs = st.recursive(leaves, _tree, max_leaves=12)
envs = st.dictionaries(
    st.sampled_from(NAMES[:-1]),
    st.one_of(ints, st.booleans(), st.sampled_from(["true", "False", "bad"])),
)


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return ("raise", type(exc).__name__, str(exc))


def assert_same(expr, env) -> None:
    compiled = E.compile_expr(expr)
    want = outcome(lambda: E.evaluate(expr, env))
    assert outcome(lambda: compiled(E.fold_env(env))) == want
    # The same closure, again: compiling holds no per-call state.
    assert outcome(lambda: compiled(E.fold_env(env))) == want


@given(expr=exprs, env_list=st.lists(envs, min_size=1, max_size=4))
@settings(max_examples=600, deadline=None)
def test_compiled_matches_evaluate(expr, env_list):
    compiled = E.compile_expr(expr)
    for env in env_list:
        want = outcome(lambda: E.evaluate(expr, env))
        assert outcome(lambda: compiled(E.fold_env(env))) == want


div = lambda a, b: E.BinOp("/", a, b)  # noqa: E731
n = E.Num
name = E.Name


@pytest.mark.parametrize(
    "expr, env",
    [
        # division, modulo and rem by zero
        (div(name("W"), n(0)), {"W": 8}),
        (E.BinOp("%", n(7), name("w")), {"w": 0}),
        (E.BinOp("mod", n(7), n(0)), {}),
        (E.BinOp("rem", n(-7), n(0)), {}),
        (E.BinOp("rem", n(-7), n(3)), {}),
        # ** with a negative exponent; ** and << past the folding limit
        (E.BinOp("**", n(2), n(-1)), {}),
        (E.BinOp("**", n(2), n(E.FOLD_BIT_LIMIT + 1)), {}),
        (E.BinOp("**", n(1), n(E.FOLD_BIT_LIMIT)), {}),
        (E.BinOp("<<", n(1), n(E.FOLD_BIT_LIMIT)), {}),
        (E.BinOp("<<", n(1), E.BinOp("<<", n(1), n(60))), {}),
        (E.BinOp("<<", n(1), n(-1)), {}),
        (E.BinOp(">>", n(64), n(-1)), {}),
        # $clog2 / clog2 / log2ceil of values <= 0, and of no argument
        (E.Call("$clog2", (n(0),)), {}),
        (E.Call("clog2", (name("W"),)), {"W": -3}),
        (E.Call("log2ceil", (n(1),)), {}),
        (E.Call("$clog2", ()), {}),
        (E.Call("max", ()), {}),
        # unbound names: the message renders the root expression
        (E.BinOp("+", n(1), E.BinOp("*", name("Depth"), n(2))), {"W": 3}),
        (E.Cond(name("Ghost"), n(1), n(2)), {}),
        # mixed-case names fold to one key (the later duplicate wins)
        (E.BinOp("+", name("w"), name("W")), {"W": 3, "w": 5}),
        (E.BinOp("-", name("DEPTH"), n(1)), {"depth": 16}),
        # lazy Cond, eager and/or
        (E.Cond(name("W"), name("W"), div(n(1), n(0))), {"W": 4}),
        (E.Cond(n(0), div(n(1), n(0)), n(7)), {}),
        (E.BinOp("&&", n(0), div(n(1), n(0))), {}),
        (E.BinOp("or", n(1), div(n(1), n(0))), {}),
        (E.BinOp("and", n(2), n(3)), {}),
        # "true"/"false" string literals and string-valued names
        (E.BinOp("+", E.StrLit("true"), E.StrLit("FALSE")), {}),
        (E.StrLit("maybe"), {}),
        (E.BinOp("+", name("Flag"), n(1)), {"FLAG": "True"}),
        (E.BinOp("+", name("Flag"), n(1)), {"flag": "nope"}),
        (name("Flag"), {"Flag": True}),
        # unknown functions and operators (the operands still run first)
        (E.Call("$bogus", (div(n(1), n(0)),)), {}),
        (E.UnOp("?", div(n(1), n(0))), {}),
        (E.UnOp("?", n(1)), {}),
        (E.BinOp("<=>", n(1), n(2)), {}),
        (E.BinOp("<=>", name("Ghost"), n(2)), {}),
    ],
)
def test_edge_cases_match_evaluate(expr, env):
    assert_same(expr, env)


def test_unknown_node_type_raises_like_evaluate():
    class Odd(E.Expr):
        def render(self) -> str:
            return "odd"

    assert_same(E.BinOp("+", n(1), Odd()), {})
