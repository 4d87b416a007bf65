"""Constant-expression AST shared by the VHDL and Verilog parsers.

Parameter defaults and port widths are integer constant expressions over
other parameters — ``DATA_WIDTH-1 downto 0``, ``$clog2(DEPTH)``,
``2**ADDR_BITS``.  Both parsers build the same small AST, and elaboration
evaluates it under a parameter environment to obtain concrete widths.

The evaluator implements integer semantics: ``/`` truncates toward zero
(Verilog rules; VHDL integer division behaves identically for positive
operands, which is all interface arithmetic uses).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import HdlError

__all__ = [
    "Expr",
    "Num",
    "Name",
    "StrLit",
    "UnOp",
    "BinOp",
    "Cond",
    "Call",
    "EvalError",
    "FoldedEnv",
    "Compiled",
    "compile_expr",
    "evaluate",
    "fold_env",
    "free_names",
]


class EvalError(HdlError):
    """Raised when a constant expression cannot be evaluated to an integer."""


class Expr:
    """Base class for constant-expression nodes."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    """Integer literal (all HDL number bases are normalized at lex time)."""

    value: int

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class StrLit(Expr):
    """String literal — VHDL string generics ("TRUE", file names…)."""

    value: str

    def render(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class Name(Expr):
    """Reference to another parameter/generic (case preserved from source)."""

    ident: str

    def render(self) -> str:
        return self.ident


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # "-", "+", "not", "!", "~"
    operand: Expr

    def render(self) -> str:
        return f"({self.op}{self.operand.render()})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / % ** mod rem << >> and or == != < <= > >=
    left: Expr
    right: Expr

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True)
class Cond(Expr):
    """Ternary ``cond ? a : b`` (Verilog) — VHDL interfaces don't need one."""

    cond: Expr
    then: Expr
    other: Expr

    def render(self) -> str:
        return f"({self.cond.render()} ? {self.then.render()} : {self.other.render()})"


@dataclass(frozen=True)
class Call(Expr):
    """Function call; only width helpers are evaluable (``$clog2``, ``clog2``,
    ``log2ceil``, ``maximum``/``minimum``)."""

    func: str
    args: tuple[Expr, ...]

    def render(self) -> str:
        inner = ", ".join(a.render() for a in self.args)
        return f"{self.func}({inner})"


# Results wider than this (in bits) are rejected rather than materialized:
# no real width expression needs a megabit integer, and a single adversarial
# `1 << (1 << 60)` must not stall (or OOM) the checker.
FOLD_BIT_LIMIT = 1 << 20


def _clog2(n: int) -> int:
    if n <= 0:
        raise EvalError(f"clog2 of non-positive value {n}")
    return (n - 1).bit_length()


_FUNCS = {
    "$clog2": lambda a: _clog2(a[0]),
    "clog2": lambda a: _clog2(a[0]),
    "log2ceil": lambda a: _clog2(a[0]),
    "maximum": lambda a: max(a),
    "minimum": lambda a: min(a),
    "max": lambda a: max(a),
    "min": lambda a: min(a),
    "abs": lambda a: abs(a[0]),
}


def _as_int(value: int | str | bool) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        # VHDL boolean-ish string generics.
        lowered = value.lower()
        if lowered == "true":
            return 1
        if lowered == "false":
            return 0
        raise EvalError(f"string {value!r} used in integer context")
    return int(value)


class FoldedEnv(dict):
    """A parameter environment whose names are already lower-cased.

    :func:`evaluate` looks names up in it directly instead of folding it
    again, so a caller evaluating many expressions under one environment
    folds it once with :func:`fold_env`.
    """


def fold_env(env: Mapping[str, int | str | bool]) -> FoldedEnv:
    """``env`` with lower-cased names (a later duplicate name wins)."""
    return FoldedEnv({k.lower(): v for k, v in env.items()})


def evaluate(expr: Expr, env: Mapping[str, int | str | bool] | None = None) -> int:
    """Evaluate ``expr`` to an integer under parameter environment ``env``.

    Name lookup is case-insensitive for convenience across dialects (VHDL
    identifiers are case-insensitive; Verilog sources in practice reference
    parameters with consistent casing).
    """
    env = env or {}
    # Folded on the first name lookup (most expressions reference none),
    # unless the caller already folded it.
    folded: Mapping[str, int | str | bool] | None = (
        env if isinstance(env, FoldedEnv) else None
    )

    def ev(node: Expr) -> int:
        nonlocal folded
        if isinstance(node, Num):
            return node.value
        if isinstance(node, StrLit):
            return _as_int(node.value)
        if isinstance(node, Name):
            if folded is None:
                folded = {k.lower(): v for k, v in env.items()}
            key = node.ident.lower()
            if key not in folded:
                raise EvalError(
                    f"unbound name {node.ident!r} in constant expression "
                    f"{expr.render()!r}"
                )
            return _as_int(folded[key])
        if isinstance(node, UnOp):
            v = ev(node.operand)
            if node.op == "-":
                return -v
            if node.op == "+":
                return v
            if node.op in ("not", "!"):
                return int(v == 0)
            if node.op == "~":
                return ~v
            raise EvalError(f"unknown unary operator {node.op!r}")
        if isinstance(node, BinOp):
            lv, rv = ev(node.left), ev(node.right)
            op = node.op
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                if rv == 0:
                    raise EvalError("division by zero in constant expression")
                return int(lv / rv)  # truncate toward zero
            if op in ("%", "mod"):
                if rv == 0:
                    raise EvalError("modulo by zero in constant expression")
                return lv % rv
            if op == "rem":
                if rv == 0:
                    raise EvalError("rem by zero in constant expression")
                return int(lv - int(lv / rv) * rv)
            if op == "**":
                if rv < 0:
                    raise EvalError("negative exponent in constant expression")
                if rv * max(1, abs(lv).bit_length()) > FOLD_BIT_LIMIT:
                    raise EvalError(
                        "constant power exceeds the folding bit limit"
                    )
                return lv**rv
            if op == "<<":
                if rv > 0 and rv + abs(lv).bit_length() > FOLD_BIT_LIMIT:
                    raise EvalError(
                        "constant shift exceeds the folding bit limit"
                    )
                return lv << rv
            if op == ">>":
                return lv >> rv
            if op in ("and", "&&"):
                return int(bool(lv) and bool(rv))
            if op in ("or", "||"):
                return int(bool(lv) or bool(rv))
            if op == "&":
                return lv & rv
            if op == "|":
                return lv | rv
            if op == "^":
                return lv ^ rv
            if op in ("=", "=="):
                return int(lv == rv)
            if op in ("/=", "!="):
                return int(lv != rv)
            if op == "<":
                return int(lv < rv)
            if op == "<=":
                return int(lv <= rv)
            if op == ">":
                return int(lv > rv)
            if op == ">=":
                return int(lv >= rv)
            raise EvalError(f"unknown binary operator {op!r}")
        if isinstance(node, Cond):
            return ev(node.then) if ev(node.cond) else ev(node.other)
        if isinstance(node, Call):
            fn = _FUNCS.get(node.func.lower())
            if fn is None:
                raise EvalError(f"uninterpretable function {node.func!r}")
            return fn([ev(a) for a in node.args])
        raise EvalError(f"unknown expression node {type(node).__name__}")

    return ev(expr)


#: A compiled expression: folded environment -> integer.
Compiled = Callable[[Mapping[str, "int | str | bool"]], int]


def _div(lv: int, rv: int) -> int:
    if rv == 0:
        raise EvalError("division by zero in constant expression")
    return int(lv / rv)


def _mod(lv: int, rv: int) -> int:
    if rv == 0:
        raise EvalError("modulo by zero in constant expression")
    return lv % rv


def _rem(lv: int, rv: int) -> int:
    if rv == 0:
        raise EvalError("rem by zero in constant expression")
    return int(lv - int(lv / rv) * rv)


def _pow(lv: int, rv: int) -> int:
    if rv < 0:
        raise EvalError("negative exponent in constant expression")
    if rv * max(1, abs(lv).bit_length()) > FOLD_BIT_LIMIT:
        raise EvalError("constant power exceeds the folding bit limit")
    return lv**rv


def _shl(lv: int, rv: int) -> int:
    if rv > 0 and rv + abs(lv).bit_length() > FOLD_BIT_LIMIT:
        raise EvalError("constant shift exceeds the folding bit limit")
    return lv << rv


def _bool_op(test: Callable[[bool, bool], bool]) -> Callable[[int, int], int]:
    return lambda lv, rv: int(test(bool(lv), bool(rv)))


def _compare(test: Callable[[int, int], bool]) -> Callable[[int, int], int]:
    return lambda lv, rv: int(test(lv, rv))


_BINARY: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "mod": _mod,
    "rem": _rem,
    "**": _pow,
    "<<": _shl,
    ">>": operator.rshift,
    "and": _bool_op(lambda a, b: a and b),
    "&&": _bool_op(lambda a, b: a and b),
    "or": _bool_op(lambda a, b: a or b),
    "||": _bool_op(lambda a, b: a or b),
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "=": _compare(operator.eq),
    "==": _compare(operator.eq),
    "/=": _compare(operator.ne),
    "!=": _compare(operator.ne),
    "<": _compare(operator.lt),
    "<=": _compare(operator.le),
    ">": _compare(operator.gt),
    ">=": _compare(operator.ge),
}

_UNARY: dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "+": lambda v: v,
    "not": lambda v: int(v == 0),
    "!": lambda v: int(v == 0),
    "~": operator.invert,
}


def _raiser(message: str, *operands: Compiled) -> Compiled:
    """A closure that evaluates ``operands`` in order, then raises."""

    def fail(env: Mapping[str, int | str | bool]) -> int:
        for operand in operands:
            operand(env)
        raise EvalError(message)

    return fail


def compile_expr(expr: Expr) -> Compiled:
    """``expr`` compiled once into a closure over a folded environment.

    ``compile_expr(e)(fold_env(env))`` answers what ``evaluate(e, env)``
    answers — the same integer, or an :class:`EvalError` of the same type
    and message — without walking the tree again: a caller evaluating
    one expression under many environments (a port bound at every design
    point) pays the dispatch on node type and operator once.  The closure
    looks names up in its argument as given, so that must be folded
    (:func:`fold_env`).  :func:`evaluate` stays the reference semantics.
    """

    def build(node: Expr) -> Compiled:
        if isinstance(node, Num):
            value = node.value
            return lambda env: value
        if isinstance(node, StrLit):
            text = node.value
            return lambda env: _as_int(text)
        if isinstance(node, Name):
            ident, key = node.ident, node.ident.lower()

            def name(env: Mapping[str, int | str | bool]) -> int:
                try:
                    value = env[key]
                except KeyError:
                    raise EvalError(
                        f"unbound name {ident!r} in constant expression "
                        f"{expr.render()!r}"
                    ) from None
                return value if type(value) is int else _as_int(value)

            return name
        if isinstance(node, UnOp):
            operand = build(node.operand)
            unary = _UNARY.get(node.op)
            if unary is None:
                return _raiser(f"unknown unary operator {node.op!r}", operand)
            return lambda env: unary(operand(env))
        if isinstance(node, BinOp):
            left, right = build(node.left), build(node.right)
            binary = _BINARY.get(node.op)
            if binary is None:
                return _raiser(f"unknown binary operator {node.op!r}", left, right)
            return lambda env: binary(left(env), right(env))
        if isinstance(node, Cond):
            cond, then, other = build(node.cond), build(node.then), build(node.other)
            return lambda env: then(env) if cond(env) else other(env)
        if isinstance(node, Call):
            fn = _FUNCS.get(node.func.lower())
            if fn is None:
                return _raiser(f"uninterpretable function {node.func!r}")
            args = tuple(build(a) for a in node.args)
            return lambda env: fn([a(env) for a in args])
        return _raiser(f"unknown expression node {type(node).__name__}")

    return build(expr)


def free_names(expr: Expr) -> set[str]:
    """All parameter names referenced by ``expr`` (original casing)."""
    names: set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, Name):
            names.add(node.ident)
        elif isinstance(node, UnOp):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Cond):
            walk(node.cond)
            walk(node.then)
            walk(node.other)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)

    walk(expr)
    return names
