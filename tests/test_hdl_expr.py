"""Tests for the shared constant-expression AST and evaluator."""

import pytest

from repro.hdl import expr as E


class TestEvaluate:
    def test_arithmetic(self):
        e = E.BinOp("+", E.Num(2), E.BinOp("*", E.Num(3), E.Num(4)))
        assert E.evaluate(e) == 14

    def test_power(self):
        assert E.evaluate(E.BinOp("**", E.Num(2), E.Num(10))) == 1024

    def test_division_truncates_toward_zero(self):
        assert E.evaluate(E.BinOp("/", E.Num(-7), E.Num(2))) == -3

    def test_mod_and_rem(self):
        assert E.evaluate(E.BinOp("mod", E.Num(-7), E.Num(3))) == 2   # VHDL mod
        assert E.evaluate(E.BinOp("rem", E.Num(-7), E.Num(3))) == -1  # VHDL rem

    def test_shifts(self):
        assert E.evaluate(E.BinOp("<<", E.Num(1), E.Num(5))) == 32
        assert E.evaluate(E.BinOp(">>", E.Num(64), E.Num(3))) == 8

    def test_name_lookup_case_insensitive(self):
        e = E.BinOp("-", E.Name("Width"), E.Num(1))
        assert E.evaluate(e, {"WIDTH": 8}) == 7

    def test_prefolded_environment_answers_like_the_raw_one(self):
        env = {"WIDTH": 8, "width": 9, "Depth": "TRUE", "N": 3}
        folded = E.fold_env(env)
        assert isinstance(folded, E.FoldedEnv)
        for e in (
            E.BinOp("-", E.Name("Width"), E.Num(1)),
            E.BinOp("+", E.Name("depth"), E.Name("n")),
            E.Num(4),
        ):
            assert E.evaluate(e, folded) == E.evaluate(e, env)
        with pytest.raises(E.EvalError, match="unbound name 'M'"):
            E.evaluate(E.Name("M"), folded)
        assert E.evaluate(E.Num(1), E.fold_env({})) == 1

    def test_unbound_name_raises(self):
        with pytest.raises(E.EvalError, match="unbound"):
            E.evaluate(E.Name("MISSING"))

    def test_unbound_name_error_names_identifier_and_expression(self):
        expr = E.BinOp("+", E.Name("MISSING"), E.Num(1))
        with pytest.raises(E.EvalError) as err:
            E.evaluate(expr, {"OTHER": 3})
        assert "'MISSING'" in str(err.value)
        assert expr.render() in str(err.value)

    def test_keys_differing_in_case_fold_last_wins(self):
        w = E.Name("W")
        assert E.evaluate(w, {"W": 3, "w": 5}) == 5
        assert E.evaluate(w, {"w": 5, "W": 3}) == 3
        assert E.evaluate(E.BinOp("+", w, E.Name("w")), {"W": 3, "w": 5}) == 10

    def test_name_free_expression_never_folds_the_environment(self):
        class Env(dict):
            folds = 0

            def items(self):
                Env.folds += 1
                return super().items()

        env = Env(W=3, w=5)
        assert E.evaluate(E.BinOp("*", E.Num(6), E.Num(7)), env) == 42
        assert Env.folds == 0
        assert E.evaluate(E.BinOp("+", E.Name("W"), E.Name("W")), env) == 10
        assert Env.folds == 1

    def test_unbound_name_message_is_unchanged(self):
        expr = E.BinOp("+", E.Name("Depth"), E.Num(1))
        with pytest.raises(E.EvalError) as err:
            E.evaluate(expr, {"W": 3, "w": 5})
        assert str(err.value) == (
            "unbound name 'Depth' in constant expression '(Depth + 1)'"
        )

    def test_clog2_variants(self):
        for fn in ("$clog2", "clog2", "log2ceil"):
            assert E.evaluate(E.Call(fn, (E.Num(8),))) == 3
            assert E.evaluate(E.Call(fn, (E.Num(9),))) == 4

    def test_clog2_edge_cases(self):
        assert E.evaluate(E.Call("clog2", (E.Num(1),))) == 0
        assert E.evaluate(E.Call("clog2", (E.Num(2),))) == 1
        with pytest.raises(E.EvalError):
            E.evaluate(E.Call("clog2", (E.Num(0),)))

    def test_ternary(self):
        e = E.Cond(E.BinOp(">", E.Name("D"), E.Num(1)),
                   E.Call("clog2", (E.Name("D"),)), E.Num(1))
        assert E.evaluate(e, {"D": 16}) == 4
        assert E.evaluate(e, {"D": 1}) == 1

    def test_boolean_string_coercion(self):
        assert E.evaluate(E.StrLit("TRUE")) == 1
        assert E.evaluate(E.StrLit("false")) == 0
        with pytest.raises(E.EvalError):
            E.evaluate(E.StrLit("hello"))

    def test_unary_operators(self):
        assert E.evaluate(E.UnOp("-", E.Num(5))) == -5
        assert E.evaluate(E.UnOp("!", E.Num(0))) == 1
        assert E.evaluate(E.UnOp("~", E.Num(0))) == -1
        assert E.evaluate(E.UnOp("not", E.Num(3))) == 0

    def test_comparisons_both_dialect_spellings(self):
        assert E.evaluate(E.BinOp("=", E.Num(3), E.Num(3))) == 1
        assert E.evaluate(E.BinOp("==", E.Num(3), E.Num(3))) == 1
        assert E.evaluate(E.BinOp("/=", E.Num(3), E.Num(4))) == 1
        assert E.evaluate(E.BinOp("!=", E.Num(3), E.Num(3))) == 0

    def test_division_by_zero(self):
        with pytest.raises(E.EvalError, match="zero"):
            E.evaluate(E.BinOp("/", E.Num(1), E.Num(0)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(E.EvalError):
            E.evaluate(E.BinOp("**", E.Num(2), E.Num(-1)))

    def test_oversized_shift_rejected_not_materialized(self):
        # 1 << (1 << 60) would be an exabyte-sized integer; the evaluator
        # must reject it instead of stalling the checker.
        huge = E.BinOp("<<", E.Num(1), E.Num(60))
        with pytest.raises(E.EvalError, match="folding bit limit"):
            E.evaluate(E.BinOp("<<", E.Num(1), huge))

    def test_oversized_power_rejected(self):
        with pytest.raises(E.EvalError, match="folding bit limit"):
            E.evaluate(E.BinOp("**", E.Num(2), E.Num(E.FOLD_BIT_LIMIT + 1)))

    def test_large_but_reasonable_results_still_fold(self):
        assert E.evaluate(E.BinOp("<<", E.Num(1), E.Num(4096))) == 1 << 4096
        assert E.evaluate(E.BinOp("**", E.Num(2), E.Num(4096))) == 2**4096

    def test_min_max_functions(self):
        assert E.evaluate(E.Call("maximum", (E.Num(3), E.Num(9)))) == 9
        assert E.evaluate(E.Call("min", (E.Num(3), E.Num(9)))) == 3

    def test_unknown_function_raises(self):
        with pytest.raises(E.EvalError, match="uninterpretable"):
            E.evaluate(E.Call("mystery", (E.Num(1),)))


class TestFreeNames:
    def test_collects_all_references(self):
        e = E.BinOp(
            "+",
            E.Call("clog2", (E.Name("DEPTH"),)),
            E.Cond(E.Name("EN"), E.Name("W"), E.Num(0)),
        )
        assert E.free_names(e) == {"DEPTH", "EN", "W"}

    def test_literals_have_none(self):
        assert E.free_names(E.Num(4)) == set()


class TestRender:
    def test_roundtrip_readable(self):
        e = E.BinOp("-", E.Name("WIDTH"), E.Num(1))
        assert e.render() == "(WIDTH - 1)"

    def test_call_render(self):
        e = E.Call("$clog2", (E.Name("DEPTH"),))
        assert e.render() == "$clog2(DEPTH)"
