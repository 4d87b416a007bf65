"""Tests for the dual-dialect lexer."""

from pathlib import Path

import pytest

from repro.core.cli import main
from repro.errors import LexError
from repro.hdl.lexer import Lexer, TokenKind, VERILOG_LEX, VHDL_LEX


def vhdl_tokens(src):
    return Lexer(src, VHDL_LEX).tokens()


def vlog_tokens(src):
    return Lexer(src, VERILOG_LEX).tokens()


class TestVhdlLexing:
    def test_line_comment_skipped(self):
        toks = vhdl_tokens("a -- comment here\nb")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_block_comment_vhdl2008(self):
        toks = vhdl_tokens("a /* c */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_based_literal_hex(self):
        toks = vhdl_tokens('16#FF#')
        assert toks[0].kind == TokenKind.NUMBER
        assert toks[0].value == 255

    def test_based_literal_binary_with_underscores(self):
        toks = vhdl_tokens("2#1010_0001#")
        assert toks[0].value == 0b10100001

    def test_underscored_decimal(self):
        toks = vhdl_tokens("1_000_000")
        assert toks[0].value == 1000000

    def test_char_literal(self):
        toks = vhdl_tokens("'0'")
        assert toks[0].kind == TokenKind.CHAR
        assert toks[0].text == "0"

    def test_string_with_doubled_quote(self):
        toks = vhdl_tokens('"he said ""hi"""')
        assert toks[0].kind == TokenKind.STRING
        assert toks[0].text == 'he said "hi"'

    def test_extended_identifier(self):
        toks = vhdl_tokens("\\weird name\\")
        assert toks[0].kind == TokenKind.IDENT
        assert toks[0].text == "weird name"

    def test_multichar_operators(self):
        toks = vhdl_tokens("a => b := c ** 2")
        ops = [t.text for t in toks if t.kind == TokenKind.OP]
        assert ops == ["=>", ":=", "**"]

    def test_position_tracking(self):
        toks = vhdl_tokens("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError, match="unterminated string"):
            vhdl_tokens('"open')

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError, match="block comment"):
            vhdl_tokens("/* never closed")

    def test_eof_always_appended(self):
        assert vhdl_tokens("")[-1].kind == TokenKind.EOF


class TestVerilogLexing:
    def test_line_and_block_comments(self):
        toks = vlog_tokens("a // x\n/* y */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_sized_hex_literal(self):
        toks = vlog_tokens("8'hFF")
        assert toks[0].value == 255

    def test_sized_binary_with_x(self):
        toks = vlog_tokens("4'b1x0z")
        assert toks[0].value == 0b1000  # x/z read as 0

    def test_unbased_unsized(self):
        toks = vlog_tokens("'0 '1")
        assert [t.value for t in toks[:-1]] == [0, 1]

    def test_signed_literal(self):
        toks = vlog_tokens("8'sd200")
        assert toks[0].value == 200

    def test_attribute_instance_skipped(self):
        toks = vlog_tokens('(* keep = "true" *) wire x;')
        assert toks[0].text == "wire"

    def test_backtick_directive_skipped(self):
        toks = vlog_tokens("`timescale 1ns/1ps\nmodule")
        assert toks[0].text == "module"

    def test_escaped_identifier(self):
        toks = vlog_tokens("\\bus[0] next")
        assert toks[0].text == "bus[0]"
        assert toks[1].text == "next"

    def test_dollar_ident(self):
        toks = vlog_tokens("$clog2(DEPTH)")
        assert toks[0].is_op("$")
        assert toks[1].text == "clog2"

    def test_three_char_shift(self):
        toks = vlog_tokens("a <<< 2")
        assert toks[1].text == "<<<"

    def test_unknown_char_is_lenient_op(self):
        toks = vlog_tokens("a ° b")  # degree sign: not alnum, not in op table
        assert toks[1].kind == TokenKind.OP

    def test_string_escape(self):
        toks = vlog_tokens(r'"a\"b"')
        assert toks[0].text == 'a"b'


class TestTokenHelpers:
    def test_is_ident_case_insensitive(self):
        tok = vhdl_tokens("ENTITY")[0]
        assert tok.is_ident("entity")
        assert not tok.is_ident("module")

    def test_is_op(self):
        tok = vhdl_tokens("(")[0]
        assert tok.is_op("(", ")")
        assert not tok.is_op(";")


FIXTURES = Path(__file__).parent / "fixtures" / "lex_errors"


class TestLexErrorsNotCrashes:
    """Bad literals raise LexError at the literal, never KeyError/ValueError."""

    def test_tick_at_end_of_input(self):
        with pytest.raises(LexError, match="unterminated based literal") as exc:
            vlog_tokens("x = '")
        assert (exc.value.line, exc.value.column) == (1, 5)

    @pytest.mark.parametrize("src", ["x = 's", "x = 'S"])
    def test_signed_tick_without_base(self, src):
        with pytest.raises(LexError, match="unterminated based literal") as exc:
            vlog_tokens(src)
        assert (exc.value.line, exc.value.column) == (1, 5)

    @pytest.mark.parametrize("lex", [vhdl_tokens, vlog_tokens])
    def test_digit_that_int_rejects(self, lex):
        with pytest.raises(LexError, match="bad digit in number literal") as exc:
            lex("x\n  y = ²;")
        assert (exc.value.line, exc.value.column) == (2, 7)

    @pytest.mark.parametrize("lex", [vhdl_tokens, vlog_tokens])
    def test_real_literal_whose_float_overflows(self, lex):
        with pytest.raises(LexError, match="real literal out of range") as exc:
            lex("x\n  y = " + "1" * 400 + ".5;")
        assert (exc.value.line, exc.value.column) == (2, 7)

    @pytest.mark.parametrize("lex", [vhdl_tokens, vlog_tokens])
    @pytest.mark.parametrize("tail", [";", "#ff#;", "'hff;"])
    def test_decimal_past_the_int_digit_limit(self, lex, tail):
        # A plain decimal, a VHDL base and a Verilog size all reach int().
        with pytest.raises(LexError, match="number literal of 5000 digits is too long") as exc:
            lex("x\n  y = " + "1" * 5000 + tail)
        assert (exc.value.line, exc.value.column) == (2, 7)

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.v")))
    def test_lint_reports_error_not_traceback(self, fixture, capsys):
        assert main(["lint", str(FIXTURES / fixture)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "literal", ["1" * 400 + ".5", "1" * 5000], ids=["real-overflow", "digit-limit"]
    )
    def test_lint_reports_oversized_literal(self, literal, tmp_path, capsys):
        source = tmp_path / "big_literal.v"
        source.write_text(f"module big_literal;\n  localparam P = {literal};\nendmodule\n")
        assert main(["lint", str(source)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUnterminatedColumns:
    @pytest.mark.parametrize("lex", [vhdl_tokens, vlog_tokens])
    def test_block_comment_reports_opening_marker(self, lex):
        with pytest.raises(LexError, match="unterminated block comment") as exc:
            lex("a\n  b /* never closed")
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_attribute_reports_opening_marker(self):
        with pytest.raises(LexError, match="unterminated attribute instance") as exc:
            vlog_tokens("wire a;\n   (* keep = 1")
        assert (exc.value.line, exc.value.column) == (2, 4)
