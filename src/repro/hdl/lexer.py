"""Configurable lexer shared by the VHDL and Verilog/SystemVerilog parsers.

One tokenizer engine, two dialect configurations.  Handles the lexical forms
the declaration subset needs:

- comments: ``--`` (VHDL), ``//`` and ``/* */`` (Verilog);
- based literals: ``16#FF#``/``2#1010#`` (VHDL), ``8'hFF``/``'b1010``
  (Verilog, with underscores and optional size/sign);
- identifiers: plain, VHDL extended (``\\foo bar\\``), Verilog escaped
  (``\\foo!bar`` terminated by whitespace);
- strings and VHDL character literals (``'0'``, disambiguated from Verilog
  based literals by dialect);
- Verilog attribute instances ``(* ... *)`` and preprocessor lines
  (``\\`timescale``, ``\\`define`` …), both skipped.

Trivia, ASCII identifiers, plain decimals and operators are matched by one
compiled pattern table per dialect (in the style of Pygments' lexers); the
rarer forms fall through to a hand-written scanner each.  Token positions
come from newline offsets.

Numbers are normalized to Python ints at lex time so parsers and the
expression evaluator never re-parse literal text.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import LexError

__all__ = ["TokenKind", "Token", "LexerConfig", "Lexer", "VHDL_LEX", "VERILOG_LEX"]


class TokenKind(str, enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    CHAR = "CHAR"      # VHDL character literal: '0'
    OP = "OP"          # operator or punctuation
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int
    value: int | None = None  # numeric value for NUMBER tokens

    def is_ident(self, *names: str) -> bool:
        """Case-insensitive identifier match (VHDL keywords are identifiers)."""
        return self.kind == TokenKind.IDENT and self.text.lower() in {
            n.lower() for n in names
        }

    def is_op(self, *ops: str) -> bool:
        return self.kind == TokenKind.OP and self.text in ops


# Longest-first operator tables: the pattern alternation keeps this order,
# so the first alternative that matches is the maximal munch.  ``'`` is not
# here: it starts a literal or a tick, and is otherwise a lenient one-char OP.
_VHDL_OPS = [
    "**", "=>", ":=", "<=", ">=", "/=", "<>", "<<", ">>",
    "(", ")", ";", ":", ",", ".", "+", "-", "*", "/", "=", "<", ">", "&", "|",
]
_VERILOG_OPS = [
    "**", "<<<", ">>>", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "::",
    "+:", "-:", "->", "#", "@",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "+", "-", "*", "/", "%",
    "=", "<", ">", "&", "|", "^", "~", "!", "?", "$",
]

# ``\w`` is exactly ``str.isalnum()`` or ``_`` on every code point.
_IDENT_TAIL = re.compile(r"[\w$]*")


def _pattern_table(cfg: LexerConfig) -> re.Pattern[str]:
    """One alternation, tried in order at each position.  What it leaves
    (``rare``: the opener of an unterminated comment or attribute; no match:
    e.g. a decimal that goes on as a based, sized, real or non-ASCII
    literal) is scanned by :meth:`Lexer._scan_rare`."""
    skip = [r"[ \t\r\n\f]+"]
    skip += [re.escape(marker) + r"[^\n]*" for marker in cfg.line_comments]
    skip += [re.escape(b) + r"(?s:.*?)" + re.escape(e) for b, e in cfg.block_comments]
    rare = [re.escape(b) for b, _ in cfg.block_comments]
    if cfg.verilog_literals:  # `(*)` is not an attribute: event expressions use it
        skip += [r"\(\*(?!\))(?s:.*?)\*\)", r"`[^\n]*"]
        rare.append(r"\(\*(?!\))")
    ops = "|".join(map(re.escape, cfg.operators))
    return re.compile(
        f"(?P<skip>{'|'.join(skip)})|(?P<rare>{'|'.join(rare)})"
        f"|(?P<ident>[A-Za-z_]{_IDENT_TAIL.pattern})"
        r"|(?P<number>[0-9][0-9_]*(?![_#']|\.?[0-9\x80-\U0010ffff]))"
        f"|(?P<op>{ops})"
    )


@dataclass(frozen=True)
class LexerConfig:
    name: str
    line_comments: tuple[str, ...]
    block_comments: tuple[tuple[str, str], ...]
    operators: tuple[str, ...]
    vhdl_literals: bool = False      # 16#FF#, character literals, extended idents
    verilog_literals: bool = False   # 8'hFF, escaped idents, `directives, (* *)
    table: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _pattern_table(self))


VHDL_LEX = LexerConfig(
    name="vhdl",
    line_comments=("--",),
    block_comments=(("/*", "*/"),),  # VHDL-2008 delimited comments
    operators=tuple(_VHDL_OPS),
    vhdl_literals=True,
)

VERILOG_LEX = LexerConfig(
    name="verilog",
    line_comments=("//",),
    block_comments=(("/*", "*/"),),
    operators=tuple(_VERILOG_OPS),
    verilog_literals=True,
)

_BASE_DIGITS = {
    "b": 2, "o": 8, "d": 10, "h": 16,
    "sb": 2, "so": 8, "sd": 10, "sh": 16,
}


class Lexer:
    """Tokenize ``source`` eagerly into a list of :class:`Token`."""

    def __init__(self, source: str, config: LexerConfig) -> None:
        self.src = source
        self.cfg = config
        self.pos = 0
        self.line = 1
        self.bol = 0  # offset of the first character of the current line

    @property
    def col(self) -> int:
        return self.pos - self.bol + 1

    # -- main loop -----------------------------------------------------------

    def tokens(self) -> list[Token]:
        src, match = self.src, self.cfg.table.match
        end = len(src)
        out: list[Token] = []
        pos, line, bol = 0, 1, 0
        while pos < end:
            m = match(src, pos)
            if m is None or (kind := m.lastgroup) == "rare":
                self.pos, self.line, self.bol = pos, line, bol
                out.append(self._scan_rare())
                pos, line, bol = self.pos, self.line, self.bol
            elif kind == "skip":
                stop = m.end()
                newlines = src.count("\n", pos, stop)
                if newlines:
                    line += newlines
                    bol = src.rindex("\n", pos, stop) + 1
                pos = stop
            elif kind == "number":
                raw = m.group()
                text = raw.replace("_", "")
                try:
                    out.append(Token(TokenKind.NUMBER, text, line, pos - bol + 1, int(text)))
                except ValueError:  # past int()'s digit limit: the scanner reports it
                    self.pos, self.line, self.bol = pos, line, bol
                    out.append(self._scan_number())
                pos += len(raw)
            else:
                text = m.group()
                tok_kind = TokenKind.IDENT if kind == "ident" else TokenKind.OP
                out.append(Token(tok_kind, text, line, pos - bol + 1))
                pos += len(text)
        out.append(Token(TokenKind.EOF, "", line, pos - bol + 1))
        return out

    # -- rare forms: one scanner each, positioned by the shared state ---------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _startswith(self, text: str) -> bool:
        return self.src.startswith(text, self.pos)

    def _advance(self, n: int = 1) -> str:
        chunk = self.src[self.pos : self.pos + n]
        newline = chunk.rfind("\n")
        if newline >= 0:
            self.line += chunk.count("\n")
            self.bol = self.pos + newline + 1
        self.pos += len(chunk)
        return chunk

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _scan_rare(self) -> Token:
        """Scan one token the pattern table does not cover."""
        ch = self._peek()
        line, col = self.line, self.col
        if ch == '"':
            return self._scan_string()
        if ch.isdigit():
            return self._scan_number()
        if ch == "'" and self.cfg.verilog_literals and self._peek(1).lower() in "sbodh01xz":
            return self._scan_verilog_based(None, line, col)
        if ch == "'" and self.cfg.vhdl_literals:
            return self._scan_char_or_tick()
        if ch == "\\":
            return self._scan_extended_ident()
        # A non-ASCII letter (the table takes ASCII ones); the tail always matches.
        if ch.isalpha() and (tail := _IDENT_TAIL.match(self.src, self.pos + 1)):
            return Token(TokenKind.IDENT, self._advance(tail.end() - self.pos), line, col)
        for begin, _ in self.cfg.block_comments:
            if self._startswith(begin):
                raise self._error("unterminated block comment")
        if self.cfg.verilog_literals and self._startswith("(*"):
            raise self._error("unterminated attribute instance")
        # Lenient fallback: bodies (which the parsers skip token-wise) may
        # contain operators outside our subset, e.g. VHDL-2008 matching
        # operators. Emit them as single-char OP tokens.
        self._advance()
        return Token(TokenKind.OP, ch, line, col)

    def _scan_string(self) -> Token:
        line, col = self.line, self.col
        quote = self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.src):
                raise LexError("unterminated string literal", line, col)
            ch = self._advance()
            if ch == "\\" and self.cfg.verilog_literals:
                chars.append(self._advance())
                continue
            if ch == quote:
                if self.cfg.vhdl_literals and self._peek() == quote:
                    chars.append(self._advance())  # VHDL doubled-quote escape
                    continue
                break
            chars.append(ch)
        return Token(TokenKind.STRING, "".join(chars), line, col)

    def _scan_number(self) -> Token:
        line, col = self.line, self.col
        digits: list[str] = []
        while self._peek().isdigit() or self._peek() == "_":
            digits.append(self._advance())
        text = "".join(d for d in digits if d != "_")
        if not text.isdecimal():  # `²` passes isdigit() but not int()
            raise LexError(f"bad digit in number literal {text!r}", line, col)
        # VHDL based literal: 16#FF#
        if self.cfg.vhdl_literals and self._peek() == "#":
            base = _to_int(text, line, col)
            self._advance()
            mant: list[str] = []
            while self._peek() not in ("#", ""):
                mant.append(self._advance())
            if self._peek() != "#":
                raise LexError("unterminated based literal", line, col)
            self._advance()
            raw = "".join(c for c in mant if c != "_")
            try:
                value = int(raw, base)
            except ValueError as exc:
                raise LexError(f"bad based literal {raw!r} in base {base}", line, col) from exc
            return Token(TokenKind.NUMBER, f"{base}#{raw}#", line, col, value=value)
        # Verilog sized literal: 8'hFF  (size just lexed as `text`)
        if self.cfg.verilog_literals and self._peek() == "'":
            return self._scan_verilog_based(_to_int(text, line, col) if text else None, line, col)
        if self._peek() == "." and self._peek(1).isdigit():
            # Real literal; interface arithmetic is integral, keep the int part
            # if exact, else error (ports never have fractional widths).
            frac: list[str] = [self._advance()]
            while self._peek().isdigit():
                frac.append(self._advance())
            real_text = text + "".join(frac)
            try:
                value_f = float(real_text)
            except ValueError:
                raise LexError(f"bad digit in number literal {real_text!r}", line, col) from None
            if math.isinf(value_f):
                raise LexError("real literal out of range", line, col)
            if value_f != int(value_f):
                raise LexError(f"non-integral literal {real_text} in interface", line, col)
            return Token(TokenKind.NUMBER, real_text, line, col, value=int(value_f))
        return Token(TokenKind.NUMBER, text, line, col, value=_to_int(text, line, col))

    def _scan_verilog_based(self, size: int | None, line: int, col: int) -> Token:
        self._advance()  # consume '
        spec = ""
        if self._peek().lower() == "s":
            spec += self._advance().lower()
        if not self._peek():  # NB: `"" in "bodh"` is True
            raise LexError("unterminated based literal", line, col)
        if self._peek().lower() in "bodh":
            spec += self._advance().lower()
        else:
            # '0 / '1 / 'x unbased unsized literal
            ch = self._advance()
            if ch in "01":
                return Token(TokenKind.NUMBER, f"'{ch}", line, col, value=int(ch))
            if ch.lower() in "xz":
                return Token(TokenKind.NUMBER, f"'{ch}", line, col, value=0)
            raise LexError(f"bad unbased literal '{ch}", line, col)
        base = _BASE_DIGITS[spec]
        mant: list[str] = []
        while True:
            ch = self._peek()
            if ch == "_" or ch.isalnum():
                # stop at identifiers that are not valid digits in this base
                if ch != "_" and not _is_base_digit(ch, base):
                    break
                mant.append(self._advance())
            else:
                break
        raw = "".join(c for c in mant if c != "_")
        if not raw:
            raise LexError("based literal with no digits", line, col)
        cleaned = raw.lower().replace("x", "0").replace("z", "0")
        value = _to_int(cleaned, line, col, base)
        size_txt = str(size) if size is not None else ""
        return Token(
            TokenKind.NUMBER, f"{size_txt}'{spec}{raw}", line, col, value=value
        )

    def _scan_extended_ident(self) -> Token:
        """VHDL ``\\name\\`` or Verilog ``\\name<space>`` escaped identifier."""
        line, col = self.line, self.col
        self._advance()  # leading backslash
        chars: list[str] = []
        if self.cfg.vhdl_literals:
            while True:
                if self.pos >= len(self.src):
                    raise LexError("unterminated extended identifier", line, col)
                ch = self._advance()
                if ch == "\\":
                    if self._peek() == "\\":
                        chars.append(self._advance())
                        continue
                    break
                chars.append(ch)
        else:
            while self.pos < len(self.src) and not self._peek().isspace():
                chars.append(self._advance())
        if not chars:
            raise LexError("empty escaped identifier", line, col)
        return Token(TokenKind.IDENT, "".join(chars), line, col)

    def _scan_char_or_tick(self) -> Token:
        """VHDL ``'`` is either a character literal or the attribute tick."""
        line, col = self.line, self.col
        if self._peek(2) == "'" and self._peek(1) != "":
            text = self._peek(1)
            self._advance(3)
            return Token(TokenKind.CHAR, text, line, col)
        self._advance()
        return Token(TokenKind.OP, "'", line, col)


def _to_int(digits: str, line: int, col: int, base: int = 10) -> int:
    """``int(digits, base)`` of digits already checked for ``base``: the
    only ``ValueError`` left is a decimal past ``int()``'s digit limit."""
    try:
        return int(digits, base)
    except ValueError:
        raise LexError(f"number literal of {len(digits)} digits is too long", line, col) from None


def _is_base_digit(ch: str, base: int) -> bool:
    ch = ch.lower()
    if ch in "xz?":
        return True
    try:
        return int(ch, base) < base
    except ValueError:
        return False
