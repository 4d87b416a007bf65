"""Frozen reference of the character-at-a-time HDL lexer.

This is the ``Lexer``/``Token`` pair that the regex-table lexer in
:mod:`repro.hdl.lexer` replaced, kept verbatim (only ``TokenKind`` is
imported, so both lexers' kinds are the same objects).  The differential
test in ``tests/test_hdl_lexer_oracle.py`` asserts that the new lexer
returns the same tokens, or raises the same error at the same position,
on every input.  Do not "improve" it: its value is that it does not
change, crashes included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LexError
from repro.hdl.lexer import TokenKind

__all__ = ["Token", "LexerConfig", "Lexer", "VHDL_LEX", "VERILOG_LEX"]


@dataclass(frozen=True)
class Token:
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


# Longest-first operator tables so maximal munch is a simple ordered scan.
_VHDL_OPS = [
    "**", "=>", ":=", "<=", ">=", "/=", "<>", "<<", ">>",
    "(", ")", ";", ":", ",", ".", "+", "-", "*", "/", "=", "<", ">", "&", "'", "|",
]
_VERILOG_OPS = [
    "**", "<<<", ">>>", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "::",
    "+:", "-:", "->", "#", "@",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "+", "-", "*", "/", "%",
    "=", "<", ">", "&", "|", "^", "~", "!", "?", "$", "'",
]


@dataclass(frozen=True)
class LexerConfig:
    name: str
    line_comments: tuple[str, ...]
    block_comments: tuple[tuple[str, str], ...]
    operators: tuple[str, ...]
    vhdl_literals: bool = False      # 16#FF#, character literals, extended idents
    verilog_literals: bool = False   # 8'hFF, escaped idents, `directives, (* *)
    ident_extra: str = "_$"
    _op_heads: frozenset[str] = field(init=False, default=frozenset())

    def __post_init__(self) -> None:
        object.__setattr__(self, "_op_heads", frozenset(op[0] for op in self.operators))


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
        self.col = 1

    # -- low-level helpers --------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _startswith(self, text: str) -> bool:
        return self.src.startswith(text, self.pos)

    def _advance(self, n: int = 1) -> str:
        chunk = self.src[self.pos : self.pos + n]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return chunk

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    # -- whitespace / comments ----------------------------------------------

    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n\f":
                self._advance()
                continue
            matched = False
            for marker in self.cfg.line_comments:
                if self._startswith(marker):
                    while self.pos < len(self.src) and self._peek() != "\n":
                        self._advance()
                    matched = True
                    break
            if matched:
                continue
            for begin, end in self.cfg.block_comments:
                if self._startswith(begin):
                    start_line = self.line
                    self._advance(len(begin))
                    while self.pos < len(self.src) and not self._startswith(end):
                        self._advance()
                    if self.pos >= len(self.src):
                        raise LexError("unterminated block comment", start_line, 0)
                    self._advance(len(end))
                    matched = True
                    break
            if matched:
                continue
            if self.cfg.verilog_literals and self._startswith("(*") and self._peek(2) != ")":
                # Attribute instance (* keep = "true" *). `(*)` is a real
                # paren-star-paren sequence in event expressions; not our subset.
                start_line = self.line
                self._advance(2)
                while self.pos < len(self.src) and not self._startswith("*)"):
                    self._advance()
                if self.pos >= len(self.src):
                    raise LexError("unterminated attribute instance", start_line, 0)
                self._advance(2)
                continue
            if self.cfg.verilog_literals and ch == "`":
                # Compiler directive: consume the whole line.
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
                continue
            break

    # -- token scanners ------------------------------------------------------

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
        # VHDL based literal: 16#FF#
        if self.cfg.vhdl_literals and self._peek() == "#":
            base = int(text)
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
            return self._scan_verilog_based(int(text) if text else None, line, col)
        if self._peek() == "." and self._peek(1).isdigit():
            # Real literal; interface arithmetic is integral, keep the int part
            # if exact, else error (ports never have fractional widths).
            frac: list[str] = [self._advance()]
            while self._peek().isdigit():
                frac.append(self._advance())
            real_text = text + "".join(frac)
            value_f = float(real_text)
            if value_f != int(value_f):
                raise LexError(f"non-integral literal {real_text} in interface", line, col)
            return Token(TokenKind.NUMBER, real_text, line, col, value=int(value_f))
        if not text:
            raise self._error("empty number literal")
        return Token(TokenKind.NUMBER, text, line, col, value=int(text))

    def _scan_verilog_based(self, size: int | None, line: int, col: int) -> Token:
        self._advance()  # consume '
        spec = ""
        if self._peek().lower() == "s":
            spec += self._advance().lower()
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
        value = int(cleaned, base)
        size_txt = str(size) if size is not None else ""
        return Token(
            TokenKind.NUMBER, f"{size_txt}'{spec}{raw}", line, col, value=value
        )

    def _scan_ident(self) -> Token:
        line, col = self.line, self.col
        chars: list[str] = []
        while True:
            ch = self._peek()
            # NB: the explicit emptiness check matters — `"" in "_$"` is True.
            if ch and (ch.isalnum() or ch in self.cfg.ident_extra):
                chars.append(self._advance())
            else:
                break
        return Token(TokenKind.IDENT, "".join(chars), line, col)

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

    # -- main loop -----------------------------------------------------------

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.src):
                out.append(Token(TokenKind.EOF, "", self.line, self.col))
                return out
            ch = self._peek()
            if ch == '"':
                out.append(self._scan_string())
            elif ch.isdigit():
                out.append(self._scan_number())
            elif self.cfg.verilog_literals and ch == "'" and (
                self._peek(1).lower() in "sbodh01xz"
            ):
                line, col = self.line, self.col
                out.append(self._scan_verilog_based(None, line, col))
            elif self.cfg.vhdl_literals and ch == "'":
                out.append(self._scan_char_or_tick())
            elif ch == "\\":
                out.append(self._scan_extended_ident())
            elif ch.isalpha() or ch == "_":
                out.append(self._scan_ident())
            elif ch in self.cfg._op_heads:
                line, col = self.line, self.col
                for op in self.cfg.operators:
                    if self._startswith(op):
                        self._advance(len(op))
                        out.append(Token(TokenKind.OP, op, line, col))
                        break
                else:  # pragma: no cover - every op head has a 1-char op
                    raise self._error(f"unexpected character {ch!r}")
            else:
                # Lenient fallback: bodies (which the parsers skip token-wise)
                # may contain operators outside our subset, e.g. VHDL-2008
                # matching operators. Emit them as single-char OP tokens.
                line, col = self.line, self.col
                self._advance()
                out.append(Token(TokenKind.OP, ch, line, col))


def _is_base_digit(ch: str, base: int) -> bool:
    ch = ch.lower()
    if ch in "xz?":
        return True
    try:
        return int(ch, base) < base
    except ValueError:
        return False
