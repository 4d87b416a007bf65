"""Differential test: the regex-table lexer against the frozen reference.

``tests/_reference_lexer.py`` is the character-at-a-time lexer the pattern
table replaced.  On every input, in both dialects, the two must return the
same tokens (kind, text, line, column, value), or raise the same exception
type with the same message.  The only divergences allowed are the ones
named in :data:`ALLOWED`, where the reference crashes or misplaces a column.
"""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.boxing import build_box
from repro.designs import all_designs
from repro.hdl import lexer as new
from tests import _reference_lexer as ref

ROOT = Path(__file__).resolve().parent.parent
DIALECTS = ("vhdl", "verilog")

# name -> (reference error pattern, new error pattern).  The reference
# lets KeyError/ValueError escape for a Verilog `'` or `'s` at end of input,
# for a digit `int()` rejects (e.g. `²`) and for a decimal past `int()`'s
# digit limit, lets OverflowError escape for a real literal whose float is
# infinite, and reports column 0 for an unterminated block comment or
# attribute instance.
ALLOWED = {
    "tick-at-eof": (r"KeyError: ''", r"LexError: unterminated based literal \("),
    "signed-tick-at-eof": (r"KeyError: 's'", r"LexError: unterminated based literal \("),
    "non-decimal-digit": (
        r"ValueError: (invalid literal for int\(\)|could not convert string to float)",
        r"LexError: bad digit in number literal ",
    ),
    "digit-limit": (
        r"ValueError: Exceeds the limit \(\d+ digits\) for integer string conversion",
        r"LexError: number literal of \d+ digits is too long \(",
    ),
    "real-overflow": (
        r"OverflowError: cannot convert float infinity to integer",
        r"LexError: real literal out of range \(",
    ),
    "comment-column": (
        r"LexError: unterminated block comment \(line \d+, column 0\)",
        r"LexError: unterminated block comment \(line \d+, column [1-9]\d*\)",
    ),
    "attribute-column": (
        r"LexError: unterminated attribute instance \(line \d+, column 0\)",
        r"LexError: unterminated attribute instance \(line \d+, column [1-9]\d*\)",
    ),
}


def _outcome(module, source: str, dialect: str) -> tuple:
    config = getattr(module, "VHDL_LEX" if dialect == "vhdl" else "VERILOG_LEX")
    try:
        toks = module.Lexer(source, config).tokens()
    except Exception as exc:  # the exception, crashes included, is the outcome
        return ("raise", f"{type(exc).__name__}: {exc}")
    return ("tokens", [(t.kind, t.text, t.line, t.column, t.value) for t in toks])


def _divergence(got: tuple, want: tuple) -> str | None:
    """Name of the allowed divergence ``got`` (new) vs ``want`` (reference)."""
    if got[0] != "raise" or want[0] != "raise":
        return None
    for name, (ref_pat, new_pat) in ALLOWED.items():
        if re.match(ref_pat, want[1]) and re.match(new_pat, got[1]):
            if name.endswith("-column"):  # same line, only the column moves
                line = re.compile(r"\(line (\d+),")
                if line.search(got[1])[1] != line.search(want[1])[1]:
                    return None
            return name
    return None


def check(source: str) -> set[str]:
    """Assert agreement in both dialects; return the divergences seen."""
    seen: set[str] = set()
    for dialect in DIALECTS:
        got, want = _outcome(new, source, dialect), _outcome(ref, source, dialect)
        if got != want:
            name = _divergence(got, want)
            assert name is not None, (dialect, source, got, want)
            seen.add(name)
    return seen


def _box_sources() -> list[str]:
    rng = random.Random(2021)
    out = []
    for gen in all_designs().values():
        module = gen.module()
        for _ in range(4):
            binding = {p.name: rng.choice(p.values()) for p in gen.params}
            out.append(build_box(module, binding).source)
    return out


def _example_sources() -> list[str]:
    examples = ROOT / "examples"
    out = [p.read_text(encoding="utf-8") for p in sorted(examples.rglob("*"))
           if p.suffix in (".v", ".sv", ".vhd")]
    for script in sorted(examples.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "\n" in node.value:
                out.append(node.value)
    return out


@pytest.mark.parametrize("name", sorted(all_designs()))
def test_bundled_designs_agree(name):
    assert check(all_designs()[name].source()) == set()


def test_box_wrappers_agree():
    boxes = _box_sources()
    assert any("entity box is" in b for b in boxes)  # VHDL boxes
    assert any("module box" in b for b in boxes)     # Verilog boxes
    for source in boxes:
        assert check(source) == set()


def test_examples_agree():
    sources = _example_sources()
    assert len(sources) >= 4
    for source in sources:
        assert check(source) == set()


@pytest.mark.parametrize("name, source", [
    ("tick-at-eof", "x = '"),
    ("tick-at-eof", "x = 8'"),
    ("signed-tick-at-eof", "x = 's"),
    ("signed-tick-at-eof", "x = 4'S"),
    ("non-decimal-digit", "x = ²"),
    ("non-decimal-digit", "x = 1.²"),
    pytest.param("digit-limit", "x = " + "1" * 5000, id="digit-limit-decimal"),
    pytest.param("digit-limit", "x = " + "1" * 5000 + "#f#", id="digit-limit-vhdl-base"),
    pytest.param("digit-limit", "x = 8'd" + "1" * 5000, id="digit-limit-verilog-d"),
    pytest.param("real-overflow", "x = " + "1" * 400 + ".5", id="real-overflow-400-digits"),
    ("comment-column", "a\n  b /* open"),
    ("attribute-column", "a\n  (* keep"),
])
def test_each_allowed_divergence_is_reachable(name, source):
    assert name in check(source)


_FRAGMENTS = [
    "a", "Z", "_", "$", "s", "S", "h", "b", "x", "0", "1", "9", "é", "²", "٣",
    " ", "\n", "\t", "\r", "\f", "\v", '"', "\\", "'", "#", "`", ".",
    "(", ")", "*", "/", "-", "<", "=", ">", ":", ";", "[", "]", "{", "}", "!", "°",
    "/*", "*/", "(*", "*)", "--", "//", "8'h", "'b", "16#", "'0'", '""',
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_random_inputs_agree(source):
    check(source)
