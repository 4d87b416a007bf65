"""Frontend dispatch: language detection, file parsing, source collections.

Mirrors Dovado's entry point: the user hands over one or more RTL files plus
a top-module name; the frontend picks the dialect per file extension (with a
content-based fallback), parses every unit, and resolves the requested top.
It also enforces the paper's Vivado compilation conventions hooks: VHDL
library naming (one subdirectory per library) is *recorded* per file, and SV
package files sort first in compile order.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import ModuleNotFoundInSource, UnknownLanguageError
from repro.hdl.ast import HdlLanguage, Module, SourceUnit
from repro.hdl.verilog_parser import parse_verilog
from repro.hdl.vhdl_parser import parse_vhdl
from repro.observe import current_telemetry

__all__ = [
    "PARSE_MEMO_CAPACITY",
    "detect_language",
    "parse_source",
    "parse_file",
    "SourceCollection",
]

_EXT_LANG = {
    ".vhd": HdlLanguage.VHDL,
    ".vhdl": HdlLanguage.VHDL,
    ".v": HdlLanguage.VERILOG,
    ".vh": HdlLanguage.VERILOG,
    ".sv": HdlLanguage.SYSTEMVERILOG,
    ".svh": HdlLanguage.SYSTEMVERILOG,
}


def detect_language(path: str | Path | None = None, source: str | None = None) -> HdlLanguage:
    """Determine HDL dialect from extension, falling back to content sniffing."""
    if path is not None:
        ext = Path(path).suffix.lower()
        if ext in _EXT_LANG:
            return _EXT_LANG[ext]
    if source is not None:
        lowered = source.lower()
        if "endmodule" in lowered or "module " in lowered:
            # SV-only markers promote to SYSTEMVERILOG
            if any(kw in lowered for kw in ("logic", "always_ff", "always_comb", "::")):
                return HdlLanguage.SYSTEMVERILOG
            return HdlLanguage.VERILOG
        if "entity" in lowered and "end" in lowered:
            return HdlLanguage.VHDL
    raise UnknownLanguageError(
        f"cannot determine HDL language for {path!r}"
        + ("" if source is None else " from content")
    )


_MACRO_DIRECTIVES = ("`define", "`include", "`ifdef", "`ifndef")

#: Distinct sources the parse memo keeps.  Fixed and small on purpose: a
#: DSE loop re-reads one design source plus a box wrapper per point, and
#: the memo must not grow with the number of points evaluated.
PARSE_MEMO_CAPACITY = 64

# Per-thread "the last lookup missed" flag, set by the memoized function.
_memo_state = threading.local()


def _has_macros(source: str, language: HdlLanguage) -> bool:
    return language != HdlLanguage.VHDL and any(d in source for d in _MACRO_DIRECTIVES)


def _parse(
    source: str, language: HdlLanguage, include_dirs: tuple[str, ...]
) -> list[Module]:
    if language == HdlLanguage.VHDL:
        return parse_vhdl(source)
    if _has_macros(source, language):
        from repro.hdl.preprocess import preprocess_verilog

        source = preprocess_verilog(source, include_dirs=include_dirs)
    return parse_verilog(source, language)


@functools.lru_cache(maxsize=PARSE_MEMO_CAPACITY)
def _parse_memoized(
    source: str, language: HdlLanguage, include_dirs: tuple[str, ...]
) -> tuple[Module, ...]:
    _memo_state.missed = True
    return tuple(_parse(source, language, include_dirs))


def parse_source(
    source: str,
    language: HdlLanguage | str,
    include_dirs: tuple[str, ...] = (),
) -> list[Module]:
    """Parse HDL text under an explicit dialect.

    Verilog/SV sources carrying macro directives run through the
    preprocessor first (``\\`timescale``-style pass-through directives
    alone don't need it — the lexer skips those).

    Results are memoized on ``(source, language, include_dirs)`` for the
    last :data:`PARSE_MEMO_CAPACITY` distinct sources; the AST is frozen,
    so callers share it safely.  Sources carrying macro directives bypass
    the memo: an ``\\`include`` reads the disk, and the included file may
    have changed since.  With telemetry enabled, memo lookups count as
    ``hdl.parse_memo_hits`` / ``hdl.parse_memo_misses``.
    """
    language = HdlLanguage(language)
    if _has_macros(source, language):
        return _parse(source, language, include_dirs)
    tel = current_telemetry()
    if tel is None:
        return list(_parse_memoized(source, language, include_dirs))
    _memo_state.missed = False
    modules = _parse_memoized(source, language, include_dirs)
    tel.counters.inc(
        "hdl.parse_memo_misses" if _memo_state.missed else "hdl.parse_memo_hits"
    )
    return list(modules)


def parse_file(path: str | Path) -> SourceUnit:
    """Parse one file, detecting dialect from its extension/content.

    The file's own directory serves as the ``\\`include`` search path.
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    language = detect_language(path, source)
    modules = parse_source(source, language, include_dirs=(str(path.parent),))
    return SourceUnit(path=str(path), language=language, modules=tuple(modules))


def _is_package_file(unit: SourceUnit, source_text: str | None = None) -> bool:
    """Heuristic: SV files declaring only packages (no modules)."""
    return unit.language == HdlLanguage.SYSTEMVERILOG and not unit.modules


@dataclass
class SourceCollection:
    """A set of parsed sources forming one design hierarchy.

    ``vhdl_library`` maps file path → VHDL library name, derived from the
    parent directory name per the paper's convention ("one subfolder per
    library with the same name"); files at the collection root compile into
    ``work``.
    """

    units: list[SourceUnit] = field(default_factory=list)
    vhdl_library: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_sources(
        cls, sources: Iterable[tuple[str, HdlLanguage | str]]
    ) -> "SourceCollection":
        """Build from in-memory ``(text, language)`` pairs (tests, generators)."""
        coll = cls()
        for i, (text, language) in enumerate(sources):
            language = HdlLanguage(language)
            modules = parse_source(text, language)
            coll.units.append(
                SourceUnit(path=f"<memory:{i}>", language=language, modules=tuple(modules))
            )
        return coll

    def add_file(self, path: str | Path, root: str | Path | None = None) -> SourceUnit:
        unit = parse_file(path)
        self.units.append(unit)
        if unit.language == HdlLanguage.VHDL:
            parent = Path(path).resolve().parent
            library = "work"
            if root is not None and parent != Path(root).resolve():
                library = parent.name
            self.vhdl_library[str(path)] = library
        return unit

    def add_unit(self, unit: SourceUnit) -> None:
        self.units.append(unit)

    def modules(self) -> list[Module]:
        return [m for u in self.units for m in u.modules]

    def find_module(self, name: str) -> Module:
        """Resolve a top module by name (case-insensitive)."""
        matches = [m for m in self.modules() if m.name.lower() == name.lower()]
        if not matches:
            available = ", ".join(sorted(m.name for m in self.modules())) or "<none>"
            raise ModuleNotFoundInSource(
                f"module {name!r} not found; available: {available}"
            )
        return matches[0]

    def compile_order(self) -> list[SourceUnit]:
        """Units in tool compile order: SV package files first (paper rule),
        then everything else in insertion order."""
        packages = [u for u in self.units if _is_package_file(u)]
        rest = [u for u in self.units if not _is_package_file(u)]
        return packages + rest

    def languages(self) -> set[HdlLanguage]:
        return {u.language for u in self.units}
