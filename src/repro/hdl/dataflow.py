"""Parameter dataflow: body scanning and the dependency graph.

The interface parsers deliberately skip module bodies, so by themselves
they can only say how a parameter shapes the *interface*.  Dovado's DSE
wants the next question: where does each top-level knob actually *flow*?
Into a port range, a generate condition, a child instance's generic, the
body at all?  This module answers it in two layers:

1. :func:`scan_bodies` — a tolerant token-level pass over module /
   architecture bodies (the same Lexer/Cursor machinery the hierarchy
   extractor uses) that collects, per design unit:

   - every identifier referenced in the body (liveness evidence),
   - ``if (...)``-generate conditions as parsed expressions,
   - child-instance generic bindings (``#(.W(DEPTH*2))`` /
     ``generic map (W => DEPTH*2)``) as parsed expressions.

   The scan is best-effort by design: anything it cannot parse degrades
   to plain identifier collection, which *over*-approximates liveness —
   the safe direction for a dead-parameter warning.

2. :class:`ParameterDependencyGraph` — a directed graph from parameters
   (including localparams) to the sinks they reach: port ranges, generate
   conditions, child generics, and body references, with flows threaded
   transitively through localparam defaults.  ``DEPTH → ADDR_DEPTH →
   port 'raddr'`` makes ``DEPTH`` interface-live even though no port
   range names it directly.

The D-series rules (:mod:`repro.analysis.dataflow_rules`) consume both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.errors import ParseError
from repro.hdl import expr as E
from repro.hdl.ast import HdlLanguage, Module
from repro.hdl.cursor import Cursor
from repro.hdl.hierarchy import _VERILOG_STMT_WORDS
from repro.hdl.lexer import Lexer, TokenKind, VERILOG_LEX, VHDL_LEX
from repro.hdl.verilog_parser import VerilogParser
from repro.hdl.vhdl_parser import VhdlParser

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "GenerateCondition",
    "GenericBinding",
    "BodyScan",
    "scan_bodies",
    "scan_for",
    "Sink",
    "ParameterDependencyGraph",
    "build_dependency_graph",
]


@dataclass(frozen=True)
class GenerateCondition:
    """One conditional-generate guard found in a module body."""

    module: str
    condition: E.Expr
    line: int


@dataclass(frozen=True)
class GenericBinding:
    """One generic/parameter override on a child instantiation.

    ``generic`` is the formal name for named associations, or ``"#<i>"``
    for positional ones (the child's formal list is not known here).
    """

    module: str
    target: str
    label: str
    generic: str
    value: E.Expr
    line: int


@dataclass(frozen=True)
class BodyScan:
    """Everything one design unit's body revealed about parameter use."""

    module: str
    generate_conditions: tuple[GenerateCondition, ...] = ()
    generic_bindings: tuple[GenericBinding, ...] = ()
    body_idents: frozenset[str] = frozenset()  # lowercase


class _ScanBuilder:
    """Mutable accumulator for one unit while the token scan runs."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.conditions: list[GenerateCondition] = []
        self.bindings: list[GenericBinding] = []
        self.idents: set[str] = set()

    def note_expr(self, expr: E.Expr) -> None:
        self.idents.update(n.lower() for n in E.free_names(expr))

    def finish(self) -> BodyScan:
        return BodyScan(
            module=self.module,
            generate_conditions=tuple(self.conditions),
            generic_bindings=tuple(self.bindings),
            body_idents=frozenset(self.idents),
        )


# ---------------------------------------------------------------------------
# Verilog / SystemVerilog body scan
# ---------------------------------------------------------------------------

_V_PROC_OPENERS = {"always", "always_ff", "always_comb", "always_latch",
                   "initial", "final"}
# Words that are structure, not references — excluded from liveness evidence.
_V_NOISE = (
    _VERILOG_STMT_WORDS
    | _V_PROC_OPENERS
    | {"endmodule", "join", "join_any", "join_none", "fork", "iff", "inside",
       "automatic", "static", "edge", "or", "and", "not", "macromodule",
       "covergroup", "endgroup", "clocking", "endclocking", "interface"}
)


def _collect_group(cur: Cursor, builder: _ScanBuilder) -> bool:
    """Consume a parenthesized group (opener already consumed), collecting
    identifier references inside it.  Returns False at EOF."""
    depth = 1
    while depth and not cur.at_eof():
        tok = cur.next()
        if tok.is_op("("):
            depth += 1
        elif tok.is_op(")"):
            depth -= 1
        elif tok.kind == TokenKind.IDENT and tok.text.lower() not in _V_NOISE:
            builder.idents.add(tok.text.lower())
    return depth == 0


def _parse_verilog_bindings(cur: Cursor) -> list[tuple[str, E.Expr]]:
    """Parse ``.NAME(expr), ...`` / positional exprs after ``#(`` (consumed).

    Raises ParseError when the list is not expression-shaped; the caller
    rewinds and degrades to plain scanning.
    """
    out: list[tuple[str, E.Expr]] = []
    if cur.peek().is_op(")"):
        cur.next()
        return out
    index = 0
    while True:
        if cur.accept_op("."):
            formal = cur.expect_ident("parameter name").text
            cur.expect_op("(")
            if cur.peek().is_op(")"):  # explicitly open binding: .W()
                cur.next()
            else:
                value = VerilogParser.expression_from(cur)
                cur.expect_op(")")
                out.append((formal, value))
        else:
            out.append((f"#{index}", VerilogParser.expression_from(cur)))
        index += 1
        if cur.accept_op(","):
            continue
        cur.expect_op(")")
        return out


def _scan_verilog_module(cur: Cursor, name: str, line: int) -> BodyScan:
    """Scan one module body; the header has NOT been consumed yet."""
    builder = _ScanBuilder(name)
    # Skip the header (its parameter/port expressions are in the parsed
    # AST already; counting them here would mark every parameter live).
    cur.skip_until_op(";")
    cur.accept_op(";")
    proc_depth = 0       # inside an always/initial begin..end region
    pending_proc = False  # saw always/initial, its statement not yet open
    func_depth = 0       # inside function/task (procedural by definition)
    while not cur.at_eof():
        tok = cur.next()
        if tok.kind != TokenKind.IDENT:
            if tok.is_op(";") and proc_depth == 0:
                pending_proc = False  # single-statement always ended
            continue
        word = tok.text.lower()
        if word == "endmodule":
            cur.accept_op(":")  # endmodule : name
            if cur.peek().kind == TokenKind.IDENT:
                cur.next()
            break
        if word in _V_PROC_OPENERS:
            pending_proc = True
            continue
        if word in ("function", "task"):
            func_depth += 1
            continue
        if word in ("endfunction", "endtask"):
            func_depth = max(0, func_depth - 1)
            continue
        if word == "begin":
            if pending_proc:
                pending_proc = False
                proc_depth += 1
            elif proc_depth:
                proc_depth += 1
            continue
        if word == "end":
            if proc_depth:
                proc_depth -= 1
            continue
        if word in ("parameter", "localparam"):
            # Declarations, not uses: names and default expressions are in
            # the parsed AST; the dependency graph threads them from there.
            cur.skip_until_op(";")
            cur.accept_op(";")
            continue
        in_procedural = proc_depth > 0 or pending_proc or func_depth > 0
        if word == "if" and not in_procedural:
            # Structural (generate) conditional.
            mark = cur.mark()
            if cur.accept_op("("):
                try:
                    cond = VerilogParser.expression_from(cur)
                    if cur.accept_op(")"):
                        builder.conditions.append(
                            GenerateCondition(name, cond, tok.line)
                        )
                        builder.note_expr(cond)
                        continue
                except ParseError:
                    pass
                cur.rewind(mark)
            continue
        if word in _V_NOISE:
            continue
        # Candidate instantiation:  type [#(...)] label [range] ( ... ) ;
        if not in_procedural:
            mark = cur.mark()
            bindings: list[tuple[str, E.Expr]] = []
            matched = False
            try:
                if cur.accept_op("#"):
                    if cur.accept_op("("):
                        bindings = _parse_verilog_bindings(cur)
                    else:
                        raise ParseError("not a parameterized instance")
                label_tok = cur.peek()
                if (
                    label_tok.kind == TokenKind.IDENT
                    and label_tok.text.lower() not in _V_NOISE
                ):
                    cur.next()
                    if cur.accept_op("["):  # instance array range
                        depth = 1
                        while depth and not cur.at_eof():
                            t = cur.next()
                            if t.is_op("["):
                                depth += 1
                            elif t.is_op("]"):
                                depth -= 1
                            elif t.kind == TokenKind.IDENT:
                                builder.idents.add(t.text.lower())
                    if cur.accept_op("(") and _collect_group(cur, builder):
                        if cur.accept_op(";"):
                            matched = True
            except ParseError:
                matched = False
            if matched:
                for formal, value in bindings:
                    builder.bindings.append(
                        GenericBinding(
                            module=name,
                            target=tok.text,
                            label=label_tok.text,
                            generic=formal,
                            value=value,
                            line=tok.line,
                        )
                    )
                    builder.note_expr(value)
                continue
            cur.rewind(mark)
        builder.idents.add(word)
    return builder.finish()


def _scan_verilog(source: str) -> list[BodyScan]:
    cur = Cursor(Lexer(source, VERILOG_LEX).tokens())
    scans: list[BodyScan] = []
    while not cur.at_eof():
        tok = cur.next()
        if tok.is_ident("module", "macromodule"):
            name_tok = cur.peek()
            if name_tok.kind != TokenKind.IDENT:
                continue
            cur.next()
            scans.append(_scan_verilog_module(cur, name_tok.text, tok.line))
    return scans


# ---------------------------------------------------------------------------
# VHDL body scan
# ---------------------------------------------------------------------------

_VHDL_NOISE = {
    "is", "begin", "end", "signal", "variable", "constant", "process",
    "architecture", "of", "if", "then", "else", "elsif", "generate", "for",
    "in", "to", "downto", "port", "map", "generic", "entity", "component",
    "others", "when", "case", "loop", "wait", "until", "function",
    "procedure", "type", "subtype", "attribute", "use", "library", "all",
    "not", "and", "or", "nand", "nor", "xor", "xnor", "mod", "rem", "sll",
    "srl", "sla", "sra", "abs", "range", "array", "record", "block", "on",
    "after", "report", "severity", "null", "exit", "next", "return", "with",
    "select", "alias", "file", "shared", "new", "out", "inout", "buffer",
    "true", "false", "event", "rising_edge", "falling_edge", "std_logic",
    "std_logic_vector", "unsigned", "signed", "integer", "natural",
    "positive", "boolean", "work",
}


def _vhdl_collect_ident(builder: _ScanBuilder, text: str) -> None:
    lowered = text.lower()
    if lowered not in _VHDL_NOISE:
        builder.idents.add(lowered)


def _parse_vhdl_generic_map(
    cur: Cursor, builder: _ScanBuilder, target: str, label: str, line: int
) -> None:
    """Parse ``( formal => actual, ... )`` after ``generic map`` (the open
    paren already consumed).  Tolerant: an unparseable association is
    skipped to the next separator, its identifiers still collected."""
    index = 0
    while not cur.at_eof():
        if cur.accept_op(")"):
            return
        mark = cur.mark()
        formal = f"#{index}"
        if (
            cur.peek().kind == TokenKind.IDENT
            and cur.peek(1).is_op("=>")
        ):
            formal = cur.next().text
            cur.next()  # =>
        try:
            value = VhdlParser.expression_from(cur)
        except ParseError:
            cur.rewind(mark)
            depth = 0
            while not cur.at_eof():
                t = cur.peek()
                if t.is_op("("):
                    depth += 1
                elif t.is_op(")"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and t.is_op(","):
                    break
                if t.kind == TokenKind.IDENT:
                    _vhdl_collect_ident(builder, t.text)
                cur.next()
        else:
            builder.bindings.append(
                GenericBinding(
                    module=builder.module,
                    target=target,
                    label=label,
                    generic=formal,
                    value=value,
                    line=line,
                )
            )
            builder.note_expr(value)
        index += 1
        if not cur.accept_op(","):
            cur.accept_op(")")
            return


def _scan_vhdl_statement(
    cur: Cursor, builder: _ScanBuilder, target: str, label: str, line: int
) -> None:
    """Scan one concurrent statement after ``label : target`` up to ``;``,
    harvesting ``generic map`` associations and identifier references."""
    depth = 0
    while not cur.at_eof():
        tok = cur.peek()
        if tok.is_op("("):
            depth += 1
            cur.next()
            continue
        if tok.is_op(")"):
            if depth == 0:
                return
            depth -= 1
            cur.next()
            continue
        if depth == 0 and tok.is_op(";"):
            cur.next()
            return
        if (
            depth == 0
            and tok.is_ident("generic")
            and cur.peek(1).is_ident("map")
            and cur.peek(2).is_op("(")
        ):
            cur.next()
            cur.next()
            cur.next()
            _parse_vhdl_generic_map(cur, builder, target, label, line)
            continue
        if tok.kind == TokenKind.IDENT:
            _vhdl_collect_ident(builder, tok.text)
        cur.next()


def _scan_vhdl(source: str) -> list[BodyScan]:
    cur = Cursor(Lexer(source, VHDL_LEX).tokens())
    scans: list[BodyScan] = []
    builder: Optional[_ScanBuilder] = None
    while not cur.at_eof():
        tok = cur.next()
        if tok.is_ident("architecture"):
            if cur.peek().kind != TokenKind.IDENT:
                continue
            cur.next()  # architecture name
            if cur.accept_kw("of"):
                if builder is not None:
                    scans.append(builder.finish())
                    builder = None
                entity_tok = cur.peek()
                if entity_tok.kind == TokenKind.IDENT:
                    cur.next()
                    builder = _ScanBuilder(entity_tok.text)
                cur.accept_kw("is")
            continue
        if tok.is_ident("end"):
            if cur.peek().is_ident("architecture") and builder is not None:
                scans.append(builder.finish())
                builder = None
            continue
        if builder is None or tok.kind != TokenKind.IDENT:
            continue
        # Conditional generate guards, labelled or chained:
        #   label : if COND generate ... elsif COND generate
        if tok.is_ident("elsif"):
            mark = cur.mark()
            try:
                cond = VhdlParser.expression_from(cur)
                if cur.accept_kw("generate"):
                    builder.conditions.append(
                        GenerateCondition(builder.module, cond, tok.line)
                    )
                    builder.note_expr(cond)
                    continue
            except ParseError:
                pass
            cur.rewind(mark)
            continue
        if cur.peek().is_op(":"):
            label = tok.text
            cur.next()  # ':'
            nxt = cur.peek()
            if nxt.is_ident("if"):
                cur.next()
                mark = cur.mark()
                try:
                    cond = VhdlParser.expression_from(cur)
                    if cur.accept_kw("generate"):
                        builder.conditions.append(
                            GenerateCondition(builder.module, cond, nxt.line)
                        )
                        builder.note_expr(cond)
                        continue
                except ParseError:
                    pass
                cur.rewind(mark)
                continue
            if nxt.is_ident("entity"):
                cur.next()
                if cur.peek().kind != TokenKind.IDENT:
                    continue
                target = cur.next().text
                while cur.accept_op("."):
                    if cur.peek().kind == TokenKind.IDENT:
                        target = cur.next().text
                    else:
                        break
                _scan_vhdl_statement(cur, builder, target, label, tok.line)
                continue
            if nxt.is_ident("component"):
                cur.next()
                if cur.peek().kind != TokenKind.IDENT:
                    continue
                target = cur.next().text
                _scan_vhdl_statement(cur, builder, target, label, tok.line)
                continue
            if (
                nxt.kind == TokenKind.IDENT
                and nxt.text.lower() not in _VHDL_NOISE
            ):
                target = cur.next().text
                _vhdl_collect_ident(builder, target)
                _scan_vhdl_statement(cur, builder, target, label, tok.line)
                continue
            continue
        _vhdl_collect_ident(builder, tok.text)
    if builder is not None:
        scans.append(builder.finish())
    return scans


# ---------------------------------------------------------------------------
# public scan entry points
# ---------------------------------------------------------------------------


def scan_bodies(source: str, language: HdlLanguage | str) -> tuple[BodyScan, ...]:
    """Scan every design unit body in ``source`` for parameter uses."""
    language = HdlLanguage(language)
    if language == HdlLanguage.VHDL:
        return tuple(_scan_vhdl(source))
    return tuple(_scan_verilog(source))


def scan_for(
    module_name: str, sources: Iterable[tuple[str, str]]
) -> Optional[BodyScan]:
    """Find the body scan of ``module_name`` across ``(text, language)``
    source pairs; None when no body for that unit is present."""
    wanted = module_name.lower()
    for text, language in sources:
        try:
            for scan in scan_bodies(text, language):
                if scan.module.lower() == wanted:
                    return scan
        except Exception:  # tolerate unlexable companion sources
            continue
    return None


# ---------------------------------------------------------------------------
# the dependency graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sink:
    """A place a parameter's value flows into."""

    kind: str      # "port-range" | "generate-if" | "child-generic" | "body"
    name: str      # port name / "target.generic" / "" for body
    line: int = 0

    def __str__(self) -> str:
        if self.kind == "body":
            return "module body"
        return f"{self.kind} {self.name}"


def _param_node(name: str) -> str:
    return f"param:{name.lower()}"


def _digraph() -> nx.DiGraph:
    # networkx loads lazily, only when a dependency graph is built.
    import networkx as nx

    return nx.DiGraph()


@dataclass
class ParameterDependencyGraph:
    """Directed parameter→sink flow graph for one module.

    Parameter nodes (free parameters *and* localparams) connect to the
    sinks their values reach; localparam default expressions thread flows
    transitively, so reachability answers "does this knob matter
    anywhere" in one query.
    """

    module: Module
    scan: Optional[BodyScan] = None
    graph: nx.DiGraph = field(default_factory=_digraph)
    _sinks: dict[str, Sink] = field(default_factory=dict)

    def __post_init__(self) -> None:
        params = {p.name.lower(): p for p in self.module.parameters}

        def connect(expr: E.Expr, sink_id: str, sink: Sink) -> None:
            refs = [n.lower() for n in E.free_names(expr)]
            if not any(r in params for r in refs):
                return
            if sink_id not in self._sinks:
                self._sinks[sink_id] = sink
                self.graph.add_node(sink_id)
            for ref in refs:
                if ref in params:
                    self.graph.add_edge(_param_node(ref), sink_id)

        for p in self.module.parameters:
            self.graph.add_node(_param_node(p.name))
            if p.default is not None:
                for ref in E.free_names(p.default):
                    if ref.lower() in params:
                        self.graph.add_edge(
                            _param_node(ref), _param_node(p.name)
                        )
        for port in self.module.ports:
            for bound in (port.ptype.high, port.ptype.low):
                if bound is not None:
                    connect(
                        bound,
                        f"port:{port.name.lower()}",
                        Sink("port-range", port.name, port.line),
                    )
        if self.scan is not None:
            for i, cond in enumerate(self.scan.generate_conditions):
                connect(
                    cond.condition,
                    f"gen:{i}",
                    Sink("generate-if", cond.condition.render(), cond.line),
                )
            for i, binding in enumerate(self.scan.generic_bindings):
                connect(
                    binding.value,
                    f"child:{i}",
                    Sink(
                        "child-generic",
                        f"{binding.target}.{binding.generic}",
                        binding.line,
                    ),
                )
            body_id = "body:"
            for name, p in params.items():
                if name in self.scan.body_idents:
                    if body_id not in self._sinks:
                        self._sinks[body_id] = Sink("body", "")
                        self.graph.add_node(body_id)
                    self.graph.add_edge(_param_node(p.name), body_id)

    # ------------------------------------------------------------------

    def flows(self, param: str) -> tuple[Sink, ...]:
        """Every sink ``param`` reaches, directly or through localparams."""
        import networkx as nx

        node = _param_node(param)
        if node not in self.graph:
            return ()
        reached = nx.descendants(self.graph, node)
        out = [self._sinks[n] for n in reached if n in self._sinks]
        return tuple(sorted(out, key=lambda s: (s.kind, s.name, s.line)))

    def is_live(self, param: str) -> bool:
        """Does ``param`` reach any sink at all?"""
        return bool(self.flows(param))

    def dead_parameters(self) -> tuple[str, ...]:
        """Free, integer-like parameters that reach no sink.

        Meaningful only when a body scan was available — without one, a
        parameter used exclusively in the body would be indistinguishable
        from a dead one, so this returns empty rather than guess.
        """
        if self.scan is None:
            return ()
        out = []
        for p in self.module.free_parameters():
            if p.is_integer_like() and not self.is_live(p.name):
                out.append(p.name)
        return tuple(out)

    def describe(self, param: str) -> str:
        """One-line human rendering of a parameter's flows."""
        sinks = self.flows(param)
        if not sinks:
            return f"{param}: no flows (dead)"
        return f"{param}: " + ", ".join(str(s) for s in sinks)


def build_dependency_graph(
    module: Module,
    sources: Sequence[tuple[str, str]] = (),
) -> ParameterDependencyGraph:
    """Convenience constructor: find the module's body scan, then build."""
    scan = scan_for(module.name, sources) if sources else None
    return ParameterDependencyGraph(module=module, scan=scan)
