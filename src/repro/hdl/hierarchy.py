"""RTL hierarchy extraction.

Dovado starts "from an RTL hierarchy": the user hands over a design tree
and picks a (possibly non-top) module to explore.  The interface parsers
skip bodies, so hierarchy comes from a dedicated lightweight pass that
scans module/architecture bodies for instantiations:

- **VHDL** — direct entity instantiation (``label : entity work.name``)
  and component instantiation (``label : comp_name port map (...)``);
- **Verilog/SV** — module instantiation (``type [#(..)] label (..);``) at
  module-body depth 0 (generate regions are descended into, since their
  instances exist in the elaborated design).

The result is a :class:`Hierarchy`: a directed multigraph of
module→submodule edges with instance labels, top candidates (modules never
instantiated), cycle detection (recursive instantiation is an error), and
a tree rendering for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import HdlError
from repro.hdl.ast import HdlLanguage
from repro.hdl.cursor import Cursor
from repro.hdl.lexer import Lexer, TokenKind, VERILOG_LEX, VHDL_LEX

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Instance", "Hierarchy", "extract_instances", "build_hierarchy"]


@dataclass(frozen=True)
class Instance:
    """One instantiation site: ``parent`` contains ``label : target``."""

    parent: str
    label: str
    target: str


# Verilog words that can open a statement but never name an instance type.
_VERILOG_STMT_WORDS = {
    "assign", "always", "always_ff", "always_comb", "always_latch",
    "initial", "final", "wire", "reg", "logic", "bit", "integer", "int",
    "genvar", "real", "time", "parameter", "localparam", "input", "output",
    "inout", "if", "else", "for", "while", "case", "casex", "casez",
    "begin", "end", "endcase", "endgenerate", "generate", "function",
    "endfunction", "task", "endtask", "typedef", "enum", "struct", "import",
    "defparam", "specify", "endspecify", "posedge", "negedge", "module",
    "endmodule", "signed", "unsigned", "supply0", "supply1", "tri", "var",
    "return", "unique", "priority", "default", "assert", "property",
    "cover", "sequence", "string", "byte", "shortint", "longint",
}


def _verilog_instances(source: str) -> list[Instance]:
    toks = Lexer(source, VERILOG_LEX).tokens()
    cur = Cursor(toks)
    out: list[Instance] = []
    current_module: str | None = None
    while not cur.at_eof():
        tok = cur.next()
        if tok.is_ident("module", "macromodule"):
            current_module = cur.expect_ident("module name").text
            # skip header to the closing `;`
            cur.skip_until_op(";")
            cur.accept_op(";")
            continue
        if tok.is_ident("endmodule"):
            current_module = None
            continue
        if current_module is None or tok.kind != TokenKind.IDENT:
            continue
        word = tok.text.lower()
        if word in _VERILOG_STMT_WORDS:
            continue
        # Candidate instance type. Accept:  type [#(...)] label ( ... ) ;
        mark = cur.mark()
        if cur.accept_op("#"):
            if not cur.accept_op("("):
                cur.rewind(mark)
                continue
            cur.skip_until_op(")")
            if not cur.accept_op(")"):
                cur.rewind(mark)
                continue
        label_tok = cur.peek()
        if label_tok.kind != TokenKind.IDENT or label_tok.text.lower() in _VERILOG_STMT_WORDS:
            cur.rewind(mark)
            continue
        cur.next()
        # optional instance array range: label [3:0] ( ... )
        if cur.accept_op("["):
            cur.skip_until_op("]")
            if not cur.accept_op("]"):
                cur.rewind(mark)
                continue
        if not cur.accept_op("("):
            cur.rewind(mark)
            continue
        cur.skip_until_op(")")
        if not cur.accept_op(")"):
            cur.rewind(mark)
            continue
        if not cur.accept_op(";"):
            cur.rewind(mark)
            continue
        out.append(
            Instance(parent=current_module, label=label_tok.text, target=tok.text)
        )
    return out


def _vhdl_instances(source: str) -> list[Instance]:
    toks = Lexer(source, VHDL_LEX).tokens()
    cur = Cursor(toks)
    out: list[Instance] = []
    current_arch_entity: str | None = None
    while not cur.at_eof():
        tok = cur.next()
        if tok.is_ident("architecture"):
            cur.expect_ident("architecture name")
            if cur.accept_kw("of"):
                current_arch_entity = cur.expect_ident("entity name").text
                cur.accept_kw("is")
            continue
        if tok.is_ident("end"):
            nxt = cur.peek()
            if nxt.is_ident("architecture"):
                current_arch_entity = None
            continue
        if current_arch_entity is None or tok.kind != TokenKind.IDENT:
            continue
        # label : entity [lib.]name  |  label : comp_name ... port map
        if not cur.peek().is_op(":"):
            continue
        label = tok.text
        mark = cur.mark()
        cur.next()  # ':'
        nxt = cur.peek()
        if nxt.is_ident("entity"):
            cur.next()
            name = cur.expect_ident("entity name").text
            while cur.accept_op("."):
                name = cur.expect_ident("selected entity name").text
            # strip optional (architecture) spec
            if cur.accept_op("("):
                cur.skip_until_op(")")
                cur.accept_op(")")
            out.append(Instance(parent=current_arch_entity, label=label, target=name))
            continue
        if nxt.is_ident("component"):
            cur.next()
            name = cur.expect_ident("component name").text
            out.append(Instance(parent=current_arch_entity, label=label, target=name))
            continue
        if nxt.kind == TokenKind.IDENT and not nxt.is_ident(
            "process", "block", "for", "if", "signal", "variable", "constant",
            "begin", "function", "procedure", "type", "subtype", "attribute",
        ):
            # Possible component instantiation: confirm by a following
            # `generic map` / `port map` before the terminating `;`.
            name = cur.next().text
            confirmed = False
            depth = 0
            while not cur.at_eof():
                t = cur.peek()
                if t.is_op("("):
                    depth += 1
                elif t.is_op(")"):
                    depth -= 1
                elif depth == 0 and t.is_op(";"):
                    break
                elif depth == 0 and t.is_ident("map"):
                    confirmed = True
                cur.next()
            if confirmed:
                out.append(
                    Instance(parent=current_arch_entity, label=label, target=name)
                )
            else:
                cur.rewind(mark)
                cur.next()  # re-consume ':' so scanning advances
    return out


def extract_instances(source: str, language: HdlLanguage | str) -> list[Instance]:
    """Scan ``source`` for instantiation sites."""
    language = HdlLanguage(language)
    if language == HdlLanguage.VHDL:
        return _vhdl_instances(source)
    return _verilog_instances(source)


def _multidigraph() -> nx.MultiDiGraph:
    # networkx loads lazily: the DSE flow never builds a hierarchy.
    import networkx as nx

    return nx.MultiDiGraph()


@dataclass
class Hierarchy:
    """The design tree built from instantiation edges."""

    graph: nx.MultiDiGraph = field(default_factory=_multidigraph)

    def add(self, instance: Instance) -> None:
        self.graph.add_edge(
            instance.parent.lower(), instance.target.lower(), label=instance.label
        )

    def add_module(self, name: str) -> None:
        self.graph.add_node(name.lower())

    def modules(self) -> list[str]:
        return sorted(self.graph.nodes)

    def children(self, module: str) -> list[tuple[str, str]]:
        """(label, target) pairs instantiated inside ``module``."""
        out = []
        for _, dst, data in self.graph.out_edges(module.lower(), data=True):
            out.append((data.get("label", "?"), dst))
        return sorted(out)

    def top_candidates(self) -> list[str]:
        """Modules never instantiated by another (Dovado's default tops)."""
        return sorted(
            n for n in self.graph.nodes if self.graph.in_degree(n) == 0
        )

    def check_acyclic(self) -> None:
        import networkx as nx

        try:
            cycle = nx.find_cycle(self.graph)
        except nx.NetworkXNoCycle:
            return
        chain = " -> ".join(e[0] for e in cycle) + f" -> {cycle[-1][1]}"
        raise HdlError(f"recursive instantiation: {chain}")

    def subtree(self, module: str) -> set[str]:
        """All modules reachable from ``module`` (itself included)."""
        import networkx as nx

        module = module.lower()
        if module not in self.graph:
            return {module}
        return {module} | nx.descendants(self.graph, module)

    def render(self, root: str, max_depth: int = 8) -> str:
        """ASCII tree of ``root``'s subtree."""
        lines: list[str] = [root.lower()]

        def walk(node: str, prefix: str, depth: int) -> None:
            if depth >= max_depth:
                return
            kids = self.children(node)
            for i, (label, target) in enumerate(kids):
                last = i == len(kids) - 1
                branch = "`-- " if last else "|-- "
                lines.append(f"{prefix}{branch}{label}: {target}")
                walk(target, prefix + ("    " if last else "|   "), depth + 1)

        walk(root.lower(), "", 0)
        return "\n".join(lines)


def build_hierarchy(
    sources: list[tuple[str, HdlLanguage | str]],
    known_modules: list[str] | None = None,
) -> Hierarchy:
    """Build the hierarchy of a source set; checks for recursion."""
    h = Hierarchy()
    for name in known_modules or []:
        h.add_module(name)
    for source, language in sources:
        for inst in extract_instances(source, language):
            h.add(inst)
    h.check_acyclic()
    return h
