"""RTL hierarchy extraction.

Dovado starts "from an RTL hierarchy": the user hands over a design tree
and picks a (possibly non-top) module to explore.  The interface parsers
skip bodies; the instantiation sites come from the body scan of
:func:`repro.hdl.dataflow.scan_bodies`, the same pass the dataflow rules
read:

- **VHDL** — direct entity instantiation (``label : entity work.name``)
  and component instantiation (``label : component name`` or a bare
  ``label : name`` confirmed by a ``generic map`` / ``port map``);
- **Verilog/SV** — module instantiation (``type [#(..)] label (..);``)
  outside procedural code (generate regions are descended into, since
  their instances exist in the elaborated design).

The result is a :class:`Hierarchy`: a directed multigraph of
module→submodule edges with instance labels, top candidates (modules never
instantiated), cycle detection (recursive instantiation is an error), and
a tree rendering for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import HdlError
from repro.hdl.ast import HdlLanguage
from repro.hdl.dataflow import Instance, scan_bodies

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Instance", "Hierarchy", "extract_instances", "build_hierarchy"]


def extract_instances(source: str, language: HdlLanguage | str) -> list[Instance]:
    """Scan ``source`` for instantiation sites."""
    return [i for scan in scan_bodies(source, language) for i in scan.instances]


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

    def find_cycle(self) -> list[str] | None:
        """One instantiation cycle as a module chain that ends where it
        starts (``[a, b, a]``), or None when the tree is acyclic."""
        import networkx as nx

        try:
            cycle = nx.find_cycle(self.graph)
        except nx.NetworkXNoCycle:
            return None
        return [e[0] for e in cycle] + [cycle[-1][1]]

    def check_acyclic(self) -> None:
        cycle = self.find_cycle()
        if cycle is not None:
            raise HdlError(f"recursive instantiation: {' -> '.join(cycle)}")

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

    @classmethod
    def from_sources(
        cls,
        sources: Iterable[tuple[str, HdlLanguage | str]],
        known_modules: Iterable[str] = (),
    ) -> Hierarchy:
        """The (unchecked) hierarchy of a source set."""
        h = cls()
        for name in known_modules:
            h.add_module(name)
        for source, language in sources:
            for inst in extract_instances(source, language):
                h.add(inst)
        return h


def build_hierarchy(
    sources: list[tuple[str, HdlLanguage | str]],
    known_modules: list[str] | None = None,
) -> Hierarchy:
    """Build the hierarchy of a source set; checks for recursion."""
    h = Hierarchy.from_sources(sources, known_modules or ())
    h.check_acyclic()
    return h
