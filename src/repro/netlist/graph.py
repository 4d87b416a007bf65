"""The block-level netlist graph.

A :class:`Netlist` is a named DAG of :class:`~repro.netlist.blocks.Block`
with :class:`~repro.netlist.blocks.Net` edges.  It provides the queries the
rest of the flow needs: aggregate abstract quantities, combinational path
enumeration for STA, a structural fingerprint for incremental-flow
checkpoint matching, and cycle detection (combinational loops are a
synthesis error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ElaborationError
from repro.netlist.blocks import Block, Net, PortBits
from repro.observe import current_telemetry
from repro.util.rng import stable_hash_seed

__all__ = ["Netlist", "TimingArc"]


@dataclass(frozen=True)
class TimingArc:
    """One register-to-register structural path: the block chain it crosses.

    ``blocks`` starts at the path's launching block and ends at the
    capturing block; interior hops are combinational crossings.
    """

    blocks: tuple[str, ...]
    net_widths: tuple[int, ...]

    def hops(self) -> int:
        return len(self.blocks) - 1


def _has_cycle(edges: Iterable[tuple[str, str]]) -> bool:
    """Iterative three-colour DFS: does the directed edge set contain a cycle?"""
    succ: dict[str, list[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    on_stack, done = 1, 2
    state: dict[str, int] = {}
    for root in succ:
        if root in state:
            continue
        state[root] = on_stack
        stack = [(root, iter(succ[root]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                mark = state.get(child)
                if mark == on_stack:
                    return True
                if mark is None:
                    state[child] = on_stack
                    stack.append((child, iter(succ.get(child, ()))))
                    break
            else:
                state[node] = done
                stack.pop()
    return False


class Netlist:
    """Mutable during elaboration, then treated as immutable by the flow.

    Blocks are kept in insertion order and nets as ``_succ[src][dst]``, so
    :meth:`blocks` and :meth:`nets` iterate in a fixed order: blocks as
    added, nets grouped by source block, each group in the order its
    connections were first made.  The placer sums float terms in
    :meth:`nets` order, so that order is part of every placement's
    identity.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self._blocks: dict[str, Block] = {}
        self._succ: dict[str, dict[str, Net]] = {}
        self.ports = PortBits()
        #: (src, dst) pairs whose edge was overwritten by a later add_net —
        #: last-writer-wins semantics are kept for the flow (the edge keeps
        #: its position), but lint rule N003 (multiply-driven net) reports
        #: the collisions.
        self.duplicate_connections: list[tuple[str, str]] = []
        #: Set by :meth:`timing_arcs` when enumeration hit ``max_arcs``.
        self.timing_arcs_truncated: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> Block:
        if block.name in self._blocks:
            raise ElaborationError(f"duplicate block name {block.name!r}")
        self._blocks[block.name] = block
        self._succ[block.name] = {}
        return block

    def add_net(self, net: Net) -> Net:
        for endpoint in (net.src, net.dst):
            if endpoint not in self._blocks:
                raise ElaborationError(f"net references unknown block {endpoint!r}")
        out = self._succ[net.src]
        if net.dst in out:
            self.duplicate_connections.append((net.src, net.dst))
        out[net.dst] = net
        return net

    def connect(
        self, src: str, dst: str, width: int = 1, combinational: bool = False
    ) -> Net:
        return self.add_net(Net(src=src, dst=dst, width=width, combinational=combinational))

    def set_ports(self, inputs: int, outputs: int) -> None:
        self.ports = PortBits(inputs=inputs, outputs=outputs)

    def replace_block(self, name: str, **changes: Any) -> Block:
        """Replace block ``name`` with a modified copy (keeps all nets)."""
        import dataclasses

        current = self.block(name)
        updated = dataclasses.replace(current, **changes)
        if updated.name != name:
            raise ElaborationError("replace_block cannot rename a block")
        self._blocks[name] = updated
        return updated

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def block(self, name: str) -> Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise KeyError(f"no block {name!r} in netlist {self.top!r}") from None

    def blocks(self) -> list[Block]:
        return list(self._blocks.values())

    def nets(self) -> list[Net]:
        return [net for out in self._succ.values() for net in out.values()]

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def totals(self) -> dict[str, int]:
        """Aggregate abstract quantities over all blocks."""
        out = {
            "logic_terms": 0,
            "ff_bits": 0,
            "mem_bits": 0,
            "mul_ops": 0,
            "carry_bits": 0,
        }
        for b in self.blocks():
            out["logic_terms"] += b.logic_terms
            out["ff_bits"] += b.ff_bits
            out["mem_bits"] += b.mem_bits
            out["mul_ops"] += b.mul_ops
            out["carry_bits"] += b.carry_bits
        return out

    def approximate_cells(self) -> int:
        return sum(b.approximate_cells() for b in self.blocks())

    # ------------------------------------------------------------------
    # timing structure
    # ------------------------------------------------------------------

    def combinational_loops(self) -> list[tuple[str, ...]]:
        """Every simple cycle through combinational nets.

        Each loop is rotated so it starts at its lexicographically smallest
        block and the list is sorted (shortest first, then lexicographic),
        so the result is deterministic regardless of traversal order.
        Acyclic netlists (every netlist the flow accepts) are answered by
        a DFS; only a netlist that has a loop pays for enumerating them.
        """
        comb = [(n.src, n.dst) for n in self.nets() if n.combinational]
        if not _has_cycle(comb):
            return []
        import networkx as nx

        loops: list[tuple[str, ...]] = []
        for cycle in nx.simple_cycles(nx.DiGraph(comb)):
            names = [str(node) for node in cycle]
            pivot = names.index(min(names))
            loops.append(tuple(names[pivot:] + names[:pivot]))
        loops.sort(key=lambda loop: (len(loop), loop))
        return loops

    def check_no_combinational_loops(self) -> None:
        """Raise :class:`ElaborationError` if combinational nets form a cycle.

        The error message enumerates *every* simple cycle, not just the
        first one found — a designer fixing one loop should see the rest.
        """
        loops = self.combinational_loops()
        if not loops:
            return
        chains = "; ".join(
            " -> ".join(loop) + f" -> {loop[0]}" for loop in loops
        )
        label = "combinational loop" if len(loops) == 1 else (
            f"combinational loops ({len(loops)})"
        )
        raise ElaborationError(f"{label}: {chains}")

    def timing_arcs(self, max_arcs: int = 4096) -> list[TimingArc]:
        """Enumerate register-to-register structural paths.

        A path starts at any block (launch register inside it), extends
        through *combinational* nets across blocks that do not register
        their outputs, and terminates at the first registered boundary.
        Single-block paths (purely internal) are included — they are often
        critical for memory-heavy blocks.

        ``max_arcs`` caps enumeration on pathological graphs; paths are
        explored longest-first by DFS so truncation keeps the deep ones.
        Truncation is never silent: :attr:`timing_arcs_truncated` is set
        and the ``netlist.timing_arcs_truncated`` telemetry counter is
        bumped whenever the cap cuts enumeration short.
        """
        self.check_no_combinational_loops()
        self.timing_arcs_truncated = False
        arcs: list[TimingArc] = []

        def truncated() -> list[TimingArc]:
            self.timing_arcs_truncated = True
            tel = current_telemetry()
            if tel is not None:
                tel.counters.inc("netlist.timing_arcs_truncated")
            return arcs

        for start in self._blocks:
            # Internal path of the launching block itself.
            arcs.append(TimingArc(blocks=(start,), net_widths=()))
            if len(arcs) >= max_arcs:
                return truncated()
            stack: list[tuple[tuple[str, ...], tuple[int, ...]]] = [((start,), ())]
            while stack:
                chain, widths = stack.pop()
                tail = chain[-1]
                tail_block = self.block(tail)
                # A registered tail (other than the start) ends the path.
                if len(chain) > 1 and tail_block.registered_output:
                    continue
                for dst, net in self._succ[tail].items():
                    if not net.combinational:
                        continue
                    if dst in chain:
                        continue  # guarded against by loop check; be safe
                    new_chain = chain + (dst,)
                    new_widths = widths + (net.width,)
                    arcs.append(TimingArc(blocks=new_chain, net_widths=new_widths))
                    if len(arcs) >= max_arcs:
                        return truncated()
                    stack.append((new_chain, new_widths))
        return arcs

    # ------------------------------------------------------------------
    # fingerprinting (incremental flow)
    # ------------------------------------------------------------------

    def structure_fingerprint(self) -> int:
        """Hash of the block/net *topology* ignoring block sizes.

        Two parameterizations of the same design share a fingerprint when
        they produce the same block and net structure — exactly the case
        where the incremental flow can reuse a placement checkpoint.
        """
        node_sig = sorted(self._blocks)
        edge_sig = sorted(
            (n.src, n.dst, n.combinational) for n in self.nets()
        )
        return stable_hash_seed((self.top, node_sig, edge_sig))

    def content_fingerprint(self) -> int:
        """Hash including block sizes (identical designs ⇒ identical hash)."""
        block_sig = sorted(
            (
                b.name, b.logic_terms, b.ff_bits, b.mem_bits, b.mem_width,
                b.mul_ops, b.carry_bits, b.levels, b.registered_output,
                b.through_memory, b.through_dsp,
            )
            for b in self.blocks()
        )
        net_sig = sorted((n.src, n.dst, n.width, n.combinational) for n in self.nets())
        return stable_hash_seed(
            (self.top, self.ports.inputs, self.ports.outputs, block_sig, net_sig)
        )

    def similarity_to(self, other: "Netlist") -> float:
        """Fraction of this netlist's cells living in blocks unchanged vs
        ``other`` (same name and sizes).  Drives incremental-flow savings."""
        mine = {b.name: b for b in self.blocks()}
        theirs = {b.name: b for b in other.blocks()}
        total = sum(max(1, b.approximate_cells()) for b in mine.values())
        unchanged = 0
        for name, block in mine.items():
            if theirs.get(name) == block:
                unchanged += max(1, block.approximate_cells())
        return unchanged / total if total else 0.0
