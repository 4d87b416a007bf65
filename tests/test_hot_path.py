"""The explore hot path keeps its answers: Netlist order without networkx,
the parse memo, and the tool session's source list.

The placer's bit-identity is pinned separately in
``tests/test_pnr_scalar_placer.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import uuid
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluate import PointEvaluator
from repro.hdl.frontend import parse_file, parse_source
from repro.netlist import Block, Netlist
from repro.observe import render_summary, telemetry_session

SRC = Path(__file__).resolve().parents[1] / "src"


def _netlist(blocks: list[str], nets: list[tuple[str, str, int, bool]]) -> Netlist:
    netlist = Netlist(top="t")
    for name in blocks:
        netlist.add_block(Block(name=name, registered_output=False))
    for src, dst, width, comb in nets:
        netlist.connect(src, dst, width=width, combinational=comb)
    return netlist


def _networkx_loops(netlist: Netlist) -> list[tuple[str, ...]]:
    """The enumeration ``combinational_loops`` ran before its DFS pre-check."""
    comb = nx.DiGraph((n.src, n.dst) for n in netlist.nets() if n.combinational)
    loops = []
    for cycle in nx.simple_cycles(comb):
        pivot = cycle.index(min(cycle))
        loops.append(tuple(cycle[pivot:] + cycle[:pivot]))
    return sorted(loops, key=lambda loop: (len(loop), loop))


class TestNetlistOrder:
    BLOCKS = ["c", "a", "b", "d"]
    NETS = [
        ("a", "b", 1, False),
        ("c", "d", 2, False),
        ("a", "d", 3, False),
        ("b", "c", 4, False),
        ("a", "b", 5, False),  # re-added: last writer wins, position kept
        ("c", "a", 6, False),
    ]

    def test_nets_follow_networkx_edge_order(self):
        graph = nx.DiGraph()
        graph.add_nodes_from(self.BLOCKS)
        for src, dst, width, _ in self.NETS:
            graph.add_edge(src, dst, width=width)
        expected = [(u, v, graph.edges[u, v]["width"]) for u, v in graph.edges]

        netlist = _netlist(self.BLOCKS, self.NETS)
        got = [(n.src, n.dst, n.width) for n in netlist.nets()]
        assert got == expected
        assert got == [
            ("c", "d", 2), ("c", "a", 6), ("a", "b", 5), ("a", "d", 3), ("b", "c", 4),
        ]
        assert [b.name for b in netlist.blocks()] == self.BLOCKS
        assert netlist.duplicate_connections == [("a", "b")]


class TestCombinationalLoops:
    @pytest.mark.parametrize(
        "edges",
        [
            # one loop, plus a registered back edge and an acyclic tail
            [("a", "b", True), ("b", "c", True), ("c", "a", True),
             ("c", "d", True), ("d", "a", False)],
            # several loops sharing blocks
            [("a", "b", True), ("b", "a", True), ("b", "c", True),
             ("c", "d", True), ("d", "b", True), ("d", "e", True),
             ("e", "a", True)],
        ],
        ids=["one-loop", "several-loops"],
    )
    def test_matches_networkx_enumeration(self, edges):
        names = sorted({e[0] for e in edges} | {e[1] for e in edges})
        netlist = _netlist(names, [(s, d, 1, comb) for s, d, comb in edges])
        loops = netlist.combinational_loops()
        assert loops
        assert loops == _networkx_loops(netlist)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
            max_size=14,
        )
    )
    def test_random_graphs_match_networkx(self, edges):
        names = [f"b{k}" for k in range(6)]
        nets = [(names[s], names[d], 1, comb) for s, d, comb in edges if s != d]
        netlist = _netlist(names, nets)
        assert netlist.combinational_loops() == _networkx_loops(netlist)


def test_explore_never_imports_networkx():
    code = (
        "import sys\n"
        "import repro.core.session as session\n"
        "from repro.designs import all_designs\n"
        "for design in all_designs().values():\n"
        "    dse = session.DseSession(design, seed=3, pretrain_size=4)\n"
        "    try:\n"
        "        dse.explore(1, 4)\n"
        "    finally:\n"
        "        dse.close()\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


class TestParseMemo:
    def test_counts_hits_and_misses(self):
        name = f"m_{uuid.uuid4().hex[:12]}"
        text = f"module {name}(input wire clk, output wire [3:0] q); endmodule"
        with telemetry_session() as tel:
            first = parse_source(text, "verilog")
            second = parse_source(text, "verilog")
        assert tel.counters.get("hdl.parse_memo_misses") == 1
        assert tel.counters.get("hdl.parse_memo_hits") == 1
        assert first == second
        assert first is not second  # a fresh list per call
        assert first[0] is second[0]  # the frozen AST is shared
        summary = render_summary(tel)
        assert "hdl.parse_memo" in summary and "50.0%" in summary

    def test_include_is_reread_after_the_header_changes(self, tmp_path):
        header = tmp_path / "width.vh"
        header.write_text("`define W 4\n")
        top = tmp_path / "top.v"
        top.write_text(
            '`include "width.vh"\n'
            "module inc(input wire clk, output wire [`W-1:0] q); endmodule\n"
        )
        assert parse_file(top).modules[0].port("q").width() == 4
        header.write_text("`define W 9\n")
        assert parse_file(top).modules[0].port("q").width() == 9


class TestReadHdlDedup:
    POINTS = [{"OP_TABLE_SIZE": 16, "PIPELINE": 3}, {"OP_TABLE_SIZE": 8, "PIPELINE": 2}]

    def _evaluator(self, design) -> PointEvaluator:
        return PointEvaluator(
            source=design.source(), language=design.language, top=design.top,
            part="XC7K70T",
        )

    def test_units_grow_only_with_distinct_boxes(self, cqm_design):
        evaluator = self._evaluator(cqm_design)
        first = [evaluator.evaluate(p).metrics for p in self.POINTS]
        again = [evaluator.evaluate(p).metrics for p in self.POINTS]
        assert len(evaluator.sim.sources.units) == 1 + len(self.POINTS)
        assert again == first
        fresh = [self._evaluator(cqm_design).evaluate(p).metrics for p in self.POINTS]
        assert fresh == first
