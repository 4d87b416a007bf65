"""Static timing analysis over the block netlist.

Path delay composition for one register-to-register arc::

    clk-to-Q  +  Σ block internal delay  +  Σ routed net delay  +  setup

Block internal delay is ``levels`` LUT stages (each a LUT plus a local
route), the widest carry chain, and the BRAM/DSP access delay when the
block's critical path traverses one.  All delays scale with the device's
speed factor and the run's directive delay bias.

WNS follows the Vivado sign convention the paper's Eq. (1) uses: positive
slack when timing closes with margin, negative when the constraint is
violated: ``WNS = T_target - critical_delay``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices import Device
from repro.errors import TimingAnalysisError
from repro.netlist import Block, Netlist, graph as ngraph
from repro.pnr.router import RoutingResult

__all__ = ["TimingResult", "analyze_timing", "block_internal_delay_ns"]

# Local route charged per LUT stage, as a fraction of the nominal net delay.
_LOCAL_ROUTE_FRACTION = 0.55
# Longest carry chain modeled per block (wider adders get split/retimed).
_MAX_CARRY_CHAIN = 64


def block_internal_delay_ns(block: Block, device: Device) -> float:
    """Delay through one block's internal critical path (ns, pre-bias)."""
    t = device.timing()
    stage = t.lut_delay_ns + _LOCAL_ROUTE_FRACTION * t.net_delay_ns
    delay = block.levels * stage
    if block.carry_bits:
        delay += min(block.carry_bits, _MAX_CARRY_CHAIN) * t.carry_delay_ns
    if block.through_memory:
        delay += t.bram_access_ns
    if block.through_dsp:
        delay += t.dsp_delay_ns
    return delay * device.speed_factor


@dataclass
class TimingResult:
    """STA output: WNS plus the critical path's identity."""

    target_period_ns: float
    critical_delay_ns: float
    wns_ns: float
    critical_path: tuple[str, ...]
    arcs_analyzed: int

    def met(self) -> bool:
        return self.wns_ns >= 0.0


def analyze_timing(
    netlist: Netlist,
    device: Device,
    routing: RoutingResult,
    target_period_ns: float,
    delay_bias: float = 1.0,
) -> TimingResult:
    """Analyze all register-to-register arcs; returns the worst one.

    Raises :class:`TimingAnalysisError` when the netlist exposes no arcs
    (a purely combinational design has no register-to-register constraint
    to analyze — the box's registered boundary prevents this in practice).
    """
    if target_period_ns <= 0:
        raise TimingAnalysisError(f"non-positive target period {target_period_ns}")
    arcs = netlist.timing_arcs()
    if not arcs:
        raise TimingAnalysisError("no register-to-register timing arcs found")

    t = device.timing()
    overhead = (t.ff_clk_to_q_ns + t.ff_setup_ns) * device.speed_factor

    # Internal delays are reused across arcs; precompute per block.
    internal = {
        b.name: block_internal_delay_ns(b, device) for b in netlist.blocks()
    }

    worst_delay = 0.0
    worst_path: tuple[str, ...] = (arcs[0].blocks[0],)
    for arc in arcs:
        blocks = arc.blocks
        # A launch block that registers its outputs contributes only its
        # clock-to-Q (already in `overhead`): its internal logic sits before
        # the launch register and was covered by its own single-block arc.
        launch = blocks[0]
        launch_registered = netlist.block(launch).registered_output and len(blocks) > 1
        delay = overhead
        for i, name in enumerate(blocks):
            if i == 0 and launch_registered:
                continue
            delay += internal[name]
        for a, b in zip(blocks, blocks[1:]):
            delay += routing.delay(a, b)
        if delay > worst_delay:
            worst_delay = delay
            worst_path = blocks

    worst_delay *= delay_bias
    return TimingResult(
        target_period_ns=target_period_ns,
        critical_delay_ns=worst_delay,
        wns_ns=target_period_ns - worst_delay,
        critical_path=worst_path,
        arcs_analyzed=len(arcs),
    )
