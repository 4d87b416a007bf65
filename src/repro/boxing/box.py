"""Box construction and flow integration.

:func:`build_box` selects the clock port, records the wrapper's wiring
(connection map, generic map, ``DONT_TOUCH``) and returns a
:class:`BoxArtifact`; the language-appropriate box text is rendered from
that wiring on first read of :attr:`BoxArtifact.source`, so a caller that
only checks the wiring (the DRC boxing rules) never renders it.  The
artifact knows how to
*install* itself into a :class:`~repro.flow.vivado_sim.VivadoSim` session:
it reads both sources in and registers a transient architectural model for
the box top, which elaborates the inner module under the specialized
parameter values and adds the box's own interface-register ring.  The
boxed run is then ``sim.run(artifact.top)`` with *no* parameter overrides —
the box already carries them, exactly as Dovado's generated wrapper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.errors import NoClockPortError, ParameterOverrideError
from repro.hdl.ast import HdlLanguage, Module
from repro.boxing.verilog_box import render_verilog_box, verilog_generic_value
from repro.boxing.vhdl_box import render_vhdl_box, vhdl_generic_value
from repro.netlist import Block, Netlist
from repro.synth.elaborate import elaborate, register_model

__all__ = ["BoxArtifact", "build_box"]


@dataclass(frozen=True)
class BoxArtifact:
    """The generated box plus everything needed to run it."""

    top: str                     # box module name
    language: HdlLanguage
    inner: Module
    clock_port: str
    overrides: dict[str, int]
    #: ``(port, net)`` in render order: the clock to ``clk`` first, then
    #: every other port, in declaration order, to ``s_<port>``.
    connections: tuple[tuple[str, str], ...]
    #: ``(parameter, value text)`` for every free parameter, in order.
    generics: tuple[tuple[str, str], ...]
    dont_touch: bool = True

    @cached_property
    def source(self) -> str:
        """The box HDL text, rendered from the wiring on first read."""
        if self.language == HdlLanguage.VHDL:
            return render_vhdl_box(self)
        return render_verilog_box(self)

    def install(self, sim) -> None:
        """Read the inner + box sources into ``sim`` and register the model.

        ``sim`` is a :class:`repro.flow.VivadoSim`; typed loosely to keep
        the boxing package below the flow package in the import graph.
        """
        inner = self.inner
        overrides = dict(self.overrides)

        def build(module, env: Mapping[str, int]) -> Netlist:
            inner_netlist = elaborate(inner, overrides)
            # The netlist top is named after the *inner* module, not the
            # (possibly per-point unique) box name, so incremental-flow
            # checkpoints keep matching across design points.
            boxed = Netlist(top=f"box:{inner.name}")
            for block in inner_netlist.blocks():
                boxed.add_block(block)
            for net in inner_netlist.nets():
                boxed.add_net(net)
            # The interface-register ring: one FF per module port bit, a
            # pinch of glue LUT for the observation reduction tree.
            port_bits = max(1, inner.total_port_bits(overrides) - 1)  # minus clk
            ring = boxed.add_block(
                Block(
                    name="u_box_ring",
                    logic_terms=max(1, port_bits // 8),
                    ff_bits=port_bits,
                    levels=1,
                )
            )
            anchors = inner_netlist.blocks()
            if anchors:
                boxed.connect(ring.name, anchors[0].name, width=max(1, port_bits // 2))
                boxed.connect(anchors[-1].name, ring.name, width=max(1, port_bits // 2))
            boxed.set_ports(1, 0)  # only clk reaches a pin
            return boxed

        register_model(self.top, build, description=f"box({inner.name})")
        sim.read_hdl(self.source, self.language)


def build_box(
    module: Module,
    overrides: Mapping[str, int] | None = None,
    clock_port: str | None = None,
    box_name: str = "box",
) -> BoxArtifact:
    """Build the box wrapper for ``module`` under ``overrides``.

    Raises :class:`NoClockPortError` when the module exposes no
    identifiable clock and none is named explicitly, and
    :class:`ParameterOverrideError` for overrides that do not match a free
    parameter of the module.
    """
    overrides = {k: int(v) for k, v in (overrides or {}).items()}
    free = module.free_parameters()
    free_names = {p.name.lower() for p in free}
    for name in overrides:
        if name.lower() not in free_names:
            raise ParameterOverrideError(
                f"{module.name!r} has no free parameter {name!r}"
            )
    # Canonicalize override keys to declared casing (a later spelling of
    # the same name wins).
    by_name = {k.lower(): v for k, v in overrides.items()}
    canonical = {
        p.name: by_name[p.name.lower()] for p in free if p.name.lower() in by_name
    }

    if clock_port is None:
        clocks = module.clock_ports()
        if not clocks:
            raise NoClockPortError(
                f"module {module.name!r} has no identifiable clock port; "
                "pass clock_port explicitly"
            )
        clock_port = clocks[0].name
    else:
        module.port(clock_port)  # raises KeyError on unknown name

    clock = clock_port.lower()
    connections = ((clock_port, "clk"),) + tuple(
        (p.name, f"s_{p.name}") for p in module.ports if p.name.lower() != clock
    )
    generic_value = (
        vhdl_generic_value if module.language == HdlLanguage.VHDL
        else verilog_generic_value
    )
    env = module.default_environment() if free else {}
    generics = tuple((p.name, generic_value(p, canonical, env)) for p in free)

    return BoxArtifact(
        top=box_name,
        language=module.language,
        inner=module,
        clock_port=clock_port,
        overrides=canonical,
        connections=connections,
        generics=generics,
    )
