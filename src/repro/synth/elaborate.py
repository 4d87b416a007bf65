"""Elaboration: parsed module + parameter binding → block-level netlist.

Two routes:

- **Architectural models.** Each case-study generator registers a callable
  that knows how its module's parameters shape the microarchitecture
  (pipeline stages, memory geometry, datapath clusters) and emits the
  corresponding block netlist.  This mirrors reality: synthesis of a FIFO
  with ``DEPTH=512`` produces a structurally predictable netlist.
- **Heuristic fallback.** For modules without a model, a generic
  inference pass derives a plausible netlist from the interface: port
  widths size a datapath, identifier hints (``mem``, ``addr``, ``mul``)
  trigger memory/DSP inference.  This keeps the tool *total* — any parsed
  module can be pushed through the flow — at reduced fidelity, exactly the
  situation a real estimation flow faces for unseen IP.

Elaboration also performs the legality checks Vivado would: unknown
parameter overrides, non-integer values for integer generics, and
combinational-loop detection on the produced netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ElaborationError
from repro.hdl.ast import Module
from repro.netlist import Block, Netlist

__all__ = ["ArchitecturalModel", "register_model", "registered_models", "elaborate"]

ModelFn = Callable[[Module, Mapping[str, int]], Netlist]


@dataclass(frozen=True)
class ArchitecturalModel:
    """A registered elaboration model for one module name."""

    module_name: str
    build: ModelFn
    description: str = ""


_MODELS: dict[str, ArchitecturalModel] = {}


def register_model(
    module_name: str, build: ModelFn, description: str = ""
) -> ArchitecturalModel:
    """Register (or replace) the architectural model for ``module_name``."""
    model = ArchitecturalModel(module_name=module_name, build=build, description=description)
    _MODELS[module_name.lower()] = model
    return model


def registered_models() -> dict[str, ArchitecturalModel]:
    return dict(_MODELS)


def unregister_model(module_name: str) -> bool:
    """Remove a registered model; returns whether one existed."""
    return _MODELS.pop(module_name.lower(), None) is not None


def resolve_environment(
    module: Module, overrides: Mapping[str, int | bool] | None = None
) -> dict[str, int]:
    """Merge parameter defaults with ``overrides`` into a full int environment.

    Raises :class:`ElaborationError` for overrides naming unknown parameters,
    targeting localparams, or carrying non-integer values.
    """
    env = module.default_environment()
    overrides = overrides or {}
    known = module.parameter_map
    for name, value in overrides.items():
        param = known.get(name.lower())
        if param is None:
            raise ElaborationError(
                f"module {module.name!r} has no parameter {name!r}"
            )
        if param.local:
            raise ElaborationError(
                f"parameter {param.name!r} is local and cannot be overridden"
            )
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, int):
            raise ElaborationError(
                f"parameter {param.name!r}: non-integer value {value!r} "
                "(the DSE formulation is integer-only)"
            )
        env[param.name] = value
    # Re-derive localparams that depend on overridden values, in declaration
    # order (e.g. CL_OP_TABLE_SIZE = $clog2(OP_TABLE_SIZE)).
    for param in module.parameters:
        if param.local and param.default is not None:
            v = param.default_value(env)
            if v is not None:
                env[param.name] = v
    return env


def elaborate(
    module: Module,
    overrides: Mapping[str, int | bool] | None = None,
    *,
    check_loops: bool = True,
) -> Netlist:
    """Elaborate ``module`` under ``overrides`` into a netlist.

    ``check_loops=False`` skips the combinational-loop check so analysis
    passes (lint rule N001) can obtain the broken netlist and report every
    cycle as a finding instead of dying on the first one.
    """
    env = resolve_environment(module, overrides)
    model = _MODELS.get(module.name.lower())
    if model is not None:
        netlist = model.build(module, env)
    else:
        netlist = _heuristic_netlist(module, env)
    if len(netlist) == 0:
        raise ElaborationError(f"module {module.name!r} elaborated to an empty netlist")
    if check_loops:
        netlist.check_no_combinational_loops()
    if netlist.ports.total() == 0:
        inputs = sum(
            p.width(env) for p in module.ports if p.direction.value in ("in", "inout")
        )
        outputs = sum(
            p.width(env) for p in module.ports if p.direction.value in ("out", "buffer")
        )
        netlist.set_ports(inputs, outputs)
    return netlist


# ---------------------------------------------------------------------------
# heuristic fallback
# ---------------------------------------------------------------------------

_MEM_HINTS = ("mem", "ram", "fifo", "buf", "cache", "queue")
_MUL_HINTS = ("mul", "mac", "dsp", "prod")


def _heuristic_netlist(module: Module, env: Mapping[str, int]) -> Netlist:
    """Interface-driven netlist inference for modules without a model.

    Sizing rules (coarse, but monotone in the interface):

    - a register stage sized by total output bits;
    - a datapath block whose logic grows with input×output bit product
      (capped) and whose depth grows with the log of input bits;
    - parameter-name hints add memory (``*_DEPTH``/``*_SIZE`` × widest data
      port) and multiplier blocks.
    """
    env = dict(env)
    in_bits = sum(p.width(env) for p in module.ports if p.direction.value == "in")
    out_bits = sum(
        p.width(env) for p in module.ports if p.direction.value in ("out", "buffer", "inout")
    )
    in_bits = max(in_bits, 1)
    out_bits = max(out_bits, 1)

    netlist = Netlist(top=module.name)

    logic_terms = min(in_bits * out_bits // 4 + in_bits + out_bits, 20000)
    levels = max(1, (in_bits - 1).bit_length() // 2 + 1)
    datapath = netlist.add_block(
        Block(
            name="u_datapath",
            logic_terms=logic_terms,
            ff_bits=in_bits,
            carry_bits=min(in_bits, 64),
            levels=levels,
            registered_output=False,
        )
    )
    outreg = netlist.add_block(
        Block(name="u_outreg", logic_terms=out_bits // 2, ff_bits=out_bits, levels=1)
    )
    netlist.connect(datapath.name, outreg.name, width=out_bits, combinational=True)

    widest_data = max((p.width(env) for p in module.ports if p.ptype.is_vector()), default=8)
    mem_depth = 0
    for param in module.parameters:
        lowered = param.name.lower()
        value = env.get(param.name, 0)
        if value <= 0:
            continue
        if any(h in lowered for h in _MEM_HINTS) or lowered.endswith(("depth", "size")):
            mem_depth += value
        if any(h in lowered for h in _MUL_HINTS):
            mem_depth += 0  # hint handled below; avoid double counting
    if mem_depth > 0:
        mem = netlist.add_block(
            Block(
                name="u_mem",
                logic_terms=max(8, (mem_depth - 1).bit_length() * 4),
                ff_bits=2 * max(1, (mem_depth - 1).bit_length()),
                mem_bits=mem_depth * widest_data,
                mem_width=widest_data,
                levels=2,
                through_memory=True,
            )
        )
        netlist.connect(mem.name, datapath.name, width=widest_data, combinational=True)
        netlist.connect(outreg.name, mem.name, width=widest_data)

    mul_hint = any(
        any(h in p.name.lower() for h in _MUL_HINTS) for p in module.parameters
    ) or any(any(h in p.name.lower() for h in _MUL_HINTS) for p in module.ports)
    if mul_hint:
        mul = netlist.add_block(
            Block(
                name="u_mul",
                logic_terms=widest_data * 2,
                ff_bits=widest_data * 2,
                mul_ops=max(1, widest_data // 18),
                levels=1,
                through_dsp=True,
            )
        )
        netlist.connect(mul.name, outreg.name, width=widest_data)

    ctrl = netlist.add_block(
        Block(
            name="u_ctrl",
            logic_terms=16 + 2 * len(module.ports),
            ff_bits=8,
            levels=2,
        )
    )
    netlist.connect(ctrl.name, datapath.name, width=4, combinational=True)
    return netlist
