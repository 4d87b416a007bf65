"""AST node types for parsed HDL interfaces.

Only the interface subset matters to Dovado: a :class:`Module` records the
unit's name, its parameters/generics, its ports, and its context clauses
(VHDL libraries / SV package imports).  Bodies are skipped by the parsers
(they scan to the matching ``end``), so these nodes carry no statements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.hdl import expr as E

__all__ = [
    "HdlLanguage",
    "Direction",
    "PortType",
    "Parameter",
    "Port",
    "Module",
    "SourceUnit",
]


class HdlLanguage(str, enum.Enum):
    VHDL = "vhdl"
    VERILOG = "verilog"
    SYSTEMVERILOG = "systemverilog"

    def __str__(self) -> str:
        return self.value


class Direction(str, enum.Enum):
    IN = "in"
    OUT = "out"
    INOUT = "inout"
    BUFFER = "buffer"  # VHDL only

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PortType:
    """A port's type: base name plus an optional vector range.

    ``high``/``low`` are constant expressions (possibly referencing
    parameters).  ``descending`` records ``downto``/``[high:low]`` order vs
    ``to``.  A scalar port has ``high is None``.
    """

    base: str  # std_logic, std_logic_vector, wire, logic, integer, ...
    high: Optional[E.Expr] = None
    low: Optional[E.Expr] = None
    descending: bool = True

    def is_vector(self) -> bool:
        return self.high is not None

    def width(self, env: dict[str, int] | None = None) -> int:
        """Concrete bit width under parameter environment ``env``."""
        if self.high is None:
            return 1
        hi = E.evaluate(self.high, env)
        lo = E.evaluate(self.low, env) if self.low is not None else 0
        return abs(hi - lo) + 1

    def render_vhdl(self) -> str:
        if self.high is None:
            return self.base
        direction = "downto" if self.descending else "to"
        lo = self.low.render() if self.low is not None else "0"
        return f"{self.base}({self.high.render()} {direction} {lo})"


@dataclass(frozen=True)
class Parameter:
    """A free knob of the module: VHDL generic or (System)Verilog parameter.

    ``local`` marks ``localparam``/deferred constants, which are *not* free
    design-space dimensions; the frontend still records them so width
    expressions referencing them can be evaluated.
    """

    name: str
    ptype: str = "integer"  # integer, natural, positive, boolean, string, int, ...
    default: Optional[E.Expr] = None
    local: bool = False
    line: int = 0

    def default_value(self, env: dict[str, int] | None = None) -> Optional[int]:
        """Evaluate the default, or None when absent/not integer-evaluable."""
        if self.default is None:
            return None
        try:
            return E.evaluate(self.default, env)
        except E.EvalError:
            return None

    def is_integer_like(self) -> bool:
        """True when the parameter is a legal integer DSE dimension.

        The paper restricts DSE to integer parameters; booleans are treated
        as integers over {0, 1}.
        """
        return self.ptype.lower() in (
            "integer", "natural", "positive", "int", "int unsigned", "integer_vector",
            "boolean", "bit", "logic", "shortint", "longint", "byte", "parameter",
            "time", "unsigned", "signed",
        )

    def is_boolean(self) -> bool:
        return self.ptype.lower() in ("boolean", "bit")


@dataclass(frozen=True)
class Port:
    name: str
    direction: Direction
    ptype: PortType
    line: int = 0

    def width(self, env: dict[str, int] | None = None) -> int:
        return self.ptype.width(env)


# Names commonly given to clock ports, in priority order; boxing uses this to
# pick the clock for the generated constraint.
_CLOCK_NAMES = ("clk", "clock", "clk_i", "i_clk", "aclk", "clk_in", "sys_clk", "wclk")


@dataclass(frozen=True)
class Module:
    """A parsed design unit interface (VHDL entity or Verilog module)."""

    name: str
    language: HdlLanguage
    parameters: tuple[Parameter, ...] = field(default_factory=tuple)
    ports: tuple[Port, ...] = field(default_factory=tuple)
    libraries: tuple[str, ...] = field(default_factory=tuple)   # VHDL `library X;`
    use_clauses: tuple[str, ...] = field(default_factory=tuple) # VHDL `use X.Y.all;` / SV imports
    architecture: Optional[str] = None  # VHDL architecture name if seen
    line: int = 0

    # Facts that do not depend on a design point are computed once per
    # module: a frozen Module cannot change under a cached_property.

    @cached_property
    def _free_parameters(self) -> tuple[Parameter, ...]:
        return tuple(p for p in self.parameters if not p.local)

    def free_parameters(self) -> tuple[Parameter, ...]:
        """Parameters usable as DSE dimensions (non-local)."""
        return self._free_parameters

    @cached_property
    def parameter_map(self) -> dict[str, Parameter]:
        """Parameters keyed by lower-cased name (a later duplicate wins).

        Shared by every caller of this module; treat it as read-only.
        """
        return {p.name.lower(): p for p in self.parameters}

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name.lower() == name.lower():
                return p
        raise KeyError(f"module {self.name!r} has no parameter {name!r}")

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name.lower() == name.lower():
                return p
        raise KeyError(f"module {self.name!r} has no port {name!r}")

    @cached_property
    def _default_environment(self) -> dict[str, int]:
        env: dict[str, int] = {}
        for p in self.parameters:
            v = p.default_value(env)
            if v is not None:
                env[p.name] = v
        return env

    def default_environment(self) -> dict[str, int]:
        """Parameter defaults, resolved in declaration order (a fresh copy).

        Later defaults may reference earlier parameters (``ADDR_WIDTH =
        clog2(DEPTH)``), so evaluation threads the growing environment.
        Non-evaluable defaults are skipped.
        """
        return dict(self._default_environment)

    @cached_property
    def _clock_ports(self) -> tuple[Port, ...]:
        found: list[tuple[int, Port]] = []
        for port in self.ports:
            if port.direction != Direction.IN or port.ptype.is_vector():
                continue
            lowered = port.name.lower()
            for rank, pattern in enumerate(_CLOCK_NAMES):
                if lowered == pattern:
                    found.append((rank, port))
                    break
            else:
                if "clk" in lowered or "clock" in lowered:
                    found.append((len(_CLOCK_NAMES), port))
        found.sort(key=lambda rp: rp[0])
        return tuple(p for _, p in found)

    def clock_ports(self) -> tuple[Port, ...]:
        """Input scalar ports that look like clocks, best candidates first."""
        return self._clock_ports

    def total_port_bits(self, env: dict[str, int] | None = None) -> int:
        full_env = self.default_environment()
        if env:
            full_env.update(env)
        return sum(p.width(full_env) for p in self.ports)


@dataclass(frozen=True)
class SourceUnit:
    """One parsed source file: its language and the modules it declares."""

    path: str
    language: HdlLanguage
    modules: tuple[Module, ...]

    def module(self, name: str) -> Module:
        for m in self.modules:
            if m.name.lower() == name.lower():
                return m
        raise KeyError(f"{self.path}: no module {name!r}")
