"""Boxing-stage rules (B001–B004): generated-wrapper consistency.

The boxing step (paper Listing 1) wraps the module under exploration in a
synthetic top whose only pin is the clock, specializing every generic at
the design point.  A wrapper defect — a port left unwired, a generic not
specialized, the ``DONT_TOUCH`` attribute missing, the clock not reaching
the box pin — silently corrupts every downstream measurement, so these
rules build the wrapper at the bound point and check its wiring (the
connection map, generic map and ``DONT_TOUCH`` flag of the
:class:`~repro.boxing.BoxArtifact`) before the tool ever runs.  The text
is rendered from that same wiring, so the rules never render it; the tests
check the rendered text against the wiring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.findings import Severity
from repro.analysis.registry import RuleContext, Stage, Violation, rule
from repro.hdl.ast import Module

if TYPE_CHECKING:
    from repro.boxing import BoxArtifact

__all__: list[str] = []  # rules register themselves; nothing to export


def _module(ctx: RuleContext) -> Module:
    assert ctx.module is not None, "boxing rules need ctx.module"
    return ctx.module


def _resolved_clock(ctx: RuleContext) -> Optional[str]:
    """The clock port boxing would select, or None when there is none."""
    module = _module(ctx)
    if ctx.clock_port is not None:
        try:
            return module.port(ctx.clock_port).name
        except KeyError:
            return None
    clocks = module.clock_ports()
    return clocks[0].name if clocks else None


def _get_box(ctx: RuleContext) -> Optional["BoxArtifact"]:
    """Build the box artifact once per run; None when boxing cannot build.

    Build failures are not re-reported here: a missing clock is B001's
    finding and a bad override is P004's.
    """
    if "box" in ctx.cache:
        return ctx.cache["box"]
    from repro.boxing import build_box
    from repro.errors import ReproError

    box: Optional[BoxArtifact]
    try:
        box = build_box(
            _module(ctx), ctx.params or {}, clock_port=ctx.clock_port
        )
    except (ReproError, KeyError):
        box = None
    ctx.cache["box"] = box
    return box


@rule(
    "B001",
    "no-boxable-clock",
    Severity.ERROR,
    Stage.BOXING,
    "Boxing cannot identify a clock port to constrain (none declared, or "
    "the named one does not exist).",
)
def check_no_boxable_clock(ctx: RuleContext) -> Iterator[Violation]:
    if not ctx.boxed:
        return
    module = _module(ctx)
    if _resolved_clock(ctx) is None:
        if ctx.clock_port is not None:
            yield Violation(
                f"named clock port {ctx.clock_port!r} is not a port of "
                f"module {module.name!r}",
                module=module.name,
            )
        else:
            yield Violation(
                f"module {module.name!r} has no identifiable clock port for "
                "boxing; pass clock_port explicitly",
                module=module.name,
            )


@rule(
    "B002",
    "box-coverage",
    Severity.ERROR,
    Stage.BOXING,
    "The generated wrapper must wire every port and specialize every free "
    "generic of the boxed module.",
)
def check_box_coverage(ctx: RuleContext) -> Iterator[Violation]:
    if not ctx.boxed:
        return
    module = _module(ctx)
    box = _get_box(ctx)
    if box is None:
        return
    # The wiring is compared exactly as build_box records it.
    wired = set(box.connections)
    clock = box.clock_port.lower()
    for port in module.ports:
        if (port.name, f"s_{port.name}") in wired or port.name.lower() == clock:
            continue
        yield Violation(
            f"box wrapper does not wire port {port.name!r}",
            module=module.name,
            line=port.line,
        )
    generics = {name for name, _ in box.generics}
    for param in module.free_parameters():
        if param.name not in generics:
            yield Violation(
                f"box wrapper does not specialize generic {param.name!r}",
                module=module.name,
                line=param.line,
            )


@rule(
    "B003",
    "box-dont-touch",
    Severity.ERROR,
    Stage.BOXING,
    "The wrapper must mark the boxed instance DONT_TOUCH so synthesis "
    "cannot optimize the module under measurement away.",
)
def check_box_dont_touch(ctx: RuleContext) -> Iterator[Violation]:
    if not ctx.boxed:
        return
    module = _module(ctx)
    box = _get_box(ctx)
    if box is None:
        return
    if not box.dont_touch:
        yield Violation(
            "box wrapper lacks the DONT_TOUCH attribute on the boxed instance",
            module=module.name,
        )


@rule(
    "B004",
    "box-clock-unreachable",
    Severity.ERROR,
    Stage.BOXING,
    "The selected clock port must reach the wrapper's clock pin, or the "
    "generated timing constraint targets nothing.",
)
def check_box_clock_unreachable(ctx: RuleContext) -> Iterator[Violation]:
    if not ctx.boxed:
        return
    module = _module(ctx)
    box = _get_box(ctx)
    if box is None:
        return
    clock = box.clock_port
    if (clock, "clk") not in box.connections:
        yield Violation(
            f"clock port {clock!r} is not connected to the box clock pin",
            module=module.name,
        )
