"""Hierarchy-stage rules (H001–H002): cross-module structure.

Dovado starts "from an RTL hierarchy"; these rules consume the
instantiation graph of :mod:`repro.hdl.hierarchy` and flag structural
defects that make parts of the tree dead weight or outright
un-elaborable: instances of modules no provided source defines (their
outputs are undriven in the elaborated design) and recursive
instantiation.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Severity
from repro.analysis.registry import RuleContext, Stage, Violation, rule

__all__: list[str] = []


@rule(
    "H001",
    "unresolved-instance",
    Severity.WARNING,
    Stage.HIERARCHY,
    "A module is instantiated but defined by no provided source; its "
    "instance elaborates as a black box with undriven outputs.",
)
def check_unresolved_instance(ctx: RuleContext) -> Iterator[Violation]:
    from repro.hdl.hierarchy import extract_instances

    known = {name.lower() for name in ctx.known_modules}
    reported: set[str] = set()
    for source, language in ctx.sources:
        for inst in extract_instances(source, language):
            target = inst.target.lower()
            if target in known or target in reported:
                continue
            reported.add(target)
            yield Violation(
                f"instance {inst.label!r} in {inst.parent!r} targets "
                f"undefined module {inst.target!r} (undriven black box)",
                module=inst.parent,
            )


@rule(
    "H002",
    "recursive-instantiation",
    Severity.ERROR,
    Stage.HIERARCHY,
    "The instantiation graph contains a cycle; the design cannot elaborate.",
)
def check_recursive_instantiation(ctx: RuleContext) -> Iterator[Violation]:
    from repro.hdl.hierarchy import Hierarchy

    cycle = Hierarchy.from_sources(ctx.sources, ctx.known_modules).find_cycle()
    if cycle is not None:
        yield Violation(
            f"recursive instantiation: {' -> '.join(cycle)}", module=cycle[0]
        )
