"""VEDA — the simulated EDA tool facade.

This package is the Vivado stand-in: a project/run façade
(:mod:`repro.flow.vivado_sim`) driven either programmatically or through the
TCL layer, per-step directives (:mod:`repro.directives`), and textual
utilization/timing reports with parsers (:mod:`repro.flow.reports`) so the
framework extracts metrics the same way Dovado scrapes Vivado's output.
"""

from repro.directives import (
    ImplDirective,
    SynthDirective,
    DirectiveSet,
)
from repro.flow.vivado_sim import VivadoSim, RunResult, FlowStep
from repro.flow.reports import (
    render_timing_report,
    render_utilization_report,
    parse_timing_report,
    parse_utilization_report,
)
from repro.flow.power import (
    PowerReport,
    estimate_power,
    render_power_report,
    parse_power_report,
)

__all__ = [
    "ImplDirective",
    "SynthDirective",
    "DirectiveSet",
    "VivadoSim",
    "RunResult",
    "FlowStep",
    "render_timing_report",
    "render_utilization_report",
    "parse_timing_report",
    "parse_utilization_report",
    "PowerReport",
    "estimate_power",
    "render_power_report",
    "parse_power_report",
]
