"""Shared utilities: RNG plumbing, timing, tables, plots, session IO."""

from repro.util.rng import as_generator, spawn_child, stable_hash_seed
from repro.util.timing import SoftDeadline
from repro.util.tables import render_table
from repro.util.units import mhz_from_ns, ns_from_mhz, format_mhz
from repro.util.plots import Series, pareto_plot, scatter_plot

__all__ = [
    "as_generator",
    "spawn_child",
    "stable_hash_seed",
    "SoftDeadline",
    "render_table",
    "mhz_from_ns",
    "ns_from_mhz",
    "format_mhz",
    "Series",
    "pareto_plot",
    "scatter_plot",
]
