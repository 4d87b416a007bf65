"""Trace files and the end-of-session text summary.

A *trace* is a JSONL file carrying the whole telemetry bundle, one typed
object per line:

- ``{"kind": "meta", ...}`` — format version plus free-form run context;
- ``{"kind": "record", ...}`` — the run ledger (one line per evaluated
  design point; see :mod:`repro.observe.ledger`);
- ``{"kind": "span", ...}`` — per-path span totals;
- ``{"kind": "counter", ...}`` — one counter name/value pair;
- ``{"kind": "generation", ...}`` — NSGA-II per-generation stats.

:func:`write_trace` emits it, :func:`read_trace` parses it back, and
:func:`render_summary` / :func:`render_trace_summary` produce the text
tables the CLI prints at session end (``dovado-repro stats trace.jsonl``
renders the same summary offline).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.observe.counters import GenerationStat
from repro.observe.ledger import OUTCOMES, LedgerRecord, RunLedger
from repro.observe.telemetry import Telemetry
from repro.util.tables import render_table

__all__ = [
    "TRACE_VERSION",
    "write_trace",
    "read_trace",
    "render_summary",
    "render_trace_summary",
]

TRACE_VERSION = 1


def write_trace(
    path: str | Path, telemetry: Telemetry, meta: Mapping | None = None
) -> Path:
    """Write the full telemetry bundle as a JSONL trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        def emit(payload: dict) -> None:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

        emit({"kind": "meta", "version": TRACE_VERSION, **dict(meta or {})})
        for record in telemetry.ledger:
            emit(record.to_json())
        for span_path, totals in telemetry.tracer.as_dict().items():
            emit({"kind": "span", "path": span_path, **totals})
        for name, value in telemetry.counters.as_dict().items():
            emit({"kind": "counter", "name": name, "value": value})
        for stat in telemetry.generations:
            emit(stat.to_json())
    return path


def read_trace(path: str | Path) -> dict:
    """Parse a trace file back into its sections.

    Returns ``{"meta": dict, "ledger": RunLedger, "spans": dict,
    "counters": dict, "generations": list[GenerationStat]}``.  Unknown
    kinds are ignored so newer traces stay readable.
    """
    meta: dict = {}
    records: list[LedgerRecord] = []
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    generations: list[GenerationStat] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            kind = payload.get("kind")
            if kind == "meta":
                meta = {k: v for k, v in payload.items() if k != "kind"}
            elif kind == "record":
                records.append(LedgerRecord.from_json(payload))
            elif kind == "span":
                spans[payload["path"]] = {
                    "count": int(payload["count"]),
                    "wall_s": float(payload["wall_s"]),
                    "sim_s": float(payload["sim_s"]),
                }
            elif kind == "counter":
                counters[payload["name"]] = payload["value"]
            elif kind == "generation":
                generations.append(GenerationStat.from_json(payload))
    return {
        "meta": meta,
        "ledger": RunLedger(records),
        "spans": spans,
        "counters": counters,
        "generations": generations,
    }


# ---------------------------------------------------------------------------
# text summary
# ---------------------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    return f"{seconds:.1f} s"


def render_summary(telemetry: Telemetry, meta: Mapping | None = None) -> str:
    """The end-of-session summary table for a live telemetry bundle."""
    return _render(
        ledger=telemetry.ledger,
        spans=telemetry.tracer.as_dict(),
        counters=telemetry.counters.as_dict(),
        generations=telemetry.generations,
        meta=meta or {},
    )


def render_trace_summary(trace: Mapping) -> str:
    """The same summary, rendered from a parsed trace file."""
    return _render(
        ledger=trace["ledger"],
        spans=trace["spans"],
        counters=trace["counters"],
        generations=trace["generations"],
        meta=trace.get("meta", {}),
    )


def _render(
    ledger: RunLedger,
    spans: Mapping[str, Mapping],
    counters: Mapping[str, float],
    generations: list[GenerationStat],
    meta: Mapping,
) -> str:
    sections: list[str] = []

    counts = ledger.counts()
    charges = ledger.charges()
    total = len(ledger)
    rows = [
        (
            outcome,
            counts[outcome],
            f"{100.0 * counts[outcome] / total:.1f}%" if total else "-",
            _fmt_seconds(charges[outcome]),
        )
        for outcome in OUTCOMES
    ]
    rows.append(("total", total, "100.0%" if total else "-",
                 _fmt_seconds(ledger.total_charge())))
    sections.append(render_table(
        ("Outcome", "Points", "Share", "Tool time"),
        rows,
        title="Run ledger",
    ))

    breakdown = ledger.fidelity_breakdown()
    if any(key != "untagged" for key in breakdown):
        rows = [
            (key, count, _fmt_seconds(charge))
            for key, (count, charge) in sorted(breakdown.items())
        ]
        sections.append(render_table(
            ("Fidelity", "Records", "Tool time"), rows, title="Fidelity ladder"
        ))

    decision_names = [n for n in counters if n.startswith("decision.")]
    if decision_names:
        rows = [
            (name.removeprefix("decision."), int(counters[name]))
            for name in sorted(decision_names)
        ]
        sections.append(render_table(
            ("Decision", "Count"), rows, title="Control model (Section III-C)"
        ))

    if spans:
        rows = [
            (
                path,
                int(t["count"]),
                f"{float(t['wall_s']):.3f}",
                _fmt_seconds(float(t["sim_s"])),
            )
            for path, t in sorted(spans.items())
        ]
        sections.append(render_table(
            ("Span", "Count", "Wall s", "Simulated"), rows, title="Spans"
        ))

    memo_hits = int(counters.get("hdl.parse_memo_hits", 0))
    memo_lookups = memo_hits + int(counters.get("hdl.parse_memo_misses", 0))
    if memo_lookups or "cache.run_hit" in counters:
        rows = [
            ("flow.run_cache", int(counters.get("cache.run_hit", 0)), "-", "-"),
            (
                "hdl.parse_memo", memo_hits, memo_lookups,
                f"{100.0 * memo_hits / memo_lookups:.1f}%" if memo_lookups else "-",
            ),
        ]
        sections.append(render_table(
            ("Cache", "Hits", "Lookups", "Hit ratio"), rows, title="Caches"
        ))

    other = {
        n: v for n, v in counters.items() if not n.startswith("decision.")
    }
    if other:
        rows = [
            (name, f"{value:.4g}" if isinstance(value, float) else value)
            for name, value in sorted(other.items())
        ]
        sections.append(render_table(("Counter", "Value"), rows, title="Counters"))

    if generations:
        last = generations[-1]
        rows_g = [
            (
                g.generation,
                g.front_size,
                g.evaluations,
                f"{g.hypervolume:.4g}",
                "-" if g.budget_remaining_s is None
                else _fmt_seconds(g.budget_remaining_s),
            )
            for g in generations
        ]
        sections.append(render_table(
            ("Gen", "Front", "Evals", "Hypervolume", "Budget left"),
            rows_g,
            title=f"NSGA-II generations ({last.generation} total)",
        ))

    if meta:
        context = ", ".join(
            f"{k}={v}" for k, v in sorted(meta.items()) if k != "version"
        )
        if context:
            sections.append(f"run: {context}")

    return "\n\n".join(sections)
