"""Dataflow-stage rules (D codes): parameter flow + interval analysis.

Where the elaboration rules (P codes) reason about one *concrete* point,
this stage reasons about the whole declared space at once:

- :class:`StaticSpaceAnalysis` abstractly evaluates every port-range
  expression over the interval hull of each DSE dimension — mirroring
  :meth:`repro.analysis.plan.PointPlan.environment`
  pass-for-pass — and derives, per dimension, the exact value subsets
  that make the design *definitely* infeasible (null port ranges,
  ``$clog2`` domain errors, division by zero, subtype violations);
- :class:`~repro.hdl.dataflow.ParameterDependencyGraph` answers which
  parameters matter at all;
- :func:`prune_space` turns both into a tightened
  :class:`~repro.core.spaces.ParameterSpace` before the GA ever samples.

Soundness contract (the gate relies on it): a point is reported
infeasible here **only** when the full design rule checker would
certainly report at least one ERROR-severity finding for it.  Anything
the interval analysis cannot decide falls through to the per-point
checker, so enabling the static layer never changes a feasibility
verdict — it only removes elaboration calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.analysis.plan import subtype_check, width_refs_of
from repro.analysis.registry import RuleContext, Stage, Violation, rule
from repro.hdl.ast import HdlLanguage, Module, Parameter
from repro.hdl.dataflow import (
    BodyScan,
    ParameterDependencyGraph,
    scan_for,
)
from repro.hdl.interval import AbstractInt, Interval, evaluate_abstract

__all__ = ["StaticSpaceAnalysis", "PruneReport", "prune_space"]

# Dimensions with more values than this are not swept per-value; their
# points simply keep falling through to the per-point checker.
_MAX_SWEEP = 8192


def _has_architectural_model(module: Module) -> bool:
    """Modules with a registered elaboration model consume parameters the
    RTL body scan cannot see (the model builds the netlist directly), so
    body-based liveness verdicts do not apply to them."""
    from repro.synth.elaborate import registered_models

    return module.name.lower() in registered_models()


# ---------------------------------------------------------------------------
# the static space analysis
# ---------------------------------------------------------------------------


class StaticSpaceAnalysis:
    """Interval analysis of one module's interface over one parameter space.

    ``applicable`` is False when the space does not line up with the
    module's free parameters (unknown or local dimension names) — every
    query then degrades to "cannot decide" and the callers fall back to
    per-point checking.
    """

    def __init__(self, module: Module, space, scan: Optional[BodyScan] = None):
        self.module = module
        self.space = space
        self.scan = scan
        self._params: dict[str, Parameter] = module.parameter_map
        self._dims: dict[str, object] = {}
        self.applicable = space is not None
        if self.applicable:
            for dim in space:
                param = self._params.get(dim.name.lower())
                if param is None or param.local:
                    self.applicable = False
                    break
                self._dims[dim.name.lower()] = dim
        self.always_reasons: tuple[str, ...] = ()
        self.skipped_dims: tuple[str, ...] = ()
        self._pass1: dict[str, AbstractInt] = {}
        self._boxes: dict[str, AbstractInt] = {}
        self._masks: Optional[dict[str, dict[int, str]]] = None
        self._luts: Optional[list[np.ndarray]] = None
        self._values: dict[str, Optional[list[int]]] = {}

    # -- environment construction ---------------------------------------

    def _dim_values(self, dim) -> Optional[list[int]]:
        """A dimension's decoded values (decoded once), or None when too
        many to sweep."""
        key = dim.name.lower()
        if key not in self._values:
            self._values[key] = (
                None if dim.cardinality() > _MAX_SWEEP else dim.values()
            )
        return self._values[key]

    def _hull_interval(self, dim) -> Interval:
        values = self._dim_values(dim)
        if values is not None:
            return Interval(min(values), max(values))
        # Every built-in dimension decodes monotonically; for oversized
        # custom ones the endpoint hull is still a safe overapproximation
        # only if decode is monotone, so widen via both endpoints.
        return Interval.span(dim.decode(dim.low), dim.decode(dim.high))

    def _pass1_defaults(self) -> dict[str, AbstractInt]:
        """Abstract mirror of ``module.default_environment()``: defaults
        threaded in declaration order, unevaluable ones left unbound."""
        env: dict[str, AbstractInt] = {}
        for p in self.module.parameters:
            if p.default is None:
                continue
            r = evaluate_abstract(p.default, env)
            if r.definitely_fails():
                continue
            env[p.name] = r
        return env

    def _compute_boxes(self, pass1: Mapping[str, AbstractInt]) -> None:
        """Per-dimension abstract value when the dimension is *not* pinned:
        bound somewhere in its hull, or left at its pass-1 default (a gate
        query may bind any subset of the dimensions)."""
        for key, dim in self._dims.items():
            param = self._params[key]
            hull = self._hull_interval(dim)
            prior = pass1.get(param.name)
            if prior is None:
                self._boxes[key] = AbstractInt(hull, may_fail=True)
            else:
                assert prior.interval is not None
                self._boxes[key] = AbstractInt(
                    hull.join(prior.interval), prior.may_fail
                )

    def _env(self, pinned: Mapping[str, AbstractInt]) -> dict[str, AbstractInt]:
        """Abstract mirror of ``PointPlan.environment``.

        Pass 1 defaults, pass 2 overrides (pinned dims exactly, the other
        dimensions at their box value), pass 3 localparams re-derived —
        keeping the pass-1 binding wherever re-derivation *may* fail,
        exactly like the concrete resolver keeps the old value on failure.
        """
        env = dict(self._pass1)
        for p in self.module.parameters:
            if p.local:
                continue
            key = p.name.lower()
            if key in pinned:
                env[p.name] = pinned[key]
            elif key in self._boxes:
                env[p.name] = self._boxes[key]
        for p in self.module.parameters:
            if not p.local or p.default is None:
                continue
            r = evaluate_abstract(p.default, env)
            if r.definitely_fails():
                continue  # concrete resolver keeps the old binding
            old = env.get(p.name)
            if not r.may_fail or old is None:
                env[p.name] = r
            else:
                assert r.interval is not None
                joined = (
                    r.interval
                    if old.interval is None
                    else r.interval.join(old.interval)
                )
                env[p.name] = AbstractInt(joined, old.may_fail)
        return env

    # -- the checks ------------------------------------------------------

    def _port_violations(
        self, env: Mapping[str, AbstractInt]
    ) -> tuple[list[str], bool]:
        """Definite P001/P002 violations over ``env``'s region.

        Returns ``(reasons, undecided)``: ``reasons`` hold only *definite*
        facts (every point in the region fails the checker); ``undecided``
        is True when some point of the region *might* fail, so per-value
        sweeps are worth running.
        """
        reasons: list[str] = []
        undecided = False
        vhdl = self.module.language == HdlLanguage.VHDL
        for port in self.module.ports:
            if not port.ptype.is_vector():
                continue
            hi = evaluate_abstract(port.ptype.high, env)
            lo = (
                evaluate_abstract(port.ptype.low, env)
                if port.ptype.low is not None
                else AbstractInt.exact(0)
            )
            if hi.definitely_fails() or lo.definitely_fails():
                reasons.append(
                    f"port {port.name!r} range is never evaluable here "
                    "(unconditional $clog2 domain error / division by zero "
                    "/ unbound name)"
                )
                continue
            assert hi.interval is not None and lo.interval is not None
            if hi.may_fail or lo.may_fail:
                undecided = True
            referenced = vhdl or bool(width_refs_of(port))
            if not referenced:
                # P001 skips parameter-free Verilog ranges (ascending
                # index numbering is legal), so a null range here is fine.
                continue
            if (
                hi.interval.hi is not None
                and lo.interval.lo is not None
                and hi.interval.hi < lo.interval.lo
            ):
                # Wherever the bounds evaluate the range is null (P001);
                # wherever they do not, P002 fires instead.  Either way
                # the checker errors at every point of the region.
                reasons.append(
                    f"port {port.name!r} always elaborates to a null range "
                    f"(high in {hi.interval}, low in {lo.interval})"
                )
            elif not (
                hi.interval.lo is not None
                and lo.interval.hi is not None
                and hi.interval.lo >= lo.interval.hi
            ):
                undecided = True  # the range may collapse for some values
        return reasons, undecided

    @staticmethod
    def _subtype_reason(param: Parameter, value: int) -> Optional[str]:
        """Mirror of rule P005 for one (parameter, value) pair."""
        ptype = param.ptype.lower()
        if ptype == "natural" and value < 0:
            return f"natural generic {param.name!r} must be >= 0"
        if ptype == "positive" and value < 1:
            return f"positive generic {param.name!r} must be >= 1"
        if param.is_boolean() and value not in (0, 1):
            return f"{param.ptype} parameter {param.name!r} takes only 0/1"
        return None

    # -- mask computation ------------------------------------------------

    def run(self) -> None:
        """Compute the per-dimension infeasible-value masks (idempotent)."""
        if self._masks is not None or not self.applicable:
            return
        masks: dict[str, dict[int, str]] = {key: {} for key in self._dims}
        self._pass1 = self._pass1_defaults()
        self._compute_boxes(self._pass1)

        for key, dim in self._dims.items():
            param = self._params[key]
            if subtype_check(param) is None:
                continue  # P005 never fires on an unconstrained parameter
            values = self._dim_values(dim)
            if values is None:
                continue
            for v in values:
                reason = self._subtype_reason(param, v)
                if reason is not None:
                    masks[key][v] = reason

        reasons, undecided = self._port_violations(self._env({}))
        if reasons:
            # The whole box is infeasible; per-value masks are moot.
            self.always_reasons = tuple(reasons)
            self._masks = masks
            return

        if undecided:
            # Sweep only dimensions whose value can actually reach a port
            # range expression; the others cannot flip P001/P002 verdicts.
            graph = ParameterDependencyGraph(module=self.module, scan=self.scan)
            skipped: list[str] = []
            for key, dim in self._dims.items():
                if not any(
                    s.kind == "port-range" for s in graph.flows(key)
                ):
                    continue
                values = self._dim_values(dim)
                if values is None:
                    skipped.append(dim.name)
                    continue
                for v in values:
                    if v in masks[key]:
                        continue
                    hit, _ = self._port_violations(
                        self._env({key: AbstractInt.exact(v)})
                    )
                    if hit:
                        masks[key][v] = hit[0]
            self.skipped_dims = tuple(skipped)
        self._masks = masks

    def mask_of(self, dim_name: str) -> Mapping[int, str]:
        """Decoded value → reason, for one dimension (after :meth:`run`)."""
        self.run()
        if self._masks is None:
            return {}
        return self._masks.get(dim_name.lower(), {})

    def infeasible_runs(self, dim_name: str) -> list[tuple[int, int, str]]:
        """Contiguous (in encoded order) infeasible value runs of one dim."""
        self.run()
        dim = self._dims.get(dim_name.lower())
        if dim is None or self._masks is None:
            return []
        mask = self._masks[dim_name.lower()]
        values = self._dim_values(dim)
        if values is None or not mask:
            return []
        runs: list[tuple[int, int, str]] = []
        start: Optional[int] = None
        for v in values:
            if v in mask:
                if start is None:
                    start = v
                last = v
            elif start is not None:
                runs.append((start, last, mask[start]))
                start = None
        if start is not None:
            runs.append((start, last, mask[start]))
        return runs

    def fully_infeasible_dims(self) -> tuple[str, ...]:
        """Dimensions for which *every* value is statically infeasible."""
        self.run()
        if self._masks is None:
            return ()
        out: list[str] = []
        for key, dim in self._dims.items():
            values = self._dim_values(dim)
            if values is None or not values:
                continue
            if all(v in self._masks[key] for v in values):
                out.append(dim.name)
        return tuple(out)

    def box_env(self) -> dict[str, AbstractInt]:
        """The abstract environment of the whole declared space."""
        self.run()
        if self._masks is None:
            return {
                name: AbstractInt.exact(value)
                for name, value in self.module.default_environment().items()
            }
        return self._env({})

    # -- queries the gate consumes --------------------------------------

    @cached_property
    def _can_prove(self) -> bool:
        """Whether any binding can be proved infeasible at all (with no
        always-reason and every mask empty, :meth:`reject_findings` can
        only answer None)."""
        self.run()
        return bool(self.always_reasons) or any((self._masks or {}).values())

    def reject_findings(
        self, params: Mapping[str, int]
    ) -> Optional[tuple[Finding, ...]]:
        """Definite-infeasible findings for ``params``, or None.

        None means "cannot decide statically" — the caller must run the
        per-point checker.  A non-None result is a soundness promise:
        the checker would certainly report ERROR findings for this point.
        """
        if not self.applicable or not self._can_prove:
            return None
        assert self._masks is not None
        norm: dict[str, int] = {}
        for name, value in params.items():
            key = name.lower()
            if key not in self._dims:
                return None  # unknown/extra binding: P004 territory
            norm[key] = int(value)
        for key, value in norm.items():
            box = self._boxes[key]
            if box.interval is None or not box.interval.contains(value):
                return None  # outside the analyzed region
        if self.always_reasons:
            return tuple(
                Finding(
                    Severity.ERROR,
                    "D002",
                    f"statically infeasible over the declared space: {reason}",
                    module=self.module.name,
                )
                for reason in self.always_reasons
            )
        findings: list[Finding] = []
        for key in sorted(norm):
            reason = self._masks[key].get(norm[key])
            if reason is not None:
                findings.append(
                    Finding(
                        Severity.ERROR,
                        "D002",
                        f"parameter {self._dims[key].name!r} = {norm[key]} "
                        f"lies in a statically infeasible subrange: {reason}",
                        module=self.module.name,
                    )
                )
        return tuple(findings) if findings else None

    def static_infeasible_mask(self, X: np.ndarray) -> np.ndarray:
        """Vectorized definite-infeasibility over encoded rows.

        Mirrors :meth:`repro.core.spaces.ParameterSpace.decode`'s clipping,
        so a row is masked exactly when its decoded binding would be
        rejected by :meth:`reject_findings`.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        n = X.shape[0]
        if not self.applicable:
            return np.zeros(n, dtype=bool)
        self.run()
        assert self._masks is not None
        if self.always_reasons:
            return np.ones(n, dtype=bool)
        if self._luts is None:
            luts: list[np.ndarray] = []
            for dim in self.space:
                mask = self._masks.get(dim.name.lower(), {})
                lut = np.zeros(dim.cardinality(), dtype=bool)
                if mask:
                    for offset in range(dim.cardinality()):
                        if dim.decode(dim.low + offset) in mask:
                            lut[offset] = True
                luts.append(lut)
            self._luts = luts
        bad = np.zeros(n, dtype=bool)
        lows = np.array([d.low for d in self.space], dtype=np.int64)
        highs = np.array([d.high for d in self.space], dtype=np.int64)
        clipped = np.clip(X, lows, highs)
        for j, dim in enumerate(self.space):
            lut = self._luts[j]
            if lut.any():
                bad |= lut[clipped[:, j] - dim.low]
        return bad


# ---------------------------------------------------------------------------
# space pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneReport:
    """What :func:`prune_space` changed, and why."""

    space: object  # repro.core.spaces.ParameterSpace
    dropped: tuple[str, ...] = ()
    tightened: tuple[tuple[str, int, int, int, int], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.dropped or self.tightened)

    def render(self) -> str:
        lines: list[str] = []
        if not self.changed:
            lines.append("static pruning: space unchanged")
        for name in self.dropped:
            lines.append(
                f"static pruning: dropped dead dimension {name!r} "
                "(flows into no port range, generate condition, child "
                "generic, or body expression)"
            )
        for name, old_lo, old_hi, new_lo, new_hi in self.tightened:
            lines.append(
                f"static pruning: tightened {name} "
                f"[{old_lo}..{old_hi}] -> [{new_lo}..{new_hi}]"
            )
        lines.extend(f"static pruning: {note}" for note in self.notes)
        return "\n".join(lines)


def _rebuild_dim(dim, low: int, high: int):
    from repro.core.spaces import IntRange

    try:
        return type(dim)(dim.name, low, high)
    except TypeError:
        # BoolParam-style signatures take only a name; a tightened boolean
        # is just a (possibly single-valued) integer range.
        return IntRange(dim.name, low, high)


def prune_space(
    module: Module,
    space,
    sources: Sequence[tuple[str, str]] = (),
    scan: Optional[BodyScan] = None,
) -> PruneReport:
    """Statically tighten ``space``: drop dead dimensions, clip infeasible
    range ends.  Opt-in (the DSE CLI's ``--prune-space``): the returned
    space changes which points the GA can sample, so it is never applied
    implicitly.
    """
    if scan is None and sources:
        scan = scan_for(module.name, sources)
    analysis = StaticSpaceAnalysis(module, space, scan=scan)
    analysis.run()

    dead: set[str] = set()
    if scan is not None and not _has_architectural_model(module):
        graph = ParameterDependencyGraph(module=module, scan=scan)
        dead = {name.lower() for name in graph.dead_parameters()}

    all_dims = list(space)
    droppable = [d.name.lower() for d in all_dims if d.name.lower() in dead]
    if len(droppable) >= len(all_dims):
        # Keep at least one dimension — a space cannot be empty.
        droppable = droppable[: len(all_dims) - 1]
    dims: list = []
    dropped: list[str] = []
    tightened: list[tuple[str, int, int, int, int]] = []
    notes: list[str] = []
    for dim in all_dims:
        key = dim.name.lower()
        if key in droppable:
            dropped.append(dim.name)
            continue
        mask = analysis.mask_of(key) if analysis.applicable else {}
        low, high = dim.low, dim.high
        if mask and not analysis.always_reasons:
            while low < high and dim.decode(low) in mask:
                low += 1
            while high > low and dim.decode(high) in mask:
                high -= 1
            if low == high and dim.decode(low) in mask:
                # Everything infeasible: leave the dimension alone and let
                # D004 report it — an empty dimension cannot be built.
                notes.append(
                    f"dimension {dim.name!r} has no statically feasible "
                    "values; left unchanged (see D004)"
                )
                low, high = dim.low, dim.high
        if (low, high) != (dim.low, dim.high):
            tightened.append(
                (
                    dim.name,
                    dim.decode(dim.low),
                    dim.decode(dim.high),
                    dim.decode(low),
                    dim.decode(high),
                )
            )
            dims.append(_rebuild_dim(dim, low, high))
        else:
            dims.append(dim)
    if analysis.skipped_dims:
        notes.append(
            "dimensions too large to sweep per-value: "
            + ", ".join(analysis.skipped_dims)
        )
    if not dims:
        return PruneReport(space=space, notes=tuple(notes))
    from repro.core.spaces import ParameterSpace

    new_space = ParameterSpace(dims) if (dropped or tightened) else space
    return PruneReport(
        space=new_space,
        dropped=tuple(dropped),
        tightened=tuple(tightened),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the registered D rules
# ---------------------------------------------------------------------------


def _module(ctx: RuleContext) -> Module:
    assert ctx.module is not None, "dataflow rules need ctx.module"
    return ctx.module


def _scan_of(ctx: RuleContext) -> Optional[BodyScan]:
    if "dataflow.scan" not in ctx.cache:
        scan = None
        if ctx.sources:
            scan = scan_for(_module(ctx).name, ctx.sources)
        ctx.cache["dataflow.scan"] = scan
    return ctx.cache["dataflow.scan"]


def _analysis_of(ctx: RuleContext) -> Optional[StaticSpaceAnalysis]:
    if "dataflow.analysis" not in ctx.cache:
        analysis = None
        if ctx.space is not None:
            analysis = StaticSpaceAnalysis(
                _module(ctx), ctx.space, scan=_scan_of(ctx)
            )
        ctx.cache["dataflow.analysis"] = analysis
    return ctx.cache["dataflow.analysis"]


@rule(
    "D001",
    "dead-parameter",
    Severity.WARNING,
    Stage.DATAFLOW,
    "A free integer parameter flows into no port range, generate "
    "condition, child generic, or body expression — a DSE dimension over "
    "it only wastes exploration budget.",
)
def check_dead_parameter(ctx: RuleContext) -> Iterator[Violation]:
    module = _module(ctx)
    if _has_architectural_model(module):
        return  # the model consumes parameters the RTL scan cannot see
    scan = _scan_of(ctx)
    if scan is None:
        return  # without a body scan, liveness cannot be decided
    graph = ParameterDependencyGraph(module=module, scan=scan)
    for name in graph.dead_parameters():
        param = module.parameter(name)
        yield Violation(
            f"parameter {name!r} is dead: it reaches no port range, "
            "generate condition, child generic, or body expression",
            module=module.name,
            line=param.line,
        )


@rule(
    "D002",
    "statically-infeasible-subrange",
    Severity.WARNING,
    Stage.DATAFLOW,
    "Interval analysis proves a contiguous subrange of a DSE dimension "
    "can never elaborate (null port range, $clog2 domain error, subtype "
    "violation); every point there would be rejected by the gate.",
)
def check_statically_infeasible_subrange(ctx: RuleContext) -> Iterator[Violation]:
    analysis = _analysis_of(ctx)
    if analysis is None or not analysis.applicable:
        return
    analysis.run()
    if analysis.always_reasons:
        return  # D004 reports the space-wide case
    empty = set(analysis.fully_infeasible_dims())
    for dim in ctx.space:
        if dim.name in empty:
            continue  # D004 reports fully-empty dimensions
        for lo, hi, reason in analysis.infeasible_runs(dim.name):
            span = str(lo) if lo == hi else f"{lo}..{hi}"
            yield Violation(
                f"dimension {dim.name!r} values {span} are statically "
                f"infeasible: {reason}",
                module=_module(ctx).name,
            )


@rule(
    "D003",
    "degenerate-generate-arm",
    Severity.WARNING,
    Stage.DATAFLOW,
    "A conditional-generate guard is false over the entire declared "
    "space: the guarded hardware can never be instantiated by any DSE "
    "point.",
)
def check_degenerate_generate_arm(ctx: RuleContext) -> Iterator[Violation]:
    scan = _scan_of(ctx)
    if scan is None or not scan.generate_conditions:
        return
    analysis = _analysis_of(ctx)
    if analysis is not None and analysis.applicable:
        env = analysis.box_env()
    else:
        env = {
            name: AbstractInt.exact(value)
            for name, value in _module(ctx).default_environment().items()
        }
    for cond in scan.generate_conditions:
        result = evaluate_abstract(cond.condition, env)
        if result.interval is not None and result.interval.definitely_zero():
            yield Violation(
                f"generate condition '{cond.condition.render()}' is false "
                "over the entire declared space; the guarded block is "
                "never instantiated",
                module=_module(ctx).name,
                line=cond.line,
            )


@rule(
    "D004",
    "statically-empty-dimension",
    Severity.ERROR,
    Stage.DATAFLOW,
    "Every value of a DSE dimension (or every point of the whole space) "
    "is statically infeasible — the exploration cannot produce a single "
    "feasible point.",
)
def check_statically_empty_dimension(ctx: RuleContext) -> Iterator[Violation]:
    analysis = _analysis_of(ctx)
    if analysis is None or not analysis.applicable:
        return
    analysis.run()
    if analysis.always_reasons:
        yield Violation(
            "every point of the declared space is statically infeasible: "
            + "; ".join(analysis.always_reasons),
            module=_module(ctx).name,
        )
        return
    for name in analysis.fully_infeasible_dims():
        mask = analysis.mask_of(name)
        reason = next(iter(mask.values()), "")
        yield Violation(
            f"dimension {name!r}: every declared value is statically "
            f"infeasible ({reason})",
            module=_module(ctx).name,
        )
