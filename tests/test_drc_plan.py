"""One point plan per checker: reuse never changes a finding.

``DesignRuleChecker`` keeps a :class:`~repro.analysis.plan.PointPlan` per
module and memoizes the boxing findings per (boxed, clock port, every
override free).  ``tests/test_drc_oracle.py`` builds a fresh checker per
call, so it never sees a plan reused.  Here one checker — and one
``PreflightGate`` — checks a drawn *sequence* of bindings of one module,
and every answer must equal the frozen reference
(``tests/_reference_drc.py``), ``==`` and in order.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.boxing
from repro.analysis import DesignRuleChecker, RuleConfig, Severity
from repro.analysis.gate import PreflightGate, freeze_params
from repro.analysis.plan import PointPlan
from repro.hdl.frontend import parse_source
from tests import _reference_drc as ref
from tests.test_drc_oracle import POINT_CODES, Case, cases

#: Verilog names are case-sensitive, but the DRC folds them: here ``L``
#: and ``l`` fold to one key, and ``M``'s default reads whichever of them
#: comes later in the environment.
COLLIDING = """module cc #(localparam L = 3, parameter l = 1, parameter W = 4,
  localparam M = L + W) (input logic clk, input logic [M-1:0] a,
  output logic [l:0] b);
endmodule
"""


@lru_cache(maxsize=None)
def plan_cases() -> tuple:
    (module,) = parse_source(COLLIDING, "systemverilog")
    values = {p.name: [0, 1, 2, 3, 8] for p in module.free_parameters()}
    return cases() + (Case("colliding:cc", module, None, values),)


@st.composite
def steps(draw, case):
    """One check: a binding, a clock port, boxed or not, space or not."""
    module = case.module
    params: dict = {}
    for param in module.free_parameters():
        if not draw(st.booleans()):
            continue
        in_space = case.values.get(param.name) or [1]
        value = draw(
            st.one_of(
                st.sampled_from(in_space),
                st.sampled_from([max(in_space) * 2 + 1, min(in_space) - 1]),
                st.integers(-4, 2),
            )
        )
        name = param.name
        if draw(st.integers(0, 4)) == 0:
            name = name.lower() if name != name.lower() else name.upper()
        params[name] = value
    # A non-free name makes the box unbuildable, so B002-B004 go quiet.
    extra = draw(st.sampled_from(["", "", "unknown", "local"]))
    if extra == "unknown":
        params["GHOST_PARAM"] = draw(st.integers(-2, 64))
    elif extra == "local":
        local = [p.name for p in module.parameters if p.local]
        if local:
            params[draw(st.sampled_from(local))] = draw(st.integers(-2, 64))
    clocks = [p.name for p in module.clock_ports()]
    clock_port = draw(
        st.sampled_from([None, "nope"] + clocks + [c.upper() for c in clocks])
    )
    space = case.space if draw(st.booleans()) else None
    return params, clock_port, draw(st.booleans()), space


@st.composite
def sequences(draw):
    case = draw(st.sampled_from(plan_cases()))
    seq = draw(st.lists(steps(case), min_size=2, max_size=8))
    disabled = draw(st.sets(st.sampled_from(POINT_CODES), max_size=3))
    overrides = draw(
        st.dictionaries(
            st.sampled_from(POINT_CODES),
            st.sampled_from([Severity.WARNING, Severity.ERROR]),
            max_size=3,
        )
    )
    config = RuleConfig(disabled=frozenset(disabled), severity_overrides=overrides)
    # A baseline drawn from the sequence's own findings suppresses some.
    found = sorted(
        {
            f
            for params, clock, boxed, space in seq
            for f in ref.reference_check_point(
                case.module, params, space=space, boxed=boxed,
                clock_port=clock, config=config,
            )
        },
        key=repr,
    )
    if found and draw(st.booleans()):
        kept = draw(st.sets(st.sampled_from(found), min_size=1))
        config = RuleConfig(
            disabled=config.disabled,
            severity_overrides=config.severity_overrides,
            baseline=frozenset(f.fingerprint() for f in kept),
        )
    return case, seq, config


def _box_key(module, params, boxed, clock):
    free = {p.name.lower() for p in module.free_parameters()}
    return boxed, clock, all(name.lower() in free for name in params)


@given(drawn=sequences())
@settings(max_examples=250, deadline=None)
def test_one_checker_over_a_sequence_matches_the_reference(drawn):
    case, seq, config = drawn
    module = case.module
    checker = DesignRuleChecker(config)
    keys = set()
    with mock.patch.object(repro.boxing, "build_box", wraps=repro.boxing.build_box) as spy:
        for params, clock, boxed, space in seq:
            got = checker.check_point(
                module, params, space=space, boxed=boxed, clock_port=clock
            )
            want = ref.reference_check_point(
                module, params, space=space, boxed=boxed, clock_port=clock,
                config=config,
            )
            assert tuple(got) == want
            keys.add(_box_key(module, params, boxed, clock))
    # The box is built at most once per key, never once per point.
    assert spy.call_count <= sum(1 for boxed, _, _ in keys if boxed)


@given(drawn=sequences())
@settings(max_examples=150, deadline=None)
def test_one_gate_over_a_sequence_matches_the_reference(drawn):
    case, seq, config = drawn
    module = case.module
    _, clock, boxed, space = seq[0]
    gate = PreflightGate(
        module, space=space, boxed=boxed, clock_port=clock, config=config
    )
    static = gate._static_analysis()
    verdicts: dict = {}
    for params, _, _, _ in seq:
        key = freeze_params(params)
        if key not in verdicts:
            proof = static.reject_findings(params) if static is not None else None
            if proof is not None:
                verdicts[key] = proof
            else:
                verdicts[key] = tuple(
                    f
                    # The space feeds the interval layer, never a verdict.
                    for f in ref.reference_check_point(
                        module, params, space=None, boxed=boxed,
                        clock_port=clock, config=config,
                    )
                    if f.severity is Severity.ERROR
                )
        assert gate.errors(params) == verdicts[key]
    assert gate.stats()["drc_checks"] == len(verdicts)


def test_case_colliding_names_resolve_like_the_reference():
    case = plan_cases()[-1]
    checker = DesignRuleChecker()
    for params in ({}, {"l": 7}, {"W": 2, "l": 0}, {"l": 5, "W": 9}, {"L": 1}):
        got = checker.check_point(case.module, params)
        assert tuple(got) == ref.reference_check_point(case.module, params)
        assert ref.reference_resolve_point_environment(case.module, params) == (
            PointPlan(case.module).environment(params)
        )


def test_buildability_flips_back_and_forth_on_one_checker():
    """Free and non-free names interleaved: each key's boxing findings
    are computed once and reused in order."""
    case = next(c for c in cases() if c.name == "synthetic:odd")
    module = case.module
    free = module.free_parameters()[0].name
    local = next(p.name for p in module.parameters if p.local)
    seq = [
        ({free: 4}, None),
        ({free: 4, "GHOST": 1}, None),
        ({free: 8}, None),
        ({local: 2}, None),
        ({free.lower(): 2}, "nope"),
        ({free: 16}, None),
        ({}, "CLK"),
    ]
    checker = DesignRuleChecker()
    with mock.patch.object(repro.boxing, "build_box", wraps=repro.boxing.build_box) as spy:
        for params, clock in seq:
            got = checker.check_point(module, params, boxed=True, clock_port=clock)
            assert tuple(got) == ref.reference_check_point(
                module, params, boxed=True, clock_port=clock
            )
    # Keys: (None, free), (None, not free), ("nope", free), ("CLK", free).
    assert spy.call_count == 4
