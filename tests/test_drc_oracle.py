"""Differential test: the wiring-data DRC point check against the frozen one.

``tests/_reference_drc.py`` is the point check the wiring-data gate
replaced: environments rebuilt per call, every port bound evaluated by
P001 and again by P002, and B002–B004 searching the rendered wrapper
text.  On every module and binding the two must return the same findings,
``==`` and in order, and ``build_box(...).source`` must equal the old
renderer's text byte for byte (or both must raise the same error).  The
rendered text must also satisfy the old text checks, and agree with the
wiring it was rendered from.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import DesignRuleChecker, RuleConfig, RuleContext, Severity, get_rule
from repro.analysis.checker import boundary_points
from repro.boxing import build_box
from repro.core.spaces import ParameterSpace
from repro.designs import all_designs
from repro.hdl.ast import HdlLanguage
from repro.hdl.frontend import detect_language, parse_source
from tests import _reference_drc as ref

ROOT = Path(__file__).resolve().parent.parent
POINT_CODES = tuple(code for code, _ in ref.RULES)
BOX_CODES = ("B002", "B003", "B004")

#: Small modules that reach what the bundled ones do not: a division and
#: a no-default parameter in port widths (P002), an ascending Verilog
#: range, a localparam, natural/positive/boolean generics, a clock found
#: by substring, and no clock at all.
SYNTHETIC = (
    ("""module odd #(parameter N = 4, parameter D = 2, parameter W,
  localparam L = $clog2(N)) (
  input logic clk, input logic [N/D-1:0] a, output logic [L:0] b,
  input logic [0:N-1] asc, output logic [W-1:0] c);
endmodule
""", "systemverilog"),
    ("""library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity odd_v is
  generic (N : natural := 4; P : positive := 2; EN : boolean := true; W : integer);
  port (tick_clock : in std_logic;
        a : in std_logic_vector(N/P-1 downto 0);
        b : out std_logic_vector(0 to N-1);
        c : out std_logic_vector(W-1 downto 0));
end odd_v;
""", "vhdl"),
    ("module noclk #(parameter N = 2) (input logic [N-1:0] a); endmodule\n",
     "systemverilog"),
)


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    module: object
    space: object  # ParameterSpace or None
    values: dict  # free parameter -> in-space (or plausible) values


@lru_cache(maxsize=None)
def cases() -> tuple[Case, ...]:
    """Every bundled design, every module under ``examples/`` and the
    synthetic modules."""
    out = []
    for name, gen in sorted(all_designs().items()):
        values = {p.name: p.values() for p in gen.params}
        out.append(Case(name, gen.module(), ParameterSpace.from_design(gen), values))
    sources = [
        (path.name, path.read_text(encoding="utf-8"), detect_language(path))
        for path in sorted((ROOT / "examples").rglob("*"))
        if path.suffix in (".v", ".sv", ".vhd")
    ]
    sources += [("synthetic", text, language) for text, language in SYNTHETIC]
    for label, text, language in sources:
        for module in parse_source(text, language):
            env = module.default_environment()
            values = {
                p.name: sorted({env.get(p.name, 1), 0, 1, 2, 3, 4, 7, 8, 16, 64})
                for p in module.free_parameters()
            }
            out.append(Case(f"{label}:{module.name}", module, None, values))
    return tuple(out)


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return ("raise", f"{type(exc).__name__}: {exc}")


def check_binding(case: Case, params, space, boxed, clock_port, config=None) -> None:
    module = case.module
    new = DesignRuleChecker(config).check_point(
        module, params, space=space, boxed=boxed, clock_port=clock_port
    )
    old = ref.reference_check_point(
        module, params, space=space, boxed=boxed, clock_port=clock_port, config=config
    )
    assert tuple(new) == old

    got = _outcome(build_box, module, params, clock_port=clock_port, box_name="box_t")
    want = _outcome(ref.reference_box_source, module, params, clock_port, "box_t")
    if want[0] == "raise":
        assert got == want
        return
    assert got[0] == "ok", got
    box = got[1]
    assert (box.source, box.clock_port) == want[1]
    assert_text_matches_wiring(module, box)


def assert_text_matches_wiring(module, box) -> None:
    """The old text checks pass, and the text holds exactly the wiring."""
    source = box.source
    assert ref.text_box_findings(module, source, box.clock_port) == []
    for name, net in box.connections:
        assert ref._wired(source, module.language, name, net), (name, net)
    lines = set(source.splitlines())
    for name, value in box.generics:
        if module.language == HdlLanguage.VHDL:
            line = f"      {name} => {value}"
        else:
            line = f"    .{name}({value})"
        assert line in lines or f"{line}," in lines, line
    assert ("dont_touch" in source.lower()) == box.dont_touch


# ----------------------------------------------------------------------
# deterministic sweep: every case at its boundary points, both ways


@pytest.mark.parametrize("case", cases(), ids=lambda c: c.name)
def test_every_module_at_its_boundary_points(case):
    if case.space is not None:
        points = boundary_points(case.space)
    else:
        points = [{}] + [{name: vals[-1]} for name, vals in case.values.items()]
    for params in points:
        for boxed in (True, False):
            check_binding(case, params, case.space, boxed, None)


def test_cases_cover_both_box_languages():
    languages = {c.module.language for c in cases()}
    assert HdlLanguage.VHDL in languages
    assert languages - {HdlLanguage.VHDL}
    assert {c.name for c in cases()} >= set(all_designs())
    assert any(c.name.startswith("mac_array.sv") for c in cases())


# ----------------------------------------------------------------------
# hypothesis: odd overrides, clock ports, configs


@st.composite
def bindings(draw):
    case = draw(st.sampled_from(cases()))
    module = case.module
    params: dict = {}
    for param in module.free_parameters():
        if not draw(st.booleans()):
            continue
        in_space = case.values.get(param.name) or [1]
        value = draw(
            st.one_of(
                st.sampled_from(in_space),                      # in space
                st.sampled_from([max(in_space) * 2 + 1, min(in_space) - 1]),  # out of space
                st.integers(-8, -1),                            # negative
                st.booleans(),                                  # boolean values
                st.integers(0, 2),                              # 0/1 domain and just past
            )
        )
        name = param.name
        if draw(st.integers(0, 9)) == 0:
            name = name.lower() if name != name.lower() else name.upper()
        params[name] = value
    extra = draw(st.sampled_from(["", "unknown", "local"]))
    if extra == "unknown":
        params["GHOST_PARAM"] = draw(st.integers(-2, 64))
    elif extra == "local":
        local = [p.name for p in module.parameters if p.local]
        if local:
            params[draw(st.sampled_from(local))] = draw(st.integers(-2, 64))
    clocks = [p.name for p in module.clock_ports()]
    clock_choices = [None, "nope"] + clocks + [c.upper() for c in clocks]
    clock_choices += [p.name for p in module.ports[:3]]
    clock_port = draw(st.sampled_from(clock_choices))
    space = case.space if draw(st.booleans()) else None
    boxed = draw(st.booleans())
    return case, params, space, boxed, clock_port


configs = st.builds(
    lambda disabled, overrides: RuleConfig(
        disabled=frozenset(disabled), severity_overrides=overrides
    ),
    st.sets(st.sampled_from(POINT_CODES), max_size=4),
    st.dictionaries(
        st.sampled_from(POINT_CODES),
        st.sampled_from([Severity.WARNING, Severity.ERROR]),
        max_size=4,
    ),
)


@given(binding=bindings(), config=st.one_of(st.none(), configs), data=st.data())
@settings(max_examples=400, deadline=None)
def test_findings_and_box_text_match_the_reference(binding, config, data):
    case, params, space, boxed, clock_port = binding
    check_binding(case, params, space, boxed, clock_port, config)
    # A baseline drawn from the findings themselves suppresses a subset.
    found = ref.reference_check_point(
        case.module, params, space=space, boxed=boxed, clock_port=clock_port, config=config
    )
    if found:
        kept = data.draw(st.sets(st.sampled_from(found), min_size=1))
        baseline = RuleConfig(
            disabled=config.disabled if config else frozenset(),
            severity_overrides=config.severity_overrides if config else {},
            baseline=frozenset(f.fingerprint() for f in kept),
        )
        check_binding(case, params, space, boxed, clock_port, baseline)


# ----------------------------------------------------------------------
# corrupt wiring: the data rules find each defect the text checks find


def _data_box_findings(module, box):
    out = []
    for code in BOX_CODES:
        ctx = RuleContext(module=module, params={}, boxed=True)
        ctx.cache["box"] = box
        out += [(code, (v.message, v.module, v.line)) for v in get_rule(code).check(ctx)]
    return out


@st.composite
def corrupt_boxes(draw):
    """A real box with one defect, and the (code, message) it must raise."""
    case = draw(st.sampled_from([c for c in cases() if c.module.clock_ports()]))
    box = build_box(case.module, {})
    kinds = ["dont_touch", "clock"]
    kinds += ["port"] if len(box.connections) > 1 else []
    kinds += ["generic"] if box.generics else []
    kind = draw(st.sampled_from(kinds))
    if kind == "port":
        drop = draw(st.integers(1, len(box.connections) - 1))
        name = box.connections[drop][0]
        box = dataclasses.replace(
            box, connections=box.connections[:drop] + box.connections[drop + 1:]
        )
        expected = ("B002", f"box wrapper does not wire port {name!r}")
    elif kind == "generic":
        drop = draw(st.integers(0, len(box.generics) - 1))
        name = box.generics[drop][0]
        box = dataclasses.replace(
            box, generics=box.generics[:drop] + box.generics[drop + 1:]
        )
        expected = ("B002", f"box wrapper does not specialize generic {name!r}")
    elif kind == "dont_touch":
        box = dataclasses.replace(box, dont_touch=False)
        expected = ("B003", "box wrapper lacks the DONT_TOUCH attribute on the boxed instance")
    else:
        tie = "'0'" if case.module.language == HdlLanguage.VHDL else "1'b0"
        box = dataclasses.replace(
            box, connections=((box.clock_port, tie),) + box.connections[1:]
        )
        expected = (
            "B004", f"clock port {box.clock_port!r} is not connected to the box clock pin"
        )
    return case.module, box, expected


@given(corrupt=corrupt_boxes())
@settings(max_examples=100, deadline=None)
def test_corrupt_wiring_is_found(corrupt):
    """Exactly the one defect is found.  The old text search finds no more
    (it can find less: ``EN => true`` hides a missing ``N =>``)."""
    module, box, expected = corrupt
    found = _data_box_findings(module, box)
    assert [(code, message) for code, (message, _, _) in found] == [expected]
    text_found = ref.text_box_findings(module, box.source, box.clock_port)
    assert all(f in found for f in text_found)
