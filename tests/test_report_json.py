"""``report_json`` writes what ``json.dumps(value, sort_keys=True, indent=2)``
writes, byte for byte, and refuses what it would coerce; ``json.dumps`` is
the oracle, on random nested values, every pinned report and every audit
record."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import unmemoized_report
from test_report_digests import INPUTS, PINNED, pinned_report

from conftest import clear_pipeline_memo
from kummer.pipeline import (
    Fragment,
    _fragment,
    audit_example_1_odd,
    audit_example_2_goursat,
    audit_example_3_desk,
    report_json,
    run_case,
)


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert report_json(value) == oracle(value)


@pytest.mark.parametrize("key,case,fault", PINNED, ids=[key for key, _, _ in PINNED])
def test_pinned_reports_match_json_dumps(key, case, fault):
    report = pinned_report(case, fault)
    assert report is None or report.to_json() == oracle(report.to_dict())


@pytest.mark.parametrize(
    "name,audit",
    [
        ("example1", lambda: audit_example_1_odd(3)),
        ("example2", audit_example_2_goursat),
        ("example3", audit_example_3_desk),
    ],
)
def test_audit_records_match_json_dumps(name, audit):
    value = {"audit": name, "record": audit()}
    assert report_json(value) == oracle(value)


@pytest.mark.parametrize(
    "value,error",
    [
        ({1: "a"}, TypeError),
        ({True: "a"}, TypeError),
        ({None: 0}, TypeError),
        ({("a",): 0}, TypeError),
        ({"a": {2.5: 0}}, TypeError),
        ([{1, 2}], TypeError),
        ({"a": b"bytes"}, TypeError),
        # repr(object()) holds a memory address; a fixed id keeps the name stable
        pytest.param([object()], TypeError, id="[object()]-<class 'TypeError'>"),
        # no report holds a float, so the encoder refuses every one
        ({"a": [math.nan]}, TypeError),
        (math.inf, TypeError),
        (-math.inf, TypeError),
        (1.5, TypeError),
    ],
    ids=repr,
)
def test_refuses_what_json_dumps_would_coerce(value, error):
    with pytest.raises(error):
        report_json(value)


# ---------------------------------------------------------------------------
# fragments: a value encoded once at depth 0 and embedded at any depth


TRICKY = st.sampled_from(
    ["a\nb", "\n", " ", "  \n  ", "caf\u00e9", "\u4e2d\n\u00e9", "\u2028", "\t\r"]
)
EMBEDDED = st.recursive(
    SCALARS | TRICKY,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | TRICKY, inner, max_size=4),
    max_leaves=20,
)
# each wrapper puts the value under a key of a dict, or at a position of a
# list, next to other values
WRAPPERS = st.lists(
    st.tuples(
        st.just("dict"),
        st.text(max_size=6) | TRICKY,
        st.dictionaries(st.text(max_size=6), VALUES, max_size=3),
    )
    | st.tuples(st.just("list"), st.integers(0, 3), st.lists(VALUES, max_size=3)),
    max_size=5,
)


def wrap(value, wrappers):
    for kind, at, others in wrappers:
        value = {**others, at: value} if kind == "dict" else [*others[:at], value, *others[at:]]
    return value


@settings(max_examples=400, deadline=None)
@given(EMBEDDED, WRAPPERS, WRAPPERS)
def test_a_fragment_embeds_at_any_depth(value, outer, inner):
    fragment = _fragment(value)
    assert type(fragment) is Fragment and fragment + "\n" == oracle(value)
    assert report_json(wrap(fragment, outer)) == oracle(wrap(value, outer))
    # a fragment inside a fragment, as the stage details sit in the audit
    nested = _fragment(wrap(fragment, inner))
    assert report_json(wrap(nested, outer)) == oracle(wrap(wrap(value, inner), outer))


REFUSED = [
    ({1: "a"}, TypeError),
    ({True: "a"}, TypeError),
    ({None: 0}, TypeError),
    ({("a",): 0}, TypeError),
    ({"a": {2.5: 0}}, TypeError),
    ([{1, 2}], TypeError),
    ({"a": b"bytes"}, TypeError),
    ([object()], TypeError),
    ({"a": [math.nan]}, TypeError),
    (math.inf, TypeError),
    (-math.inf, TypeError),
    (1.5, TypeError),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REFUSED), WRAPPERS)
def test_refusals_hold_at_any_depth_and_in_a_fragment(refused, wrappers):
    value, error = refused
    with pytest.raises(error):
        report_json(wrap(value, wrappers))
    with pytest.raises(error):
        _fragment(wrap(value, wrappers))


def test_assembled_reports_match_the_unmemoized_report():
    # stands in for test_pinned_reports_match_json_dumps, whose dict is now
    # decoded from the report's own text: the oracle's dict is built from
    # the stage functions with no memo.  Cold (memos cleared before each
    # input), then warm in one process, forward and then reversed
    expected = {key: report_json(unmemoized_report(case, fault)) for key, case, fault in INPUTS}
    for key, case, fault in INPUTS:
        clear_pipeline_memo()
        assert run_case(case, force_fail=fault).to_json() == expected[key], key
    clear_pipeline_memo()
    for key, case, fault in INPUTS + INPUTS[::-1]:
        assert run_case(case, force_fail=fault).to_json() == expected[key], key
