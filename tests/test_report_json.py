"""``report_json`` writes what ``json.dumps(value, sort_keys=True, indent=2)``
writes, byte for byte, and refuses what it would coerce; ``json.dumps`` is
the oracle, on random nested values, every pinned report and every audit
record."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_report_digests import INPUTS

from kummer.pipeline import (
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
    | st.floats(allow_nan=False, allow_infinity=False)
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


@pytest.mark.parametrize("key,case,fault", INPUTS, ids=[key for key, _, _ in INPUTS])
def test_pinned_reports_match_json_dumps(key, case, fault):
    report = run_case(case, force_fail=fault)
    assert report.to_json() == oracle(report.to_dict())


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
        ({"a": [math.nan]}, ValueError),
        (math.inf, ValueError),
        (-math.inf, ValueError),
    ],
    ids=repr,
)
def test_refuses_what_json_dumps_would_coerce(value, error):
    with pytest.raises(error):
        report_json(value)
