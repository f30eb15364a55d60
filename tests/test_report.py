import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duke.report import Report, fmt_float
from conftest import parse_report


def build_sample():
    rep = Report()
    rep.add("config", "k", 8)
    rep.add("config", "lambda", 1.0)
    rep.add("config", "metric", "euclidean")
    rep.add("solution", "indices", [0, 4, 1, 2])
    rep.add("solution", "objective", 6.0)
    rep.add("solution", "approx", True)
    return rep


def test_round_trip_byte_exact():
    rep = build_sample()
    text = rep.to_text()
    again = parse_report(text)
    assert again.to_text() == text


def test_section_structure():
    rep = build_sample()
    text = rep.to_text()
    assert "[config]" in text
    assert "[solution]" in text
    assert "indices = 0,4,1,2" in text
    assert "approx = true" in text
    assert parse_report(text).get("config", "k") == "8"


def test_float_formatting():
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1.0 / 3.0) == "0.333333333"
    # nine significant digits survive the round trip for reporting use
    assert float(fmt_float(6.0)) == 6.0


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_report("[section]\nthis line has no equals sign\n")
    with pytest.raises(ValueError):
        parse_report("key = before any section\n")


@given(st.lists(
    st.tuples(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    min_size=1, max_size=10,
))
@settings(max_examples=60, deadline=None)
def test_round_trip_arbitrary_keys(pairs):
    rep = Report()
    for name, value in pairs:
        rep.add("s", name, float(value))
    text = rep.to_text()
    assert parse_report(text).to_text() == text
