"""``io.parse_value`` against ``fractions.Fraction``: its plain-string fast
path must give the value ``Fraction(str)`` gives, or fail where it fails;
exponents beyond ±4300 are refused before ``Fraction`` sees them."""
from __future__ import annotations

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgames.cli import main
from latgames.io import load_path, parse_value
from latgames.errors import ParseError

DIGITS = st.text("0123456789", min_size=1, max_size=30)
OTHER_DIGITS = st.text("٠١٢٣٤٥٦٧٨٩０１２３४५", min_size=1, max_size=6)  # Arabic-Indic, fullwidth, Devanagari
SIGN = st.sampled_from(["", "-", "+", "--", "−"])
SPACE = st.sampled_from(["", " ", "\t", "\n", " 　"])


@st.composite
def rational_strings(draw):
    """Signed digit strings, optionally over a signed denominator, with
    stray spaces, decimal points and exponents mixed in."""
    numerator = draw(SIGN) + draw(st.one_of(DIGITS, OTHER_DIGITS))
    tail = draw(st.sampled_from(["", "/", ".", "e", "E", "_"]))
    if tail:
        tail += draw(SIGN) + draw(st.one_of(DIGITS, OTHER_DIGITS, st.just("")))
    return draw(SPACE) + numerator + tail + draw(SPACE)


def _small_exponent(raw) -> bool:
    """Fraction("1e999999999") builds 10**999999999; keep exponents short."""
    return not re.search(r"[eE][+-]?\d{4}", raw)


LONG = st.builds(lambda n, d, slash: "9" * n + ("/" + "7" * d if slash else ""),
                 st.integers(4290, 4310), st.integers(1, 4310), st.booleans())


def _fraction_or_error(raw):
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        return ParseError


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.one_of(rational_strings(), LONG, st.text(max_size=12)).filter(_small_exponent))
@example("+3")
@example("-0")
@example("007/010")
@example(" 3 ")
@example("1.5")
@example("1e3")
@example("3/-4")
@example("1/0")
@example("0/0")
@example("-12/0008")
@example("٣/٤")
@example("1" * 4300)
@example("1" * 4301)
@example("1/" + "3" * 4301)
def test_parse_value_agrees_with_fraction(raw):
    want = _fraction_or_error(raw)
    if want is ParseError:
        with pytest.raises(ParseError):
            parse_value(raw)
    else:
        got = parse_value(raw)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("raw", [True, False, 1.5, None, [1], {"p": 1}])
def test_non_strings_other_than_int_are_rejected(raw):
    with pytest.raises(ParseError):
        parse_value(raw)


def _write_function(tmp_path, raw):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"domain": {"elements": ["0", "1"], "covers": [["0", "1"]]},
                                "codomain": {"kind": "rational"},
                                "table": [{"element": "0", "value": raw},
                                          {"element": "1", "value": "0"}]}))
    return path


@pytest.mark.parametrize("raw, exponent", [("1e999999999", "999999999"),
                                           ("1e-999999999", "-999999999"),
                                           ("1e4301", "4301")])
def test_exponents_beyond_the_cap_exit_two_quickly(tmp_path, capsys, raw, exponent):
    # Fraction(raw) would build 10**999999999 (about 415 MB) for minutes.
    path = _write_function(tmp_path, raw)
    start = time.perf_counter()
    assert main(["check-function", str(path)]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out == (
        f"ERROR ParseError: exponent {exponent} of {raw!r} exceeds the cap of ±4300\n")


@pytest.mark.parametrize("raw", ["1e4300", "1.5e3", "-2E-3"])
def test_exponents_within_the_cap_read_as_fraction(tmp_path, capsys, raw):
    path = _write_function(tmp_path, raw)
    assert main(["check-function", str(path)]) == 0
    assert capsys.readouterr().out == "PROPERTY quasisupermodular PASS\n"
    assert load_path(path)[1].value("0") == Fraction(raw)
