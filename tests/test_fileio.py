"""Code-file and lambda-string parsing round trips."""

from __future__ import annotations

import pytest

from loopforge.charvec import CharVector
from loopforge.errors import ParseError
from loopforge.fileio import (
    format_code,
    format_lambda,
    parse_code_text,
    parse_lambda,
)
from loopforge.gf2 import CodeBasis


def test_code_round_trip():
    basis = CodeBasis.from_positions(7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
    text = format_code(basis)
    assert text.splitlines()[0] == "m=7 n=3"
    assert parse_code_text(text) == basis
    assert parse_code_text(text.replace("m=7 n=3", "n=3 m=7")) == basis


def test_code_bitstring_form():
    text = "m=7 n=3\nb:1111000\n1,2,5,6\nb:1010101\n"
    basis = parse_code_text(text)
    assert basis.generators[0].positions == (1, 2, 3, 4)
    assert basis.generators[2].positions == (1, 3, 5, 7)


def test_code_parse_errors():
    with pytest.raises(ParseError):
        parse_code_text("")
    with pytest.raises(ParseError):
        parse_code_text("m=7\n1,2,3,4\n")
    with pytest.raises(ParseError):
        parse_code_text("m=7 n=2\n1,2,3,4\n")  # generator count mismatch
    with pytest.raises(ParseError):
        parse_code_text("m=7 n=1\nb:11110\n")  # bitstring length mismatch
    with pytest.raises(ParseError):
        parse_code_text("m=7 n=1\n1,2,9\n")  # position out of range
    with pytest.raises(ParseError, match="bad generator line '1,3,5,7,7': position 7 repeated"):
        parse_code_text("m=7 n=3\n1,2,3,4\n1,2,5,6\n1,3,5,7,7\n")
    for header in ("m=7 n=3 k=2", "m=7 m=9 n=3"):  # a field too many, or one twice
        with pytest.raises(ParseError, match="expected 'm=<int> n=<int>'"):
            parse_code_text(f"{header}\n1,2,3,4\n1,2,5,6\n1,3,5,7\n")


def test_lambda_shorthand_parsing():
    cv = parse_lambda("111000")
    assert cv.rank == 3 and cv.shorthand() == "111000"
    cv = parse_lambda("0001111100")
    assert cv.rank == 4 and cv.shorthand() == "0001111100"
    with pytest.raises(ParseError):
        parse_lambda("11100")
    with pytest.raises(ParseError):
        parse_lambda("11100x")


def test_lambda_full_form():
    cv = parse_lambda("full:1110001")
    assert cv.rank == 3
    assert cv.sigma == (1, 1, 1) and cv.beta == (0, 0, 0) and cv.alpha == (1,)
    skew = CharVector(4, (0,) * 4, (0,) * 6, (0, 1, 0, 0))
    assert parse_lambda(format_lambda(skew)) == skew
    with pytest.raises(ParseError):
        parse_lambda("full:111")


def test_format_lambda_prefers_shorthand():
    cv = CharVector.from_shorthand(3, "100000")
    assert format_lambda(cv) == "100000"
    cv = CharVector.from_shorthand(4, "0001111100")
    assert format_lambda(cv) == "0001111100"
