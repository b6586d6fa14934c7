import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbsim import Params, Word, parse_word
from arbsim.signals import WordParseError


class TestParseWord:
    def test_four_bit_address_literal(self):
        assert parse_word("1010", 4) == Word(4, 0b1010)

    def test_zero_word(self):
        assert parse_word("0000", 4) == Word(4, 0)

    def test_eight_bit_data_literal(self):
        assert parse_word("10100011", 8) == Word(8, 0b10100011)

    def test_length_mismatch_reports_sizes(self):
        with pytest.raises(WordParseError, match="expected 4 binary digits, got 3"):
            parse_word("101", 4)

    def test_illegal_character_names_position(self):
        with pytest.raises(WordParseError, match="position 2"):
            parse_word("10x0", 4)


class TestWordToIndex:
    @pytest.mark.parametrize(
        "text,expected",
        [("1101", 13), ("0000", 0), ("1111", 15)],
    )
    def test_examples(self, text, expected):
        assert parse_word(text, 4).value == expected


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 9):
        for value in range(1 << width):
            w = Word(width, value)
            assert parse_word(w.render(), width) == w


def test_index_is_bijection_small_widths():
    for width in range(1, 9):
        indexes = {Word(width, v).value for v in range(1 << width)}
        assert indexes == set(range(1 << width))


@given(st.integers(min_value=1, max_value=64), st.data())
def test_round_trip_random(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    w = Word(width, value)
    assert parse_word(w.render(), width) == w
    assert len(w.render()) == width


def test_word_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        Word(4, 16)
    with pytest.raises(ValueError):
        Word(4, -1)
    with pytest.raises(ValueError):
        Word(0, 0)


class TestParams:
    def test_ram_depth(self):
        assert Params(4, 8).ram_depth() == 16
        assert Params(2, 4).ram_depth() == 4
        assert Params(6, 8).ram_depth() == 64

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            Params(0, 8)
        with pytest.raises(ValueError):
            Params(4, 0)
