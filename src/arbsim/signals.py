"""Bit-exact words, logic levels, and the shared width configuration.

Logic is strictly two-valued: a level is a plain ``bool`` (``HIGH``/``LOW``).
Inside the kernel a bus value is a plain ``int`` of its :class:`Params` width.
A :class:`Word`, the scenario-text form of a bus value, is an immutable
fixed-width word that renders to and parses from a binary string ("1010").
"""

from __future__ import annotations

from dataclasses import dataclass

Level = bool
HIGH: Level = True
LOW: Level = False


class WordParseError(ValueError):
    """Raised when a binary-string literal cannot become a Word."""


@dataclass(frozen=True, slots=True)
class Word:
    """Fixed-width unsigned bus value, most-significant bit first."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"word width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value} out of range for width {self.width}"
            )

    def render(self) -> str:
        return format(self.value, f"0{self.width}b")


def parse_word(text: str, width: int) -> Word:
    """Parse a binary string of exactly ``width`` characters from {0,1}.

    Errors name the offending position (0-based) or the length mismatch.
    """
    if len(text) != width:
        raise WordParseError(
            f"expected {width} binary digits, got {len(text)}: {text!r}"
        )
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise WordParseError(
                f"illegal character {ch!r} at position {pos} in {text!r}"
            )
    return Word(width, int(text, 2))


@dataclass(frozen=True, slots=True)
class Params:
    """Bus widths and the output-register option shared by all blocks."""

    addr_width: int
    data_width: int
    registered_output: bool = False

    def __post_init__(self) -> None:
        if self.addr_width < 1:
            raise ValueError(f"addr_width must be >= 1, got {self.addr_width}")
        if self.data_width < 1:
            raise ValueError(f"data_width must be >= 1, got {self.data_width}")

    def width(self, role: str) -> int:
        """Bits of a pin with ``role``: "level", "addr", "data" or "state"."""
        if role == "addr":
            return self.addr_width
        if role == "data":
            return self.data_width
        return {"level": 1, "state": 3}[role]

    def ram_depth(self) -> int:
        return 1 << self.addr_width
