"""Clocked behavioral model of the synchronous RAM block.

One :func:`ram_step` call models one rising clock edge.  After the reset
pin is released the block spends one edge per memory word zeroing the
array, plus one final edge to clear the internal init flag; client
accesses are ignored during that whole sweep.  Reads are registered and
return the pre-edge memory content, so a read and a write to the same
address in the same cycle yields the old word.  Addresses and words are
plain ints of the widths given by :class:`Params`.

A RAM of up to ``2**5`` words, one trie leaf, is the exact ``tuple`` of
its words, which :func:`ram_step` reads and rewrites inline, without a
Python frame.  A
wider array is a :class:`Memory`, a persistent 32-way radix trie over the
address bits: 5 bits per level, the top level taking the remainder
(path copying as in Driscoll, Sarnak, Sleator & Tarjan, "Making Data
Structures Persistent", 1989; the branching factor as in Bagwell, "Ideal
Hash Trees", 2001).  The power-on
array is one shared node per level.  A client write of a new word, like
each edge of the zeroing sweep that clears a nonzero word, copies the
``ceil(addr_width / 5)`` tuples of at most 32 entries on one root-to-leaf
path and shares the rest, so an edge costs O(addr_width) rather than
O(2^addr_width).  In either form a write of the word already stored, a
sweep edge over a zero word among them, only reads it and copies nothing,
so the power-on sweep costs one read per edge.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain
from typing import NamedTuple

from .signals import Level, Params

_BITS = 5
_MASK = (1 << _BITS) - 1
_new = tuple.__new__  # builds each record; bound once, not looked up on tuple per record


class Memory(Sequence):
    """Immutable array of words; :meth:`set` returns an updated copy.

    Memories with the same contents are equal and hash equal, whatever
    order of writes produced them.
    """

    __slots__ = ("_len", "_shifts", "_root")

    def __init__(self, size: int, shifts: tuple[int, ...], root: tuple) -> None:
        self._len, self._shifts, self._root = size, shifts, root

    @classmethod
    def zeros(cls, addr_width: int) -> "Memory":
        """``2**addr_width`` zero words, sharing one node per level."""
        top_shift = _BITS * ((addr_width - 1) // _BITS)
        shifts = tuple(range(top_shift, -1, -_BITS))
        node = 0
        for _ in shifts[1:]:
            node = (node,) * (1 << _BITS)
        return cls(1 << addr_width, shifts, (node,) * (1 << (addr_width - top_shift)))

    def _index(self, i: int) -> int:
        if not -self._len <= i < self._len:
            raise IndexError(f"memory index {i} out of range for {self._len} words")
        return i % self._len

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._len:
            i = self._index(i)
        node = self._root
        for shift in self._shifts:
            node = node[i >> shift & _MASK]
        return node

    def set(self, i: int, word: int) -> "Memory":
        """A copy with word ``i`` replaced; only the nodes on its path are
        new.  Word ``i`` already equal to ``word`` returns ``self``."""
        if not 0 <= i < self._len:
            i = self._index(i)
        path, node = [], self._root
        for shift in self._shifts:
            k = i >> shift & _MASK
            path.append((node, k))
            node = node[k]
        if node == word:
            return self
        for node, k in reversed(path):
            copy = list(node)
            copy[k] = word
            word = tuple(copy)
        new = object.__new__(Memory)  # without the frame of __init__
        new._len, new._shifts, new._root = self._len, self._shifts, word
        return new

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        words = iter(self._root)
        for _ in self._shifts[1:]:
            words = chain.from_iterable(words)
        return words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self._len == other._len and self._root == other._root

    def __hash__(self) -> int:
        return hash((self._len, self._root))

    def __repr__(self) -> str:
        return f"Memory({self._len} words)"


class RamInputs(NamedTuple):
    """The RAM's pins for one edge: the reset pin and the arbiter's drive
    registers, built by ``arbiter_step`` (shared when all five are clear)."""

    rst_n: Level
    rd_en: Level
    wr_en: Level
    rd_addr: int
    wr_addr: int
    wr_data: int


class RamState(NamedTuple):
    memory: tuple[int, ...] | Memory
    count: int
    reset_done_internal: bool
    rd_data_reg: int


def ram_reset(params: Params) -> RamState:
    """Power-on state: all-zero memory, idle sweep counter, zero read
    register.  The memory is a plain tuple up to ``2**_BITS`` words and a
    :class:`Memory` trie beyond."""
    width = params.addr_width
    return RamState(
        memory=(0,) * (1 << width) if width <= _BITS else Memory.zeros(width),
        count=0,
        reset_done_internal=False,
        rd_data_reg=0,
    )


def ram_step(state: RamState, inp: RamInputs) -> tuple[RamState, int]:
    """Advance the RAM by one rising clock edge.

    Returns the new state and the registered read output.  While ``rst_n``
    is low only the init flag is set; the zeroing sweep itself runs on the
    subsequent edges with ``rst_n`` high.  An edge that changes nothing
    returns ``state`` itself.
    """
    memory, count, reset_done, rd_data = state
    # A flat memory is rewritten here as one list copy, one store and one
    # tuple, a trie through Memory.set; a store of the word already there
    # keeps the memory object either way.
    flat = type(memory) is tuple
    if reset_done:
        # The inputs' reset pin alone: the sweep ignores the drive registers.
        if not inp.rst_n:
            return state, rd_data
        # The trie's length without the frame of Memory.__len__.
        if count < (len(memory) if flat else memory._len):
            if memory[count]:
                if flat:
                    words = list(memory)
                    words[count] = 0
                    memory = tuple(words)
                else:
                    memory = memory.set(count, 0)
            return _new(RamState, (memory, count + 1, True, rd_data)), rd_data
        return _new(RamState, (memory, 0, False, rd_data)), rd_data

    rst_n, rd_en, wr_en, rd_addr, wr_addr, wr_data = inp
    if not rst_n:
        return _new(RamState, (memory, count, True, rd_data)), rd_data
    new_memory, new_rd_data = memory, rd_data
    if rd_en:
        new_rd_data = memory[rd_addr]
    if wr_en:
        if not flat:
            new_memory = memory.set(wr_addr, wr_data)
        elif memory[wr_addr] != wr_data:
            words = list(memory)
            words[wr_addr] = wr_data
            new_memory = tuple(words)
    if new_memory is memory and new_rd_data == rd_data:
        return state, rd_data
    return _new(RamState, (new_memory, count, False, new_rd_data)), new_rd_data
