"""Clocked behavioral model of the synchronous RAM block.

One :func:`ram_step` call models one rising clock edge.  After the reset
pin is released the block spends one edge per memory word zeroing the
array, plus one final edge to clear the internal init flag; client
accesses are ignored during that whole sweep.  Reads are registered and
return the pre-edge memory content, so a read and a write to the same
address in the same cycle yields the old word.  Addresses and words are
plain ints of the widths given by :class:`Params`.

A RAM of up to ``2**5`` words is the exact ``tuple`` of its words, which
:func:`ram_step` reads and rewrites inline, without a Python frame.  A
wider array is a :class:`Memory`, a rerooted persistent array (Baker,
"Shallow binding makes functional arrays fast", 1991; Conchon &
Filliatre, "A Persistent Union-Find Data Structure", 2007).  All the
versions that derive from one :meth:`Memory.zeros` form a family.  One of
them, the holder, owns a ``dict`` of the nonzero words; every other
version holds one diff, an address, its word in that version and the next
version toward the holder.  A read or write of the holder is O(1), and
each write makes the new version the holder, so a caller that only ever
steps the newest state, as every simulation loop does, never pays more.
Any other version is first made the holder by reversing the diffs on its
path.  No zero word is stored, so the power-on array allocates nothing at
any width, and ``hash`` and ``==`` cost O(nonzero words).  Diffs point
from old versions to new ones, so a version the caller drops is freed.
In either form a write of the word already stored, a sweep edge over a
zero word among them, only reads it and builds nothing, so the power-on
sweep costs one read per edge.

:func:`ram_step` reads a :class:`Memory`, on a client read as on a sweep
edge, in the holder's ``dict`` itself, after a reroot only for an older
version, without the frame of ``Memory.__getitem__``.  It thus reads only
addresses within the RAM, which the arbiter's drive registers always hold.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .signals import Level, Params

_TUPLE_BITS = 5  # a RAM of up to 2**5 words is the tuple of its words
_new = tuple.__new__  # builds each record; bound once, not looked up on tuple per record


class Memory(Sequence):
    """Persistent array of words; :meth:`set` returns an updated version
    and leaves this one as it was.

    Memories with the same contents are equal and hash equal, whatever
    order of writes produced them.  Reading any version may rearrange the
    family's diffs, so a family is not shared between threads.
    """

    # The holder has its dict in _words and _diff None; any other version
    # has _words None and _diff (address, word, next version).
    __slots__ = ("_len", "_words", "_diff")

    def __init__(self, size: int, words: dict[int, int]) -> None:
        self._len, self._words, self._diff = size, words, None

    @classmethod
    def zeros(cls, addr_width: int) -> "Memory":
        """``2**addr_width`` zero words, none of them stored."""
        return cls(1 << addr_width, {})

    def _index(self, i: int) -> int:
        if not -self._len <= i < self._len:
            raise IndexError(f"memory index {i} out of range for {self._len} words")
        return i % self._len

    def _reroot(self) -> dict[int, int]:
        """Make this version the holder and return its dict.  Each diff on
        the path, from the holder's end, is undone in the dict and turned
        around, so the structure is consistent after every step."""
        path, node = [], self
        while node._words is None:
            path.append(node)
            node = node._diff[2]
        words = node._words
        for version in reversed(path):
            i, word, _ = version._diff
            node._words, node._diff = None, (i, words.get(i, 0), version)
            if word:
                words[i] = word
            else:
                del words[i]
            version._words, version._diff = words, None
            node = version
        return words

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._len:
            i = self._index(i)
        words = self._words
        if words is None:
            words = self._reroot()
        return words.get(i, 0)

    def set(self, i: int, word: int) -> "Memory":
        """A new version with word ``i`` replaced, which becomes the
        holder.  Word ``i`` already equal to ``word`` returns ``self``."""
        if not 0 <= i < self._len:
            i = self._index(i)
        words = self._words
        if words is None:
            words = self._reroot()
        old = words.get(i, 0)
        if old == word:
            return self
        if word:
            words[i] = word
        else:
            del words[i]
        new = object.__new__(Memory)  # without the frame of __init__
        new._len, new._words, new._diff = self._len, words, None
        self._words, self._diff = None, (i, old, new)
        return new

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        # Through __getitem__, so a version of the same family stepped
        # between two items does not change what this one yields.
        return map(self.__getitem__, range(self._len))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        # A copy: rerooting ``other`` may rewrite this version's dict.
        return self._len == other._len and dict(self._reroot()) == other._reroot()

    def __hash__(self) -> int:
        return hash((self._len, frozenset(self._reroot().items())))

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
    register.  The memory is a plain tuple up to ``2**_TUPLE_BITS`` words
    and a :class:`Memory` beyond."""
    width = params.addr_width
    return RamState(
        memory=(0,) * (1 << width) if width <= _TUPLE_BITS else Memory.zeros(width),
        count=0,
        reset_done_internal=False,
        rd_data_reg=0,
    )


def ram_step(state: RamState, inp: RamInputs) -> RamState:
    """Advance the RAM by one rising clock edge.

    Returns the new state; its ``rd_data_reg`` is the read output.  While
    ``rst_n`` is low only the init flag is set; the zeroing sweep itself
    runs on the subsequent edges with ``rst_n`` high.  An edge that changes
    nothing returns ``state`` itself.
    """
    memory, count, reset_done, rd_data = state
    # A flat memory is rewritten here as one list copy, one store and one
    # tuple, a wider one through Memory.set; a store of the word already there
    # keeps the memory object either way.
    flat = type(memory) is tuple
    if reset_done:
        # The inputs' reset pin alone: the sweep ignores the drive registers.
        if not inp.rst_n:
            return state
        # The Memory's length without the frame of Memory.__len__.
        if count < (len(memory) if flat else memory._len):
            if not flat:
                # The holder's dict holds the nonzero words: a test of it
                # reads the word without the frame of Memory.__getitem__.
                stored = memory._words
                if stored is None:
                    stored = memory._reroot()
                if count in stored:
                    memory = memory.set(count, 0)
            elif memory[count]:
                words = list(memory)
                words[count] = 0
                memory = tuple(words)
            return _new(RamState, (memory, count + 1, True, rd_data))
        return _new(RamState, (memory, 0, False, rd_data))

    rst_n, rd_en, wr_en, rd_addr, wr_addr, wr_data = inp
    if not rst_n:
        return _new(RamState, (memory, count, True, rd_data))
    new_memory, new_rd_data = memory, rd_data
    if rd_en:
        if flat:
            new_rd_data = memory[rd_addr]
        else:
            # The holder's dict, as the sweep above reads it.
            stored = memory._words
            if stored is None:
                stored = memory._reroot()
            new_rd_data = stored.get(rd_addr, 0)
    if wr_en:
        if not flat:
            new_memory = memory.set(wr_addr, wr_data)
        elif memory[wr_addr] != wr_data:
            words = list(memory)
            words[wr_addr] = wr_data
            new_memory = tuple(words)
    if new_memory is memory and new_rd_data == rd_data:
        return state
    return _new(RamState, (new_memory, count, False, new_rd_data))
