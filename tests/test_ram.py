"""RAM block: init sweep, read-old semantics, reference-model equivalence."""

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbsim import HIGH, LOW, Params, RamInputs, RamState, parse_word, ram_reset, ram_step
from arbsim.ram import Memory


def quiet(params, rst_n=HIGH, **kw):
    base = dict(
        rst_n=rst_n,
        rd_en=LOW,
        wr_en=LOW,
        rd_addr=0,
        wr_addr=0,
        wr_data=0,
    )
    base.update(kw)
    return RamInputs(**base)


def swept(params):
    """RAM that has completed its post-release zeroing sweep."""
    state = ram_reset(params)
    state = ram_step(state, quiet(params, rst_n=LOW))
    for _ in range(params.ram_depth() + 1):
        state = ram_step(state, quiet(params))
    assert not state.reset_done_internal
    return state


class TestReset:
    def test_power_on_state_default_widths(self):
        params = Params(4, 8)
        state = ram_reset(params)
        assert len(state.memory) == 16
        assert all(w == 0 for w in state.memory)
        assert state.count == 0
        assert not state.reset_done_internal

    def test_power_on_state_small_widths(self):
        state = ram_reset(Params(2, 4))
        assert len(state.memory) == 4
        assert all(w == 0 for w in state.memory)

    def test_read_register_starts_zero(self):
        assert ram_reset(Params(4, 8)).rd_data_reg == 0


@pytest.mark.parametrize("addr_width", [2, 4, 6])
def test_sweep_takes_depth_plus_one_edges(addr_width):
    params = Params(addr_width, 8)
    state = ram_reset(params)
    state = ram_step(state, quiet(params, rst_n=LOW))
    assert state.reset_done_internal
    for edge in range(params.ram_depth()):
        state = ram_step(state, quiet(params))
        assert state.reset_done_internal, f"flag dropped early at edge {edge}"
    state = ram_step(state, quiet(params))
    assert not state.reset_done_internal
    assert state.count == 0
    assert all(w == 0 for w in state.memory)


def test_writes_during_sweep_are_ignored():
    params = Params(4, 8)
    state = ram_reset(params)
    state = ram_step(state, quiet(params, rst_n=LOW))
    poke = quiet(
        params,
        wr_en=HIGH,
        wr_addr=parse_word("0011", 4).value,
        wr_data=parse_word("11111111", 8).value,
    )
    for _ in range(params.ram_depth() + 1):
        state = ram_step(state, poke)
    assert all(w == 0 for w in state.memory)
    state = ram_step(state, poke)
    assert state.memory[3] == parse_word("11111111", 8).value


class SweepEveryWordRam:
    """The independent reference RAM: a plain list of words, read-old-value
    on a same-edge read and write, and a sweep that writes a zero over word
    ``count`` on every sweep edge, whether or not that word is already zero.
    From power-on it equals a RAM that has finished its sweep."""

    def __init__(self, params):
        self.memory = [0] * params.ram_depth()
        self.count = 0
        self.reset_done_internal = False
        self.rd_data_reg = 0

    def step(self, inp):
        if not inp.rst_n:
            self.reset_done_internal = True
        elif self.reset_done_internal:
            if self.count < len(self.memory):
                self.memory[self.count] = 0
                self.count += 1
            else:
                self.count, self.reset_done_internal = 0, False
        else:
            if inp.rd_en:
                self.rd_data_reg = self.memory[inp.rd_addr]
            if inp.wr_en:
                self.memory[inp.wr_addr] = inp.wr_data
        return self.rd_data_reg


@pytest.mark.parametrize("addr_width", [4, 6])
def test_sweep_matches_a_ram_that_zeroes_every_word(addr_width):
    # Writes dirty the memory between sweeps, and reset pulses cut sweeps
    # off part-way, so sweep edges meet both zero and nonzero words.
    params = Params(addr_width, 8)
    rng = random.Random(addr_width)
    state, ref = ram_reset(params), SweepEveryWordRam(params)
    dirty_sweep_edges = interrupted = completed = 0
    for step in range(20_000):
        rst_n = rng.random() >= 1 / (2 * params.ram_depth())
        inp = random_ram_inputs(rng, params)._replace(rst_n=rst_n)
        if state.reset_done_internal and rst_n and state.count < len(state.memory):
            dirty_sweep_edges += state.memory[state.count] != 0
        interrupted += state.reset_done_internal and 0 < state.count and not rst_n
        completed += state.reset_done_internal and state.count == len(state.memory) and rst_n
        state = ram_step(state, inp)
        ref.step(inp)
        assert (tuple(state.memory), state.count, state.reset_done_internal,
                state.rd_data_reg) == (tuple(ref.memory), ref.count,
                ref.reset_done_internal, ref.rd_data_reg), f"step {step}"
    assert dirty_sweep_edges and interrupted and completed


class TestAccess:
    def test_write_then_read_back(self):
        params = Params(4, 8)
        state = swept(params)
        state = ram_step(
            state,
            quiet(params, wr_en=HIGH, wr_addr=parse_word("1101", 4).value,
                  wr_data=parse_word("11100111", 8).value),
        )
        state = ram_step(
            state, quiet(params, rd_en=HIGH, rd_addr=parse_word("1101", 4).value)
        )
        assert state.rd_data_reg == parse_word("11100111", 8).value

    def test_read_of_never_written_address_is_zero(self):
        params = Params(4, 8)
        state = swept(params)
        state = ram_step(
            state, quiet(params, rd_en=HIGH, rd_addr=parse_word("0111", 4).value)
        )
        assert state.rd_data_reg == parse_word("00000000", 8).value

    def test_simultaneous_read_write_distinct_addresses(self):
        params = Params(4, 8)
        state = swept(params)
        state = ram_step(
            state,
            quiet(params, wr_en=HIGH, wr_addr=parse_word("1011", 4).value,
                  wr_data=parse_word("10111001", 8).value),
        )
        state = ram_step(
            state,
            quiet(params, rd_en=HIGH, rd_addr=parse_word("1011", 4).value,
                  wr_en=HIGH, wr_addr=parse_word("1000", 4).value,
                  wr_data=parse_word("10011111", 8).value),
        )
        assert state.rd_data_reg == parse_word("10111001", 8).value

    def test_same_cycle_same_address_reads_old_value(self):
        # Two-cycle trace: land O at address A, then read A while writing D.
        params = Params(4, 8)
        state = swept(params)
        addr = parse_word("1010", 4).value
        old = parse_word("01010101", 8).value
        new = parse_word("10111011", 8).value
        state = ram_step(
            state, quiet(params, wr_en=HIGH, wr_addr=addr, wr_data=old)
        )
        state = ram_step(
            state,
            quiet(params, rd_en=HIGH, rd_addr=addr, wr_en=HIGH, wr_addr=addr,
                  wr_data=new),
        )
        assert state.rd_data_reg == old
        state = ram_step(state, quiet(params, rd_en=HIGH, rd_addr=addr))
        assert state.rd_data_reg == new


def random_ram_inputs(rng, params):
    return quiet(
        params,
        rd_en=rng.random() < 0.6,
        wr_en=rng.random() < 0.6,
        rd_addr=rng.getrandbits(params.addr_width),
        wr_addr=rng.getrandbits(params.addr_width),
        wr_data=rng.getrandbits(params.data_width),
    )


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=200))
def test_reference_model_equivalence_property(seed, steps):
    params = Params(3, 6)
    rng = random.Random(seed)
    state = swept(params)
    ref = SweepEveryWordRam(params)
    for _ in range(steps):
        inp = random_ram_inputs(rng, params)
        state = ram_step(state, inp)
        assert state.rd_data_reg == ref.step(inp)
    assert tuple(state.memory) == tuple(ref.memory)


def test_determinism():
    params = Params(4, 8)
    runs = []
    for _ in range(2):
        rng = random.Random(42)
        state = swept(params)
        outs = []
        for _ in range(500):
            state = ram_step(state, random_ram_inputs(rng, params))
            outs.append(state.rd_data_reg)
        runs.append((outs, state))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("addr_width", [1, 5, 6, 10, 11, 13])
def test_reference_model_equivalence_across_trie_levels(addr_width):
    # Both sides of the 32-word boundary between the tuple form and a
    # Memory, and Memories up to the benchmark's 8,192 words.
    params = Params(addr_width, 8)
    rng = random.Random(addr_width)
    state = swept(params)
    ref = SweepEveryWordRam(params)
    for step in range(2_000 if addr_width <= 6 else 300):
        inp = random_ram_inputs(rng, params)
        state = ram_step(state, inp)
        assert state.rd_data_reg == ref.step(inp), f"diverged at step {step}"
    assert tuple(state.memory) == tuple(ref.memory)
    assert len(state.memory) == params.ram_depth()
    with pytest.raises(IndexError):
        state.memory[params.ram_depth()]


def write(state, params, addr, value):
    inp = quiet(params, wr_en=HIGH, wr_addr=addr, wr_data=value)
    return ram_step(state, inp)


@pytest.mark.parametrize("addr_width", [4, 13])
def test_write_leaves_old_memory_unchanged(addr_width):
    params = Params(addr_width, 8)
    old = write(swept(params), params, 3, 0x5A)
    before = tuple(old.memory)
    new = write(old, params, 3, 0xC3)
    new = write(new, params, params.ram_depth() - 1, 0x11)
    assert tuple(old.memory) == before
    assert old.memory[3] == 0x5A and new.memory[3] == 0xC3
    assert old.memory[params.ram_depth() - 1] == 0
    # Sweep edges stepped on the old state, after a read of the new one,
    # clear the old state's word and leave both memories as they were.
    assert new.memory[3] == 0xC3
    cleared = ram_step(old, quiet(params, rst_n=LOW))
    for _ in range(4):
        cleared = ram_step(cleared, quiet(params))
    assert cleared.memory[3] == 0 and cleared.count == 4
    assert old.memory[3] == 0x5A and new.memory[3] == 0xC3


@pytest.mark.parametrize("addr_width", [6, 13])
def test_a_read_of_an_older_state_reads_its_own_words(addr_width):
    # ram_step reads a Memory in its holder's dict; an older state's memory
    # is not the holder, so the read reroots it first.
    params = Params(addr_width, 8)
    top = params.ram_depth() - 1
    old = write(swept(params), params, 3, 0x5A)
    newer = write(old, params, 3, 0xC3)
    newest = write(newer, params, top, 0x11)
    for addr, word in ((3, 0x5A), (top, 0), (3, 0x5A)):
        assert old.memory._words is None and newest.memory._words is not None
        state = ram_step(old, quiet(params, rd_en=HIGH, rd_addr=addr))
        assert state.rd_data_reg == word and state.memory is old.memory
        # Every newer version keeps its words; reading them reroots back.
        assert (newer.memory[3], newer.memory[top]) == (0xC3, 0)
        assert (newest.memory[3], newest.memory[top]) == (0xC3, 0x11)
    assert tuple(old.memory) == (0, 0, 0, 0x5A) + (0,) * (top - 3)


def test_a_memory_is_unequal_to_a_sequence_of_its_words_and_names_its_length():
    memory = Memory.zeros(6)
    words = (0,) * 64
    assert memory.__eq__(words) is NotImplemented
    assert memory != words and not memory == list(words) and tuple(memory) == words
    assert repr(memory) == "Memory(64 words)"


@pytest.mark.parametrize("addr_width", [4, 13])
def test_equal_contents_from_different_write_orders(addr_width):
    params = Params(addr_width, 8)
    top = params.ram_depth() - 1
    writes = [(0, 7), (top, 9), (33 % params.ram_depth(), 1), (0, 2)]
    a = b = swept(params)
    for addr, value in writes:
        a = write(a, params, addr, value)
    for addr, value in [writes[2], writes[1], writes[3]]:
        b = write(b, params, addr, value)
    assert a.memory == b.memory
    assert hash(a.memory) == hash(b.memory)
    assert a.memory != write(b, params, top, 8).memory


def test_an_edge_that_changes_nothing_returns_the_state_itself(params):
    state = swept(params)
    assert ram_step(state, quiet(params)) is state
    low = quiet(params, rst_n=LOW)
    flagged = ram_step(state, low)
    assert flagged is not state and flagged.reset_done_internal
    assert ram_step(flagged, low) is flagged
    # A write of the stored word, alone or beside a read of a zero word
    # into the zero read register, changes nothing either.
    state = write(state, params, 3, 0x5A)
    rewrite = quiet(params, wr_en=HIGH, wr_addr=3, wr_data=0x5A)
    for inp in (rewrite, rewrite._replace(rd_en=HIGH, rd_addr=4)):
        same = ram_step(state, inp)
        assert same is state and same.rd_data_reg == 0
    # A read of the stored word changes the read register: a new state that
    # shares the memory.  A write of another word makes a new memory.
    new = ram_step(state, rewrite._replace(rd_en=HIGH, rd_addr=3))
    assert type(new) is RamState and new is not state
    assert new.rd_data_reg == 0x5A and new.memory is state.memory
    changed = ram_step(state, rewrite._replace(wr_data=0xC3))
    assert changed.memory is not state.memory and state.memory[3] == 0x5A


@pytest.mark.parametrize("addr_width", [1, 2, 3, 4, 5, 6])
def test_a_ram_of_up_to_32_words_is_its_tuple_of_words(addr_width):
    # Up to 32 words the memory is the exact tuple of its words, which
    # ram_step rewrites inline; from 6 address bits on it is a Memory.
    params = Params(addr_width, 8)
    power_on = ram_reset(params).memory
    if addr_width == 6:
        assert type(power_on) is Memory
        return
    assert type(power_on) is tuple and power_on == (0,) * params.ram_depth()
    top = params.ram_depth() - 1
    state = write(swept(params), params, top, 0x5A)
    old = state.memory
    assert type(old) is tuple and old == (0,) * top + (0x5A,)
    # A rewrite of the stored word, and a sweep edge over a zero word, keep
    # the tuple itself.
    assert write(state, params, top, 0x5A).memory is old
    flagged = ram_step(state, quiet(params, rst_n=LOW))
    assert ram_step(flagged, quiet(params)).memory is old
    # A new word makes a new exact tuple and leaves the old one as it was.
    new = write(state, params, top, 0xC3).memory
    assert type(new) is tuple and new == (0,) * top + (0xC3,)
    assert old == (0,) * top + (0x5A,)


@pytest.mark.parametrize("addr_width", [4, 6, 13])
def test_setting_the_stored_word_returns_the_memory_itself(addr_width):
    # Memories of 16, 64 and 8,192 words.  A power-on zero counts as
    # stored; a different word still makes a new version.
    zeros = Memory.zeros(addr_width)
    top = (1 << addr_width) - 1
    for i in (0, 1, 33 % (top + 1), top):
        assert zeros.set(i, 0) is zeros
        written = zeros.set(i, 0x5A)
        assert written is not zeros and written.set(i, 0x5A) is written
        assert zeros[i] == 0 and written[i] == 0x5A
        rewritten = written.set(i, 0xC3)
        assert rewritten is not written and rewritten[i] == 0xC3
        assert written[i] == 0x5A and rewritten == zeros.set(i, 0xC3)
        cleared = rewritten.set(i, 0)
        assert cleared == zeros and hash(cleared) == hash(zeros)
    assert not any(zeros)


@pytest.mark.parametrize("addr_width", [4, 5, 6, 13])
def test_memory_index_semantics_at_both_ends(addr_width):
    # Memories of 16 to 8,192 words.  An index in [0, len) skips the
    # bounds check's call; any other index goes through it and keeps its
    # meaning: a negative one counts from the end, an out-of-range one
    # raises the same error from reads and writes alike.
    def memory():
        return Memory.zeros(addr_width).set(0, 1).set(depth - 1, 2)

    depth = 1 << addr_width
    m = memory()
    words = tuple(m)
    digest = hash(m)
    assert (m[-1], m[-depth]) == (2, 1)
    last, first = m.set(-1, 3), m.set(-depth, 4)
    assert (last[depth - 1], last[-1], last[0]) == (3, 3, 1)
    assert (first[0], first[-depth], first[-1]) == (4, 4, 2)
    for i in (depth, -depth - 1):
        message = rf"^memory index {i} out of range for {depth} words$"
        with pytest.raises(IndexError, match=message):
            m[i]
        with pytest.raises(IndexError, match=message):
            m.set(i, 5)
    assert tuple(m) == words
    assert m == memory() and hash(m) == digest == hash(memory())
    assert last != m != first


def test_wide_memory_is_not_allocated():
    params = Params(32, 8)
    state = ram_reset(params)
    assert len(state.memory) == 2**32
    top = 2**32 - 1
    state = ram_step(
        state, quiet(params, wr_en=HIGH, wr_addr=top, wr_data=0xA5)
    )
    state = ram_step(state, quiet(params, rd_en=HIGH, rd_addr=top))
    assert state.rd_data_reg == 0xA5


def test_an_addr_32_memory_hashes_and_compares_in_bounded_time():
    # hash and == cost O(nonzero words), not O(2**32): each call, on the
    # power-on memory and on two written in different orders, returns
    # within a second.
    top = 2**32 - 1
    power_on = Memory.zeros(32)
    written = power_on.set(0, 0x5A).set(top, 0xC3)
    reordered = Memory.zeros(32).set(top, 0xC3).set(0, 0x5A)
    for check in (
        lambda: hash(power_on), lambda: power_on == Memory.zeros(32),
        lambda: hash(written), lambda: hash(reordered),
        lambda: written == reordered, lambda: written != power_on,
    ):
        start = time.perf_counter()
        assert check()
        assert time.perf_counter() - start < 1
    assert hash(written) == hash(reordered) and written[top] == 0xC3


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_every_version_keeps_its_words_under_any_access_order(data):
    # Writes and reads, each on an arbitrary earlier version, against a
    # tuple snapshot of each.  An index is often one of the version's
    # nonzero words, in either sign, and words are small, so writes of the
    # stored word and writes of 0 over a nonzero word are common.
    addr_width = data.draw(st.integers(min_value=6, max_value=13), label="addr_width")
    depth = 1 << addr_width
    index = st.integers(min_value=-depth, max_value=depth - 1)
    versions, snapshots = [Memory.zeros(addr_width)], [(0,) * depth]
    for _ in range(data.draw(st.integers(min_value=1, max_value=20), label="ops")):
        k = data.draw(st.integers(min_value=0, max_value=len(versions) - 1))
        stored = [j - depth * sign for j, w in enumerate(snapshots[k]) if w for sign in (0, 1)]
        i = data.draw(index | st.sampled_from(stored) if stored else index)
        word = data.draw(st.none() | st.integers(min_value=0, max_value=3), label="word")
        if word is not None:
            words = list(snapshots[k])
            words[i] = word
            versions.append(versions[k].set(i, word))
            snapshots.append(tuple(words))
        else:
            assert versions[k][i] == snapshots[k][i]
        # Each version against a fresh memory of its words, and against
        # every other version of its family.  Newest first, so a version
        # that a write has just made the holder is compared before any
        # reroot rewrites its dict.
        for v, snapshot in reversed(list(zip(versions, snapshots))):
            fresh = Memory.zeros(addr_width)
            for j, w in enumerate(snapshot):
                if w:
                    fresh = fresh.set(j, w)
            assert v == fresh and hash(v) == hash(fresh)
            assert len(v) == depth and tuple(v) == snapshot
            for other, other_snapshot in zip(versions, snapshots):
                assert (v == other) == (snapshot == other_snapshot)
                if snapshot == other_snapshot:
                    assert hash(v) == hash(other)


def test_stepping_the_newest_state_keeps_one_memory_alive():
    # A state that is dropped frees its memory: after 20,000 random writes
    # through ram_step, with only the newest state kept, the one Memory
    # left is the newest.
    def live_memories():
        gc.collect()
        return sum(type(o) is Memory for o in gc.get_objects())

    params = Params(13, 8)
    rng = random.Random(13)
    before = live_memories()
    state = ram_reset(params)
    for _ in range(20_000):
        state = write(state, params, rng.getrandbits(13), rng.getrandbits(8))
    assert live_memories() - before == 1
