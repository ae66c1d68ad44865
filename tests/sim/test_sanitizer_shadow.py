"""Shadow differential: the sanitizer's clean-access proofs vs its full check.

:meth:`Sanitizer.observe` proves most loads and atomics clean from the
packed per-word flags and only then skips the full check
(:meth:`Sanitizer._check_global`).  These tests drive two sanitizers
through the same random sequence of allocator, block-lifecycle, barrier
and global-memory events over a small memory: one through ``observe``,
the other through the full check for every global access.  After every
event both must hold identical findings and identical shadow arrays.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import WARP_SIZE
from repro.isa.instructions import Bank, Imm, Instr, Opcode, Reg
from repro.sim.sanitizer import Sanitizer

#: Simulated memory words (word 0 is the never-allocated null word).
WORDS = 12
#: Fake blocks the sequence can start, finish and barrier.
BLOCKS = 3

_ACCESS_OPS = {
    "ld": Opcode.LD,
    "fld": Opcode.FLD,
    "st": Opcode.ST,
    "fst": Opcode.FST,
    "atom_add": Opcode.ATOM_ADD,
    "atom_cas": Opcode.ATOM_CAS,
    "atom_exch": Opcode.ATOM_EXCH,
}

_SHADOW = (
    "_flags",
    "_w_block",
    "_w_thread",
    "_w_epoch",
    "_w_cycle",
    "_w_value",
    "_r_block",
    "_r_thread",
    "_r_epoch",
    "_r_cycle",
    "_alive",
    "_start",
    "_fence",
)

FULL = (1 << WARP_SIZE) - 1


def _gpu():
    return SimpleNamespace(
        memory=SimpleNamespace(size_words=WORDS),
        kernels={},
        config=SimpleNamespace(max_resident_threads=2048),
    )


def _block(index: int):
    return SimpleNamespace(
        smx=SimpleNamespace(smx_id=0),
        func=SimpleNamespace(name=f"k{index}"),
        san_uid=0,
    )


def _access(op, warp_index, tb, mask_bits, addr, values, offset):
    """One global access: its warp, instruction and active mask."""
    regs_i = np.zeros((2, WARP_SIZE), dtype=np.int64)
    regs_f = np.zeros((2, WARP_SIZE), dtype=np.float64)
    kind, where = addr
    if kind == "imm":
        a = Imm(where)
    else:
        regs_i[0] = where
        a = Reg(Bank.INT, 0)
    regs_i[1] = values
    regs_f[1] = values
    b = Reg(Bank.FLT if op is Opcode.FST else Bank.INT, 1)
    instr = Instr(op, a=a, b=b, c=Reg(Bank.INT, 1), offset=offset)
    warp = SimpleNamespace(
        tb=tb,
        warp_index=warp_index,
        regs_i=regs_i,
        regs_f=regs_f,
        init_mask=np.ones(WARP_SIZE, dtype=bool),
    )
    mask = ((mask_bits >> np.arange(WARP_SIZE)) & 1).astype(bool)
    return warp, instr, mask


def _replay(events):
    """Drive the proof-path and full-path sanitizers in lockstep."""
    fast = Sanitizer(_gpu())
    full = Sanitizer(_gpu())
    blocks = [_block(i) for i in range(BLOCKS)]
    alive = [False] * BLOCKS
    cycle = 0
    for pc, event in enumerate(events):
        cycle += 1
        kind = event[0]
        if kind in ("alloc", "free", "host"):
            _, base, words = event
            for san in (fast, full):
                getattr(san, {"alloc": "on_alloc", "free": "on_free",
                              "host": "on_host_write"}[kind])(base, words)
        elif kind == "start":
            b = event[1]
            if alive[b]:
                continue
            alive[b] = True
            for san in (fast, full):
                san.on_block_start(blocks[b], cycle)
        elif kind == "finish":
            b = event[1]
            if not alive[b]:
                continue
            alive[b] = False
            for san in (fast, full):
                san.on_block_finished(blocks[b], cycle)
        elif kind == "bar":
            for san in (fast, full):
                san.on_barrier_release(blocks[event[1]])
        else:
            _, name, b, warp_index, mask_bits, addr, values, offset = event
            if not alive[b]:
                continue
            warp, instr, mask = _access(
                _ACCESS_OPS[name], warp_index, blocks[b], mask_bits, addr,
                values, offset,
            )
            fast.observe(warp, pc, instr, mask, cycle)
            full._check_global(warp, pc, instr, mask, cycle)
        assert fast.report.to_dict() == full.report.to_dict(), event
        for name in _SHADOW:
            np.testing.assert_array_equal(
                getattr(fast, name), getattr(full, name), err_msg=f"{name} after {event}"
            )
        assert fast._epochs == full._epochs
    return fast


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_word = st.integers(-3, WORDS + 3)
# Allocator ranges never cover word 0: GlobalMemory reserves it as null.
_range = st.integers(1, WORDS - 1).flatmap(
    lambda base: st.tuples(st.just(base), st.integers(1, WORDS - base))
)
_mask = st.one_of(
    st.sampled_from([FULL, 0, 1, 1 << 31, 0b1010, FULL ^ 1]),
    st.integers(0, FULL),
)
_addr = st.one_of(
    st.tuples(st.just("imm"), _word),
    st.tuples(st.just("reg"), _word.map(lambda a: (a,) * WARP_SIZE)),
    st.tuples(
        st.just("reg"), st.lists(_word, min_size=WARP_SIZE, max_size=WARP_SIZE).map(tuple)
    ),
)
_values = st.one_of(
    st.integers(0, 2).map(lambda v: (v,) * WARP_SIZE),
    st.lists(st.integers(0, 2), min_size=WARP_SIZE, max_size=WARP_SIZE).map(tuple),
)
_block_id = st.integers(0, BLOCKS - 1)
_event = st.one_of(
    st.tuples(st.sampled_from(["alloc", "free", "host"]), _range).map(
        lambda t: (t[0],) + t[1]
    ),
    st.tuples(st.sampled_from(["start", "finish", "bar"]), _block_id),
    st.tuples(
        st.just("acc"),
        st.sampled_from(sorted(_ACCESS_OPS)),
        _block_id,
        st.integers(0, 1),
        _mask,
        _addr,
        _values,
        st.integers(-2, 2),
    ),
)


def _reg(*words):
    """Lane addresses: ``words`` repeated across the warp."""
    return ("reg", tuple(words[i % len(words)] for i in range(WARP_SIZE)))


_V0 = (0,) * WARP_SIZE
_V1 = (1,) * WARP_SIZE
_LANES = tuple(range(WARP_SIZE))


def acc(name, b, mask, addr, values=_V1, warp=0, offset=0):
    return ("acc", name, b, warp, mask, addr, values, offset)


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
class TestShadowDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_event, min_size=1, max_size=40))
    # Register load, clean; no plain writer anywhere (no cycle gather).
    @example([("alloc", 1, 8), ("host", 1, 8), ("start", 0),
              acc("ld", 0, FULL, _reg(1, 2, 3, 4))])
    # Register load of words a plain store wrote before the block started:
    # the w_cycle gather proves them launch-ordered.
    @example([("alloc", 1, 8), ("start", 0), acc("st", 0, FULL, _reg(1, 2)),
              ("finish", 0), ("start", 1), acc("ld", 1, FULL, _reg(1, 2))])
    # Same block, other thread, same epoch: the proof fails, the full
    # check reports the race.
    @example([("alloc", 1, 8), ("start", 0), acc("st", 0, 1, _reg(3)),
              acc("ld", 0, 2, _reg(3))])
    # ... and after a barrier (other epoch) the full check is clean.
    @example([("alloc", 1, 8), ("start", 0), acc("st", 0, 1, _reg(3)),
              ("bar", 0), acc("ld", 0, 2, _reg(3), warp=1)])
    # Live other-block writer (proof fails, race), then the same word
    # after that block finished.
    @example([("alloc", 1, 8), ("start", 0), ("start", 1),
              acc("st", 0, FULL, ("imm", 4)), acc("ld", 1, FULL, ("imm", 4)),
              ("finish", 0), acc("fld", 1, 1, _reg(4, 5))])
    # Atomically written word: a plain read acquires (fence update), and
    # the acquire orders an earlier plain payload store.
    @example([("alloc", 1, 8), ("start", 0), ("start", 1),
              acc("st", 0, FULL, _reg(2)), acc("atom_add", 0, 1, ("imm", 1)),
              acc("ld", 1, 1, ("imm", 1)), acc("ld", 1, FULL, _reg(2)),
              acc("ld", 1, FULL, _reg(1, 2))])
    # Immediate load: clean, uninitialized, negative, past the end.
    @example([("alloc", 1, 4), ("host", 1, 2), ("start", 0),
              acc("ld", 0, FULL, ("imm", 1)), acc("ld", 0, FULL, ("imm", 3)),
              acc("ld", 0, FULL, ("imm", -1)), acc("fld", 0, 1, ("imm", WORDS))])
    # Register loads of freed, uninitialized, null and out-of-range words.
    @example([("alloc", 1, 6), ("host", 1, 3), ("free", 1, 2), ("start", 0),
              acc("ld", 0, FULL, _reg(1, 3)), acc("ld", 0, FULL, _reg(3, 5)),
              acc("ld", 0, FULL, _reg(0, 2)), acc("ld", 0, FULL, _reg(2, -2)),
              acc("ld", 0, FULL, _reg(2, WORDS + 1))])
    # Multi-lane uniform address: the full path's fancy assignment leaves
    # the last active lane's thread id, which the scalar path must match.
    @example([("alloc", 1, 8), ("host", 1, 8), ("start", 0),
              acc("ld", 0, 0b0110, ("imm", 5)), acc("ld", 0, 0b0110, _reg(6)),
              acc("atom_cas", 0, FULL ^ (1 << 31), ("imm", 7)),
              acc("atom_add", 0, 0b1011, _reg(7), warp=1)])
    # Atomics: clean register and immediate forms (colliding lanes), and
    # unaddressable words (freed, never allocated, past the end).
    @example([("alloc", 1, 6), ("free", 5, 2), ("start", 0),
              acc("atom_add", 0, FULL, _reg(1, 2, 2, 3)),
              acc("atom_exch", 0, FULL, ("imm", 2)),
              acc("atom_add", 0, FULL, _reg(5, 1)),
              acc("atom_add", 0, 1, ("imm", 9)),
              acc("atom_cas", 0, 1, ("imm", WORDS + 2)),
              acc("atom_add", 0, FULL, _reg(1), offset=-2)])
    # Plain writer after an atomic writer: the plain-writer bit replaces
    # the atomic one; realloc keeps the atomic bits, drops the plain ones.
    @example([("alloc", 1, 4), ("start", 0), acc("atom_add", 0, 1, ("imm", 2)),
              acc("st", 0, 1, ("imm", 2)), ("alloc", 2, 2),
              acc("ld", 0, 1, ("imm", 2), offset=1),
              acc("st", 0, FULL, _reg(*_LANES), values=tuple(_LANES))])
    # Empty masks and same-value stores.
    @example([("alloc", 1, 4), ("start", 0), acc("ld", 0, 0, ("imm", 1)),
              acc("atom_add", 0, 0, _reg(1)), acc("st", 0, FULL, ("imm", 1), _V0),
              acc("st", 0, FULL, ("imm", 1), _V0, warp=1)])
    def test_proof_path_matches_full_check(self, events):
        _replay(events)

    def test_clean_accesses_skip_the_full_check(self, monkeypatch):
        calls = []
        original = Sanitizer._check_global

        def counting(self, *args):
            calls.append((self, args[2].op))
            return original(self, *args)

        monkeypatch.setattr(Sanitizer, "_check_global", counting)
        san = _replay(
            [("alloc", 1, 8), ("host", 1, 8), ("start", 0),
             acc("ld", 0, FULL, _reg(1, 2)), acc("ld", 0, FULL, ("imm", 3)),
             acc("atom_add", 0, FULL, _reg(4)), acc("st", 0, 1, ("imm", 5)),
             acc("ld", 0, 1, ("imm", 0))]
        )
        # Proven loads and atomics never fall back to the full check; the
        # unprovable load of the null word does (stores go to it directly).
        assert [op for owner, op in calls if owner is san] == [Opcode.LD]
        assert san.report.counts == {"oob": 1}
