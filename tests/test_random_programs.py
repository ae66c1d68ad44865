"""Property tests: random structured programs vs a Python evaluator.

Hypothesis generates small ASTs of arithmetic, divergent ``if``s and
bounded ``while`` loops over a per-lane accumulator.  Each AST is lowered
twice: through the KernelBuilder onto the simulated GPU, and through a
direct Python evaluator.  Per-lane results must match exactly — this
stresses the PDOM reconvergence stack with arbitrary nesting shapes.

The memory-op differential fuzz extends the grammar with global
loads/stores at computed and immediate addresses, shared-memory staging
separated by barriers (broadcasts and 2- and 32-way bank conflicts
included), and all six atomics at immediate addresses and with lanes
colliding on a word, and runs every program through all three
execution cores (reference, fast and vector) with the sanitizer enabled:
results must match the evaluator exactly and the sanitizer must stay
clean.  A second, unsanitized pass compares the cores' full
:class:`~repro.sim.stats.SimStats` — that is the path where the vector
core's group dispatcher actually engages (the sanitizer forces its
per-warp fallback), so it is the differential that guards batched
execution.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction

from tests.helpers import make_device, map_kernel

# AST node encodings:
#   ("op", name, imm)      acc = acc <op> imm
#   ("if", cmp, imm, body) if acc <cmp> imm: body
#   ("while", imm, body)   while acc < imm: body + forced progress (acc += step)

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "xor": lambda a, b: a ^ b,
    "min": min,
    "max": max,
}

_CMPS = {
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
}


def _ast(depth: int):
    op_node = st.tuples(
        st.just("op"), st.sampled_from(sorted(_OPS)), st.integers(-9, 9)
    )
    if depth == 0:
        return st.lists(op_node, min_size=1, max_size=4)
    sub = _ast(depth - 1)
    if_node = st.tuples(
        st.just("if"), st.sampled_from(sorted(_CMPS)), st.integers(-20, 20), sub
    )
    while_node = st.tuples(
        st.just("while"), st.integers(0, 30), st.integers(1, 5), sub
    )
    return st.lists(st.one_of(op_node, if_node, while_node), min_size=1, max_size=4)


def emit(k, acc, nodes) -> None:
    for node in nodes:
        kind = node[0]
        if kind == "op":
            _, name, imm = node
            builder_op = {
                "add": k.iadd, "sub": k.isub, "mul": k.imul,
                "xor": k.ixor, "min": k.imin, "max": k.imax,
            }[name]
            builder_op(acc, imm, dst=acc)
        elif kind == "if":
            _, cmp_name, imm, body = node
            pred = {"lt": k.lt, "ge": k.ge, "eq": k.eq}[cmp_name](acc, imm)
            with k.if_(pred):
                emit(k, acc, body)
        else:  # while
            _, bound, step, body = node
            guard = k.mov(0)  # bounded trip count for termination
            with k.while_(lambda: k.iand(k.lt(acc, bound), k.lt(guard, 8))):
                emit(k, acc, body)
                k.iadd(acc, step, dst=acc)  # forced progress
                k.iadd(guard, 1, dst=guard)


def _wrap64(value: int) -> int:
    """Two's-complement int64 wrap-around (the GPU's register width)."""
    return ((value + (1 << 63)) % (1 << 64)) - (1 << 63)


def evaluate(value: int, nodes) -> int:
    acc = value
    for node in nodes:
        kind = node[0]
        if kind == "op":
            _, name, imm = node
            acc = _wrap64(_OPS[name](acc, imm))
        elif kind == "if":
            _, cmp_name, imm, body = node
            if _CMPS[cmp_name](acc, imm):
                acc = evaluate(acc, body)
        else:
            _, bound, step, body = node
            guard = 0
            while acc < bound and guard < 8:
                acc = evaluate(acc, body)
                acc = _wrap64(acc + step)
                guard += 1
    return acc


class TestRandomStructuredPrograms:
    @settings(max_examples=20, deadline=None)
    @given(
        nodes=_ast(depth=2),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=64),
    )
    def test_gpu_matches_evaluator(self, nodes, data):
        def body(k, v):
            acc = k.mov(v)
            emit(k, acc, nodes)
            return acc

        func = map_kernel("rand_prog", body)
        dev = make_device()
        dev.register(func)
        arr = np.asarray(data, dtype=np.int64)
        src = dev.upload(arr)
        dst = dev.alloc(len(arr))
        dev.launch(
            "rand_prog",
            grid=(len(arr) + 63) // 64,
            block=64,
            params=[len(arr), src, dst],
        )
        dev.synchronize()
        got = dev.download_ints(dst, len(arr))
        expected = np.array([evaluate(int(v), nodes) for v in data], dtype=np.int64)
        np.testing.assert_array_equal(got, expected)


# ======================================================================
# Memory-op differential fuzz
# ======================================================================
# Top-level phase encodings (uniform control flow, so barriers are legal):
#   ("ops", nodes)       per-lane arithmetic AST from _ast() above
#   ("shared", shift)    sts(tid, acc); bar(); acc += smem[(tid+shift)%B]; bar()
#   ("global", salt)     scratch[gtid*4 + (acc&3)] = acc^salt; acc += loaded back
#   ("atomic", imm)      atom_add(counter, (acc&7)+1); acc ^= imm
#   ("imm_global", salt) immediate-address ld/fld of host-initialised cells,
#                        same-value st/fst by every thread, one-lane st of acc
#   ("imm_atomic", op, imm)  warp 0 applies `op` to one immediate-address cell
#                        in lane order (acc += old); every thread then hits a
#                        second cell with an order-independent final value
#   ("collide", op, imm) register-address `op`: eight lanes per word, each
#                        word private to one warp (acc += old)
#   ("bank", stride, shift)  shared memory at stride 0 (one-lane immediate
#                        store, immediate and register broadcast loads),
#                        2 (2-way bank conflict) or 32 (32-way)
#   ("dup", shift)       lanes store to one shared word in pairs, warp 0 stores
#                        to one immediate global word: the last lane lands.
#                        The sanitizer reports both, so unsanitized runs only.
# Phase i owns int cells [icells + _CELLS*i, +_CELLS) and float cells
# [fcells + 2*i, +2); the kernel is built after allocation, so every
# immediate address is a literal.

_BLOCK = 64
_STRIDES = (0, 2, 32)
_SHARED_WORDS = _BLOCK * max(_STRIDES)
_MAX_PHASES = 5
_CELLS = 32  # >= 4 words per warp of the largest grid (2 blocks) for collide
_ATOMS = ("add", "min", "max", "or", "exch", "cas")
_RMW = {
    "add": lambda cur, b, c: _wrap64(cur + b),
    "min": lambda cur, b, c: min(cur, b),
    "max": lambda cur, b, c: max(cur, b),
    "or": lambda cur, b, c: cur | b,
    "exch": lambda cur, b, c: b,
    "cas": lambda cur, b, c: c if cur == b else cur,
}


def _icells_init() -> np.ndarray:
    # Values 0..3, so CAS compares (acc & 3) match for some lanes.
    return np.arange(_CELLS * _MAX_PHASES, dtype=np.int64) * 5 % 4


def _fcells_init() -> np.ndarray:
    return np.arange(2 * _MAX_PHASES, dtype=np.float64) + 0.25


def _phases(dup: bool = False):
    atom = st.sampled_from(_ATOMS)
    kinds = [
        st.tuples(st.just("ops"), _ast(depth=1)),
        st.tuples(st.just("shared"), st.integers(1, _BLOCK - 1)),
        st.tuples(st.just("global"), st.integers(0, 15)),
        st.tuples(st.just("atomic"), st.integers(0, 31)),
        st.tuples(st.just("imm_global"), st.integers(0, 15)),
        st.tuples(st.just("imm_atomic"), atom, st.integers(0, 31)),
        st.tuples(st.just("collide"), atom, st.integers(0, 31)),
        st.tuples(
            st.just("bank"), st.sampled_from(_STRIDES), st.integers(0, _BLOCK - 1)
        ),
    ]
    if dup:
        kinds.append(st.tuples(st.just("dup"), st.integers(0, _BLOCK - 1)))
    return st.lists(st.one_of(kinds), min_size=1, max_size=_MAX_PHASES)


def _emit_atom(k, name, addr, acc, imm):
    """``name`` on ``addr``: CAS swaps (acc>>2)&3 in where acc&3 matches,
    the others apply (acc&255)^imm.  Returns the old-value register."""
    if name == "cas":
        return k.atom_cas(addr, k.iand(acc, 3), k.iand(k.ishr(acc, 2), 3))
    op = getattr(k, f"atom_{name}")
    return op(addr, k.ixor(k.iand(acc, 255), imm))


def _atom_operands(name, acc, imm):
    if name == "cas":
        return acc & 3, (acc >> 2) & 3
    return (acc & 255) ^ imm, None


def build_mem_fuzz(phases, icells: int, fcells: int) -> KernelFunction:
    """Params: [n, src, dst, scratch, counter].  All block threads
    participate (inactive tails carry acc = 0) so the barriers in shared
    phases are uniform; only the final store is guarded."""
    k = KernelBuilder("mem_fuzz")
    gtid = k.gtid()
    tid = k.tid()
    param = k.param()
    n = k.ld(param, offset=0)
    src = k.ld(param, offset=1)
    dst = k.ld(param, offset=2)
    scratch = k.ld(param, offset=3)
    counter = k.ld(param, offset=4)
    acc = k.mov(0)
    with k.if_(k.lt(gtid, n)):
        k.ld(k.iadd(src, gtid), dst=acc)
    for i, (kind, *args) in enumerate(phases):
        cell = icells + _CELLS * i
        fcell = fcells + 2 * i
        if kind == "ops":
            emit(k, acc, args[0])
        elif kind == "shared":
            k.sts(tid, acc)
            k.bar()
            other = k.lds(k.imod(k.iadd(tid, args[0]), _BLOCK))
            k.iadd(acc, other, dst=acc)
            k.bar()
        elif kind == "global":
            addr = k.iadd(scratch, k.iadd(k.imul(gtid, 4), k.iand(acc, 3)))
            k.st(addr, k.ixor(acc, args[0]))
            k.iadd(acc, k.ld(addr), dst=acc)
        elif kind == "atomic":
            k.atom_add(counter, k.iadd(k.iand(acc, 7), 1))
            k.ixor(acc, args[0], dst=acc)
        elif kind == "imm_global":
            salt = args[0]
            k.st(cell + 1, salt)
            k.fst(fcell + 1, salt + 0.5)
            with k.if_(k.eq(gtid, 0)):
                k.st(cell + 2, acc)
            k.iadd(acc, k.ld(cell), dst=acc)
            k.iadd(acc, k.ftoi(k.fld(fcell)), dst=acc)
        elif kind == "imm_atomic":
            name, imm = args
            with k.if_(k.lt(gtid, 32)):
                k.iadd(acc, _emit_atom(k, name, cell, acc, imm), dst=acc)
            if name == "exch":
                k.atom_exch(cell + 1, imm)
            elif name == "cas":
                k.atom_cas(cell + 1, int(_icells_init()[_CELLS * i + 1]), imm)
            else:
                getattr(k, f"atom_{name}")(cell + 1, k.iand(acc, 15))
        elif kind == "collide":
            name, imm = args
            word = k.iadd(k.ishl(k.ishr(gtid, 5), 2), k.iand(gtid, 3))
            old = _emit_atom(k, name, k.iadd(word, cell), acc, imm)
            k.iadd(acc, old, dst=acc)
        elif kind == "bank":
            stride, shift = args
            if stride == 0:
                with k.if_(k.eq(tid, shift)):
                    k.sts(shift, acc)
                k.bar()
                k.iadd(acc, k.lds(shift), dst=acc)
                k.iadd(acc, k.lds(k.mov(shift)), dst=acc)
            else:
                k.sts(k.imul(tid, stride), acc)
                k.bar()
                other = k.imul(k.imod(k.iadd(tid, shift), _BLOCK), stride)
                k.iadd(acc, k.lds(other), dst=acc)
            k.bar()
        else:  # dup
            k.sts(k.ishr(tid, 1), acc)
            k.bar()
            other = k.ishr(k.imod(k.iadd(tid, args[0]), _BLOCK), 1)
            k.iadd(acc, k.lds(other), dst=acc)
            k.bar()
            with k.if_(k.lt(gtid, 32)):
                k.st(cell, acc)
                k.fst(fcell, k.itof(acc))
    with k.if_(k.lt(gtid, n)):
        k.st(k.iadd(dst, gtid), acc)
    k.exit()
    return KernelFunction("mem_fuzz", k.build(), shared_words=_SHARED_WORDS)


def evaluate_mem_fuzz(data, phases, blocks):
    """The same program over all ``blocks * _BLOCK`` threads in Python.

    Returns ``(dst, scratch, counter, icells, fcells)``."""
    total = blocks * _BLOCK
    acc = [int(data[g]) if g < len(data) else 0 for g in range(total)]
    scratch = np.zeros(total * 4, dtype=np.int64)
    counter = 0
    icells = _icells_init().tolist()
    fcells = _fcells_init().tolist()
    for i, (kind, *args) in enumerate(phases):
        cell = _CELLS * i
        fcell = 2 * i
        if kind == "ops":
            acc = [evaluate(a, args[0]) for a in acc]
        elif kind == "shared":
            for b in range(blocks):
                base = b * _BLOCK
                smem = acc[base:base + _BLOCK]
                for t in range(_BLOCK):
                    acc[base + t] = _wrap64(acc[base + t] + smem[(t + args[0]) % _BLOCK])
        elif kind == "global":
            for g in range(total):
                value = acc[g] ^ args[0]
                scratch[g * 4 + (acc[g] & 3)] = value
                acc[g] = _wrap64(acc[g] + value)
        elif kind == "atomic":
            for g in range(total):
                counter += (acc[g] & 7) + 1
                acc[g] ^= args[0]
        elif kind == "imm_global":
            icells[cell + 1] = args[0]
            fcells[fcell + 1] = args[0] + 0.5
            icells[cell + 2] = acc[0]
            loaded = icells[cell] + int(fcells[fcell])
            acc = [_wrap64(a + loaded) for a in acc]
        elif kind == "imm_atomic":
            name, imm = args
            rmw = _RMW[name]
            for g in range(32):
                b, c = _atom_operands(name, acc[g], imm)
                old = icells[cell]
                icells[cell] = rmw(old, b, c)
                acc[g] = _wrap64(acc[g] + old)
            if name == "exch":
                icells[cell + 1] = imm
            elif name == "cas":
                icells[cell + 1] = imm
            else:
                for g in range(total):
                    icells[cell + 1] = rmw(icells[cell + 1], acc[g] & 15, None)
        elif kind == "collide":
            name, imm = args
            rmw = _RMW[name]
            for g in range(total):
                word = cell + (g >> 5) * 4 + (g & 3)
                b, c = _atom_operands(name, acc[g], imm)
                old = icells[word]
                icells[word] = rmw(old, b, c)
                acc[g] = _wrap64(acc[g] + old)
        elif kind == "bank":
            stride, shift = args
            for b in range(blocks):
                base = b * _BLOCK
                old = acc[base:base + _BLOCK]
                for t in range(_BLOCK):
                    if stride == 0:
                        add = 2 * old[shift]
                    else:
                        add = old[(t + shift) % _BLOCK]
                    acc[base + t] = _wrap64(old[t] + add)
        else:  # dup: the odd lane of each pair lands
            for b in range(blocks):
                base = b * _BLOCK
                old = acc[base:base + _BLOCK]
                for t in range(_BLOCK):
                    word = ((t + args[0]) % _BLOCK) >> 1
                    acc[base + t] = _wrap64(old[t] + old[2 * word + 1])
            icells[cell] = acc[31]
            fcells[fcell] = float(acc[31])
    out = np.array([acc[g] for g in range(len(data))], dtype=np.int64)
    return (
        out, scratch, counter,
        np.array(icells, dtype=np.int64), np.array(fcells, dtype=np.float64),
    )


def _run_mem_fuzz(phases, data, blocks, core, sanitize):
    """One run; returns (dst, scratch, counter, icells, fcells, stats
    fingerprint)."""
    config = dataclasses.replace(GPUConfig.k20c(), core=core)
    dev = Device(config=config, mode=ExecutionMode.FLAT, sanitize=sanitize)
    n = len(data)
    src = dev.upload(np.asarray(data, dtype=np.int64))
    dst = dev.alloc(n)
    scratch = dev.alloc(blocks * _BLOCK * 4)
    counter = dev.alloc(1)
    dev.write_int(counter.addr, 0)
    icells = dev.upload(_icells_init())
    fcells = dev.upload(_fcells_init())
    dev.register(build_mem_fuzz(phases, int(icells), int(fcells)))
    dev.launch("mem_fuzz", grid=blocks, block=_BLOCK,
               params=[n, src, dst, scratch, counter])
    dev.synchronize()
    if sanitize:
        assert dev.sanitizer_report().clean, dev.sanitizer_report().format()
    from tests.test_fast_core_differential import fingerprint

    return (
        dst.download(), scratch.download(), dev.read_int(counter.addr),
        icells.download(), fcells.download(), fingerprint(dev.stats),
    )


#: Pinned programs that reach every new phase form whatever Hypothesis
#: draws: each stride, every atomic op both at an immediate address and
#: with colliding lanes, and (unsanitized only) the duplicate stores.
_DATA = [(i * 7) % 61 - 30 for i in range(2 * _BLOCK - 5)]
_PINNED = [
    [("bank", 0, 5), ("bank", 2, 3), ("bank", 32, 1), ("imm_global", 3),
     ("collide", "add", 11)],
    [("imm_atomic", "add", 5), ("imm_atomic", "min", 5), ("imm_atomic", "max", 5),
     ("collide", "or", 9), ("collide", "exch", 2)],
    [("imm_atomic", "or", 1), ("imm_atomic", "exch", 4), ("imm_atomic", "cas", 2),
     ("collide", "cas", 3), ("collide", "min", 6)],
    [("collide", "max", 0), ("imm_global", 9), ("atomic", 4), ("shared", 3)],
]
_PINNED_DUP = [[("dup", 7), ("bank", 32, 2), ("imm_global", 1)]]


def _pinned(programs):
    def wrap(test):
        for phases in programs:
            test = example(phases=phases, data=_DATA)(test)
        return test

    return wrap


def _assert_matches_evaluator(got, expected):
    for got_part, want in zip(got, expected):
        np.testing.assert_array_equal(got_part, want)


class TestMemoryOpFuzz:
    @settings(max_examples=15, deadline=None)
    @_pinned(_PINNED)
    @given(
        phases=_phases(),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=2 * _BLOCK),
    )
    def test_all_cores_match_evaluator(self, phases, data):
        blocks = (len(data) + _BLOCK - 1) // _BLOCK
        expected = evaluate_mem_fuzz(data, phases, blocks)
        for core in ("fast", "reference", "vector"):
            got = _run_mem_fuzz(phases, data, blocks, core, sanitize=True)
            _assert_matches_evaluator(got[:5], expected)

    @settings(max_examples=15, deadline=None)
    @_pinned(_PINNED + _PINNED_DUP)
    @given(
        phases=_phases(dup=True),
        data=st.lists(st.integers(-30, 30), min_size=1, max_size=2 * _BLOCK),
    )
    def test_unsanitized_cores_agree_bit_exactly(self, phases, data):
        """Results *and* SimStats identical across cores without the
        sanitizer — the configuration where group dispatch runs.  Adds
        the duplicate-store phase the sanitizer (rightly) reports."""
        blocks = (len(data) + _BLOCK - 1) // _BLOCK
        expected = evaluate_mem_fuzz(data, phases, blocks)
        baseline = None
        for core in ("reference", "fast", "vector"):
            got = _run_mem_fuzz(phases, data, blocks, core, sanitize=False)
            _assert_matches_evaluator(got[:5], expected)
            current = tuple(x.tolist() if hasattr(x, "tolist") else x for x in got)
            if baseline is None:
                baseline = current
            else:
                assert current == baseline, f"core {core!r} diverged"
