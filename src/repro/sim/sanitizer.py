"""Execution sanitizer: shadow-state correctness checks for the simulator.

DTBL's central claim is semantics preservation — dynamically launched,
coalesced thread blocks must behave exactly like their flat/CDP
equivalents — so the simulator needs a net that catches workloads (or
future core changes) that silently corrupt memory, deadlock a barrier or
launch malformed device-side grids.  When :attr:`repro.config.GPUConfig.sanitize`
is set (or the ``REPRO_SANITIZE`` environment variable is non-empty), a
:class:`Sanitizer` is attached to the GPU.  Every execution core calls
its :meth:`~Sanitizer.observe` hook at the issue cycle of each op it
checks: global and shared memory, ``BAR`` and device launches.  The
fast core skips warp-private ops, which are never checked, so sanitized
runs keep superblock fusion and run-ahead.  Because all cores issue the
checked ops in the same order at the same cycles (they are stat-exact
by construction), the sanitizer produces identical findings under any.

Shadow state and the clean-access proof
---------------------------------------
Each global word has one flags byte (``_flags``, the ``_F_*`` bits) and
last-writer / last-reader fields.  Most loads and atomics are proven
clean from one gather of the flags, in the spirit of FastTrack's
same-epoch fast path: every word addressable, plus for a plain load
every word initialized and no plain device write after the block's
launch/acquire horizon.  A proven access applies exactly the full
check's shadow update; anything unproven, and every store, takes the
full check, which emits every finding.

Detectors
---------
``data-race`` / ``shared-race``
    Per-word last-writer/last-reader shadow state over global memory and
    per-block shared memory.  Two accesses conflict when they touch the
    same word from different threads, at least one is a **non-atomic
    write**, and no ordering separates them:

    * same block: no barrier between them (same barrier *epoch*);
    * different blocks: the prior accessor's block is still resident;
    * either way, the prior access must not already be *ordered before*
      the current block's view of memory: accesses before the block
      started are ordered by the launch itself (this is what makes
      parent-writes-params -> child-reads clean), and accesses before
      the block's last atomic operation or plain read of an
      atomically-updated word are ordered by that acquire
      (work-queue-style idiom: payload written before an atomically
      claimed ticket, or before a published counter was observed, is
      treated as ordered — including producer/consumer warps inside one
      persistent block);
    * same warp, same instruction: duplicate store addresses across lanes
      **with differing values** (divergent lanes storing the same value to
      the same word is the idempotent flag-store idiom, e.g. graph
      coloring's conflict clear, and is deterministic).

    Write-write pairs are additionally suppressed when the second store
    rewrites exactly the value the first stored (tracked in a per-word
    last-value shadow): unordered same-value stores — e.g. many child
    blocks of one high-degree vertex clearing the same local-max flag —
    produce the same memory state in every interleaving.

    Any pair in which *either* access is atomic is treated as
    synchronized: atomic-vs-atomic is ordered by the memory system, and a
    plain access racing an atomic flag (SSSP's plain ``inflag[v] = 0``
    reset vs the ``atom_cas`` claim, or a plain stale read of an
    atomically updated word) is the intentional benign-race idiom these
    irregular workloads are built on.  Only plain-vs-plain conflicts with
    at least one write are reported.  Only the last access per word is
    remembered, so a race can be masked by an intervening access — a
    standard shadow-state approximation.

``oob`` / ``use-after-free``
    Every global access is checked against the bump allocator's live-range
    map: words outside any live allocation are flagged, and words that
    once belonged to a ``free()``d range are reported as use-after-free.
    Word 0 (the null address) is never addressable.

``uninit-read``
    A plain ``LD``/``FLD`` of an allocated word that no device store,
    atomic, or host write has initialized.

``barrier-divergence``
    A warp issuing ``BAR`` with a partial active mask (divergent lanes
    will never arrive), a warp arriving at a barrier after a sibling warp
    already exited, and a warp exiting while siblings wait at a barrier.

``bad-launch``
    ``LAUNCH_DEVICE`` / ``LAUNCH_AGG`` with non-positive grid or block
    dimensions (zero-dim aggregated groups), block shapes exceeding the
    SMX thread limit, or an unregistered kernel name.

Findings are structured :class:`SanitizerFinding` records collected in a
:class:`SanitizerReport`; every occurrence is counted, while full records
are stored once per (kind, kernel, pc) site so hot loops cannot blow up
the report.  The sanitizer never changes execution: timing, statistics
and memory contents are identical with it on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..config import WARP_SIZE
from ..isa.instructions import (
    ATOMIC_OPS,
    Bank,
    GLOBAL_WRITE_OPS,
    Opcode,
    Reg,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gpu import GPU
    from .thread_block import ThreadBlock
    from .warp import Warp

#: Plain (non-atomic) global loads.
_PLAIN_READS = frozenset({Opcode.LD, Opcode.FLD})

# Bits of the per-word flags byte (``Sanitizer._flags``).  A word's last
# writer is the host or nobody (no writer bit), a plain device store
# (``_F_W_PLAIN``, the writer race gate) or an atomic (``_F_W_ATOMIC``;
# this bit outlives a host write or re-allocation, as the acquire rule
# reads it whoever wrote last).  The reader bits mirror them.
_F_ADDR = 1  # inside a live allocation
_F_FREED = 2  # inside a freed allocation
_F_INIT = 4  # written by a device store, an atomic or the host
_F_W_PLAIN = 8
_F_W_ATOMIC = 16
_F_R_PLAIN = 32
_F_R_ATOMIC = 64

#: What a clean plain load needs of every word it reads.
_F_LOADABLE = _F_ADDR | _F_INIT

# The flags-byte update of each access class as a 256-entry table (one
# gather instead of two ufuncs).  A plain read, plain write or atomic
# rewrites the last-reader and/or last-writer class bits and leaves the
# others; writes and atomics also initialize the word.
_BYTES = np.arange(256)
_AFTER_READ = (_BYTES & ~_F_R_ATOMIC | _F_R_PLAIN).astype(np.uint8)
_AFTER_WRITE = (_BYTES & ~_F_W_ATOMIC | _F_W_PLAIN | _F_INIT).astype(np.uint8)
_AFTER_ATOMIC = (
    _BYTES & ~(_F_W_PLAIN | _F_R_PLAIN) | _F_W_ATOMIC | _F_R_ATOMIC | _F_INIT
).astype(np.uint8)


@dataclass(frozen=True)
class SanitizerFinding:
    """One structured sanitizer finding.

    ``address`` is a global word address (or a shared-memory word index
    for ``shared-race``); ``-1`` when not applicable.  ``lanes`` are the
    warp lanes involved at the reporting access.
    """

    kind: str
    cycle: int
    smx: int
    kernel: str
    pc: int
    address: int = -1
    lanes: Tuple[int, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        where = f"{self.kernel}@pc={self.pc}" if self.pc >= 0 else self.kernel
        addr = f" addr={self.address}" if self.address >= 0 else ""
        lanes = f" lanes={list(self.lanes)}" if self.lanes else ""
        return (
            f"[{self.kind}] cycle={self.cycle} smx={self.smx} {where}"
            f"{addr}{lanes}: {self.detail}"
        )

    def to_dict(self) -> dict:
        """All fields as a JSON-safe dictionary (exact round trip)."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "smx": self.smx,
            "kernel": self.kernel,
            "pc": self.pc,
            "address": self.address,
            "lanes": list(self.lanes),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SanitizerFinding":
        return cls(
            kind=data["kind"],
            cycle=data["cycle"],
            smx=data["smx"],
            kernel=data["kernel"],
            pc=data["pc"],
            address=data["address"],
            lanes=tuple(data["lanes"]),
            detail=data["detail"],
        )


def _repeated(addrs: np.ndarray) -> np.ndarray:
    """The addresses that occur more than once in ``addrs``, ascending."""
    ordered = np.sort(addrs)
    dup = ordered[1:] == ordered[:-1]
    if not dup.any():
        return ordered[:0]
    return np.unique(ordered[1:][dup])


class SanitizerReport:
    """Accumulated sanitizer findings.

    ``counts`` tracks every occurrence by kind; ``findings`` stores the
    first full record per (kind, kernel, pc) site, capped at
    ``max_records`` so a racy inner loop cannot make the report unbounded.
    """

    def __init__(self, max_records: int = 256) -> None:
        self.max_records = max_records
        self.counts: Dict[str, int] = {}
        self.findings: List[SanitizerFinding] = []
        self._sites: set = set()

    def add(self, finding: SanitizerFinding) -> None:
        self.counts[finding.kind] = self.counts.get(finding.kind, 0) + 1
        site = (finding.kind, finding.kernel, finding.pc)
        if site not in self._sites and len(self.findings) < self.max_records:
            self._sites.add(site)
            self.findings.append(finding)

    @property
    def clean(self) -> bool:
        """True iff no detector fired at all."""
        return not self.counts

    def total(self) -> int:
        return sum(self.counts.values())

    def by_kind(self, kind: str) -> List[SanitizerFinding]:
        return [f for f in self.findings if f.kind == kind]

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def to_dict(self) -> dict:
        """Counts and deduplicated findings, JSON-safe (exact round trip)."""
        return {
            "max_records": self.max_records,
            "counts": dict(self.counts),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SanitizerReport":
        report = cls(max_records=data["max_records"])
        report.counts = {kind: int(n) for kind, n in data["counts"].items()}
        report.findings = [
            SanitizerFinding.from_dict(finding) for finding in data["findings"]
        ]
        report._sites = {(f.kind, f.kernel, f.pc) for f in report.findings}
        return report

    def format(self) -> str:
        """Human-readable multi-line summary."""
        if self.clean:
            return "sanitizer: clean (no findings)"
        lines = [
            "sanitizer: "
            + ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.counts.items())
            )
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)


class Sanitizer:
    """Per-GPU shadow state and detectors (see the module docstring)."""

    def __init__(self, gpu: "GPU") -> None:
        self._gpu = gpu
        self.report = SanitizerReport()
        n = gpu.memory.size_words
        self._size = n
        # Per-word flags byte (the ``_F_*`` bits): allocator state plus
        # the atomic/plain-device class of the last writer and reader.
        # One extra, always-zero sentinel word at index ``n`` lets a
        # clipped gather (``take(mode="clip")``) double as the bounds
        # check: negative addresses clip to word 0 and addresses past the
        # end to the sentinel, neither of which is ever addressable.
        # np.zeros is calloc-backed, so pages for untouched regions of
        # the (virtual) address space stay lazy.
        self._flags = np.zeros(n + 1, dtype=np.uint8)
        # Per-word last-writer / last-reader shadow.  Thread fields hold
        # block-linear thread id + 1 (0 = none); block fields hold the
        # accessor's block uid.  All are read only under the word's
        # plain-device writer/reader bit, so allocation and host writes
        # clear the bits and leave the fields stale.
        self._w_block = np.zeros(n, dtype=np.int32)
        self._w_thread = np.zeros(n, dtype=np.int32)
        self._w_epoch = np.zeros(n, dtype=np.int32)
        self._w_cycle = np.zeros(n, dtype=np.int64)
        self._w_value = np.zeros(n, dtype=np.float64)
        self._r_block = np.zeros(n, dtype=np.int32)
        self._r_thread = np.zeros(n, dtype=np.int32)
        self._r_epoch = np.zeros(n, dtype=np.int32)
        self._r_cycle = np.zeros(n, dtype=np.int64)
        # Per-block tables, indexed by block uid (uid 0 = host sentinel).
        cap = 1024
        self._alive = np.zeros(cap, dtype=bool)
        self._start = np.zeros(cap, dtype=np.int64)
        self._fence = np.full(cap, -1, dtype=np.int64)
        self._uids = 0
        self._epochs: Dict[int, int] = {}
        self._shared: Dict[int, tuple] = {}
        self._bar_seen: set = set()

    # ------------------------------------------------------------------
    # Memory-allocator observer protocol (GlobalMemory.observer)
    # ------------------------------------------------------------------
    def on_alloc(self, base: int, words: int) -> None:
        # Addressable, not freed, uninitialized, host last writer/reader;
        # the atomic bits survive (a plain read of a word whose last
        # writer was atomic still acquires).
        flags = self._flags[base:min(base + words, self._size)]
        flags &= _F_W_ATOMIC | _F_R_ATOMIC
        flags |= _F_ADDR

    def on_free(self, base: int, words: int) -> None:
        flags = self._flags[base:min(base + words, self._size)]
        flags &= ~_F_ADDR & 0xFF
        flags |= _F_FREED

    def on_host_write(self, base: int, words: int) -> None:
        # Host writes happen while the device is idle: they initialize the
        # range and reset the race shadow (host access orders everything).
        flags = self._flags[base:min(base + words, self._size)]
        flags &= ~(_F_W_PLAIN | _F_R_PLAIN) & 0xFF
        flags |= _F_INIT

    # ------------------------------------------------------------------
    # Block lifecycle (SMX hooks)
    # ------------------------------------------------------------------
    def on_block_start(self, tb: "ThreadBlock", cycle: int) -> None:
        self._uids += 1
        uid = self._uids
        tb.san_uid = uid
        if uid >= self._alive.size:
            grow = self._alive.size * 2
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
            self._start = np.concatenate([self._start, np.zeros(grow, dtype=np.int64)])
            self._fence = np.concatenate([self._fence, np.full(grow, -1, dtype=np.int64)])
        self._alive[uid] = True
        self._start[uid] = cycle
        self._fence[uid] = -1
        self._epochs[uid] = 0

    def on_block_finished(self, tb: "ThreadBlock", cycle: int) -> None:
        uid = tb.san_uid
        self._alive[uid] = False
        self._epochs.pop(uid, None)
        self._shared.pop(uid, None)

    # ------------------------------------------------------------------
    # Barrier hooks (ThreadBlock)
    # ------------------------------------------------------------------
    def on_barrier_release(self, tb: "ThreadBlock") -> None:
        uid = tb.san_uid
        if uid in self._epochs:
            self._epochs[uid] += 1

    def on_barrier_after_exit(self, tb: "ThreadBlock", warp: "Warp", cycle: int) -> None:
        """A warp reached BAR although a sibling warp already exited."""
        key = (tb.san_uid, "arrive-after-exit")
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        self.report.add(
            SanitizerFinding(
                kind="barrier-divergence",
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=-1,
                detail=(
                    f"warp {warp.warp_index} arrived at a barrier after a "
                    f"sibling warp exited ({tb.alive_warps} of "
                    f"{len(tb.warps)} warps still alive)"
                ),
            )
        )

    def on_exit_during_barrier(self, tb: "ThreadBlock", warp: "Warp", cycle: int) -> None:
        """A warp exited while sibling warps wait at a barrier."""
        key = (tb.san_uid, "exit-during-barrier")
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        self.report.add(
            SanitizerFinding(
                kind="barrier-divergence",
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=-1,
                detail=(
                    f"warp {warp.warp_index} exited while sibling warps "
                    "wait at a barrier (barrier released by warp exit)"
                ),
            )
        )

    # ------------------------------------------------------------------
    # Per-instruction hook (both cores call this for every issued op
    # they can check: global and shared memory, BAR and launches)
    # ------------------------------------------------------------------
    def observe(self, warp: "Warp", pc: int, instr, mask: np.ndarray, cycle: int) -> None:
        check = _OBSERVERS.get(instr.op)
        if check is not None:
            check(self, warp, pc, instr, mask, cycle)

    # ------------------------------------------------------------------
    def _lane_values(self, warp: "Warp", operand, lanes: np.ndarray) -> np.ndarray:
        if type(operand) is Reg:
            return warp.regs_i[operand.idx][lanes]
        return np.full(lanes.size, operand.value, dtype=np.int64)

    def _stored_values(self, warp: "Warp", operand, lanes: np.ndarray) -> np.ndarray:
        """Per-lane values a store writes (float stores read the FLT bank)."""
        if type(operand) is Reg:
            bank = warp.regs_f if operand.bank is Bank.FLT else warp.regs_i
            return bank[operand.idx][lanes]
        return np.full(lanes.size, operand.value)

    def _emit(self, warp, pc, cycle, kind, address, lanes, detail) -> None:
        tb = warp.tb
        self.report.add(
            SanitizerFinding(
                kind=kind,
                cycle=cycle,
                smx=tb.smx.smx_id,
                kernel=tb.func.name,
                pc=pc,
                address=int(address),
                lanes=tuple(int(l) for l in np.atleast_1d(lanes)),
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Clean-access proofs for loads and atomics
    #
    # Each proof reads the flags of the accessed words once and succeeds
    # only when the full check (:meth:`_check_global`) provably finds
    # nothing: every word addressable (which also proves it in bounds,
    # see ``_flags``), plus, for a plain load, every word initialized and
    # no plain device writer after ``max(block start, last acquire)``.
    # A proven access then applies exactly the full check's shadow
    # update; anything unproven runs the full check, which reports.
    # ------------------------------------------------------------------
    def _observe_load(self, warp, pc, instr, mask, cycle) -> None:
        lanes = mask.nonzero()[0]
        if lanes.size == 0:
            return
        access = self._access(warp, instr, lanes)
        if access is None:
            self._check_global(warp, pc, instr, mask, cycle)
            return
        addrs, f, every, seen, tid1 = access
        if every & _F_LOADABLE != _F_LOADABLE:
            self._check_global(warp, pc, instr, mask, cycle)
            return
        uid = warp.tb.san_uid
        if seen & _F_W_PLAIN:
            late = self._w_cycle[addrs] > max(
                int(self._start[uid]), int(self._fence[uid])
            )
            if np.any(late & (f & _F_W_PLAIN != 0)):
                self._check_global(warp, pc, instr, mask, cycle)
                return
        self._r_block[addrs] = uid
        self._r_thread[addrs] = tid1
        self._r_epoch[addrs] = self._epochs.get(uid, 0)
        self._r_cycle[addrs] = cycle
        self._flags[addrs] = _AFTER_READ[f]
        if seen & _F_W_ATOMIC:
            self._fence[uid] = cycle

    def _observe_atomic(self, warp, pc, instr, mask, cycle) -> None:
        # Atomics skip both race checks and the uninit check: addressable
        # words are all the proof needs.
        lanes = mask.nonzero()[0]
        if lanes.size == 0:
            return
        access = self._access(warp, instr, lanes)
        if access is None or not access[2] & _F_ADDR:
            self._check_global(warp, pc, instr, mask, cycle)
            return
        addrs, f, _, _, tid1 = access
        uid = warp.tb.san_uid
        epoch = self._epochs.get(uid, 0)
        self._w_block[addrs] = uid
        self._w_thread[addrs] = tid1
        self._w_epoch[addrs] = epoch
        self._w_cycle[addrs] = cycle
        self._r_block[addrs] = uid
        self._r_thread[addrs] = tid1
        self._r_epoch[addrs] = epoch
        self._r_cycle[addrs] = cycle
        self._flags[addrs] = _AFTER_ATOMIC[f]
        self._fence[uid] = cycle

    def _access(self, warp, instr, lanes):
        """``(words, flags, AND of flags, OR of flags, thread ids + 1)``
        of one global access by ``lanes``, or ``None`` when its immediate
        address is outside memory (or not an int).

        A register address gives arrays over the lanes.  An immediate
        one gives scalars: every lane hits one word, and the full
        check's fancy assignment leaves the last active lane's thread id.
        """
        operand = instr.a
        if type(operand) is Reg:
            addrs = warp.regs_i[operand.idx][lanes]
            if instr.offset:
                addrs += instr.offset
            f = self._flags.take(addrs, mode="clip")
            return (
                addrs,
                f,
                np.bitwise_and.reduce(f),
                int(np.bitwise_or.reduce(f)),
                lanes + (warp.warp_index * WARP_SIZE + 1),
            )
        value = operand.value
        if type(value) is not int:
            return None
        a = value + instr.offset
        if not 0 <= a < self._size:
            return None
        f = int(self._flags[a])
        return a, f, f, f, warp.warp_index * WARP_SIZE + int(lanes[-1]) + 1

    # ------------------------------------------------------------------
    def _check_global(self, warp, pc, instr, mask, cycle) -> None:
        """Full check of one global access: every detector, then the
        shadow update."""
        lanes = mask.nonzero()[0]
        if lanes.size == 0:
            return
        addrs = self._lane_values(warp, instr.a, lanes) + instr.offset
        op = instr.op
        atomic = op in ATOMIC_OPS
        is_write = op in GLOBAL_WRITE_OPS
        is_read = not is_write or atomic  # atomics read-modify-write

        # Hard bounds (the execution core raises right after us for these).
        inb = (addrs >= 0) & (addrs < self._size)
        if not inb.all():
            bad = np.flatnonzero(~inb)[0]
            self._emit(
                warp, pc, cycle, "oob", addrs[bad], lanes[~inb],
                f"access outside simulated memory (addr {int(addrs[bad])})",
            )
            addrs = addrs[inb]
            lanes = lanes[inb]
            if lanes.size == 0:
                return

        # Live-range check: OOB vs use-after-free.
        f = self._flags[addrs]
        live = (f & _F_ADDR) != 0
        if not live.all():
            dead = ~live
            freed = ((f & _F_FREED) != 0) & dead
            if freed.any():
                i = int(np.flatnonzero(freed)[0])
                self._emit(
                    warp, pc, cycle, "use-after-free", addrs[i], lanes[freed],
                    f"access to freed allocation at word {int(addrs[i])}",
                )
            wild = dead & ~freed
            if wild.any():
                i = int(np.flatnonzero(wild)[0])
                self._emit(
                    warp, pc, cycle, "oob", addrs[i], lanes[wild],
                    f"access outside any live allocation at word {int(addrs[i])}",
                )

        # Uninitialized plain loads (atomics on fresh counters are common
        # and the RMW result is well-defined on the zeroed store; only
        # plain LD/FLD of never-written words are flagged).
        if op in _PLAIN_READS:
            uninit = live & ((f & _F_INIT) == 0)
            if uninit.any():
                i = int(np.flatnonzero(uninit)[0])
                self._emit(
                    warp, pc, cycle, "uninit-read", addrs[i], lanes[uninit],
                    f"read of uninitialized word {int(addrs[i])}",
                )

        # ---------------- race detection -------------------------------
        # Any pair involving an atomic access is treated as synchronized
        # (see the module docstring): only plain accesses are checked, and
        # only against plain prior accesses.
        uid = warp.tb.san_uid
        tid1 = lanes + (warp.warp_index * WARP_SIZE + 1)  # thread id + 1
        epoch = self._epochs.get(uid, 0)
        # Accesses ordered before max(block start, last own atomic) are
        # launch- or acquire-ordered with respect to this block.
        ordered_before = max(int(self._start[uid]), int(self._fence[uid]))
        plain_write = is_write and not atomic
        values = self._stored_values(warp, instr.b, lanes) if plain_write else None

        # Against the last plain writer of each word.
        if not atomic:
            gate = (f & _F_W_PLAIN) != 0
            if gate.any():
                wb = self._w_block[addrs]
                same = wb == uid
                conflict = gate & (self._w_cycle[addrs] > ordered_before) & (
                    (same & (self._w_thread[addrs] != tid1) & (self._w_epoch[addrs] == epoch))
                    | (~same & self._alive[wb])
                )
                if plain_write:
                    # A store that rewrites the last-written value is the
                    # idempotent flag-store idiom (outcome independent of
                    # order); only value-changing write-write pairs race.
                    conflict &= values != self._w_value[addrs]
                if conflict.any():
                    i = int(np.flatnonzero(conflict)[0])
                    a = int(addrs[i])
                    self._emit(
                        warp, pc, cycle, "data-race", a, lanes[conflict],
                        f"{'write' if is_write else 'read'} races prior write "
                        f"to word {a} by block uid {int(wb[i])} thread "
                        f"{int(self._w_thread[a]) - 1} at cycle {int(self._w_cycle[a])}",
                    )

        # A plain write also races prior plain reads by other threads.
        if plain_write:
            gate = (f & _F_R_PLAIN) != 0
            if gate.any():
                rb = self._r_block[addrs]
                same = rb == uid
                conflict = gate & (self._r_cycle[addrs] > ordered_before) & (
                    (same & (self._r_thread[addrs] != tid1) & (self._r_epoch[addrs] == epoch))
                    | (~same & self._alive[rb])
                )
                if conflict.any():
                    i = int(np.flatnonzero(conflict)[0])
                    a = int(addrs[i])
                    self._emit(
                        warp, pc, cycle, "data-race", a, lanes[conflict],
                        f"write races prior read of word {a} by block uid "
                        f"{int(rb[i])} thread {int(self._r_thread[a]) - 1} "
                        f"at cycle {int(self._r_cycle[a])}",
                    )

            # Duplicate store addresses within one instruction: divergent
            # lanes of the same warp writing *different values* to the
            # same word (same-value duplicates are the idempotent
            # flag-store idiom and execute deterministically).
            if addrs.size > 1:
                for a in _repeated(addrs):
                    sel = addrs == a
                    vals = values[sel]
                    if (vals != vals[0]).any():
                        self._emit(
                            warp, pc, cycle, "data-race", int(a), lanes[sel],
                            f"multiple lanes of one warp store differing "
                            f"values to word {int(a)} in the same "
                            "instruction",
                        )
                        break

        # ---------------- shadow update --------------------------------
        if is_write:
            self._w_block[addrs] = uid
            self._w_thread[addrs] = tid1
            self._w_epoch[addrs] = epoch
            self._w_cycle[addrs] = cycle
            if values is not None:
                self._w_value[addrs] = values
        if is_read:
            self._r_block[addrs] = uid
            self._r_thread[addrs] = tid1
            self._r_epoch[addrs] = epoch
            self._r_cycle[addrs] = cycle
        if atomic:
            self._flags[addrs] = _AFTER_ATOMIC[f]
        elif is_write:
            self._flags[addrs] = _AFTER_WRITE[f]
        else:
            self._flags[addrs] = _AFTER_READ[f]
        if atomic or (is_read and (f & _F_W_ATOMIC).any()):
            # Acquire: an atomic of our own, or a plain read of an
            # atomically-updated word (observing a published counter, as
            # persistent-thread work queues do before reading the payload).
            self._fence[uid] = cycle

    # ------------------------------------------------------------------
    def _check_shared(self, warp, pc, instr, mask, cycle) -> None:
        lanes = mask.nonzero()[0]
        if lanes.size == 0:
            return
        tb = warp.tb
        addrs = self._lane_values(warp, instr.a, lanes) + instr.offset
        size = tb.shared.size
        inb = (addrs >= 0) & (addrs < size)
        if not inb.all():  # the core raises ExecutionError right after us
            addrs = addrs[inb]
            lanes = lanes[inb]
            if lanes.size == 0:
                return
        uid = tb.san_uid
        shadow = self._shared.get(uid)
        if shadow is None:
            shadow = (
                np.zeros(size, dtype=np.int32),  # writer thread id + 1
                np.zeros(size, dtype=np.int32),  # writer epoch
                np.zeros(size, dtype=np.int32),  # reader thread id + 1
                np.zeros(size, dtype=np.int32),  # reader epoch
            )
            self._shared[uid] = shadow
        wt, we, rt, re = shadow
        tid1 = lanes + (warp.warp_index * WARP_SIZE + 1)
        epoch = self._epochs.get(uid, 0)
        is_write = instr.op is Opcode.STS

        w_conflict = (wt[addrs] != 0) & (wt[addrs] != tid1) & (we[addrs] == epoch)
        conflict = w_conflict
        if is_write:
            conflict = w_conflict | (
                (rt[addrs] != 0) & (rt[addrs] != tid1) & (re[addrs] == epoch)
            )
        if conflict.any():
            i = int(np.flatnonzero(conflict)[0])
            a = int(addrs[i])
            # Name the accessor whose clause matched at the reported lane.
            other = wt[a] if w_conflict[i] else rt[a]
            self._emit(
                warp, pc, cycle, "shared-race", a, lanes[conflict],
                f"{'store to' if is_write else 'load of'} shared word {a} "
                f"conflicts with thread {int(other) - 1} "
                "with no barrier in between",
            )
        if is_write and addrs.size > 1:
            repeated = _repeated(addrs)
            if repeated.size:
                a = int(repeated[0])
                self._emit(
                    warp, pc, cycle, "shared-race", a, lanes[addrs == a],
                    f"multiple lanes of one warp store to shared word {a} "
                    "in the same instruction",
                )

        if is_write:
            wt[addrs] = tid1
            we[addrs] = epoch
        else:
            rt[addrs] = tid1
            re[addrs] = epoch

    # ------------------------------------------------------------------
    def _check_bar(self, warp, pc, instr, mask, cycle) -> None:
        if np.array_equal(mask, warp.init_mask):
            return
        tb = warp.tb
        key = (tb.san_uid, warp.warp_index, pc)
        if key in self._bar_seen:
            return
        self._bar_seen.add(key)
        missing = np.flatnonzero(warp.init_mask & ~mask)
        self._emit(
            warp, pc, cycle, "barrier-divergence", -1, missing,
            f"warp {warp.warp_index} reached BAR with a partial active mask "
            f"({int(np.count_nonzero(mask))} of "
            f"{int(np.count_nonzero(warp.init_mask))} lanes); divergent "
            "lanes can never arrive",
        )

    # ------------------------------------------------------------------
    def _check_launch(self, warp, pc, instr, mask, cycle) -> None:
        lanes = mask.nonzero()[0]
        if lanes.size == 0:
            return
        if instr.kernel not in self._gpu.kernels:
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes,
                f"device launch of unregistered kernel {instr.kernel!r}",
            )
            return
        dims = [self._lane_values(warp, op, lanes) for op in instr.grid_dims]
        dims += [self._lane_values(warp, op, lanes) for op in instr.block_dims]
        nonpos = np.zeros(lanes.size, dtype=bool)
        for d in dims:
            nonpos |= d <= 0
        if nonpos.any():
            i = int(np.flatnonzero(nonpos)[0])
            shape = tuple(int(d[i]) for d in dims)
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes[nonpos],
                f"device launch with non-positive dimension: "
                f"grid={shape[:3]} block={shape[3:]}",
            )
        threads = dims[3] * dims[4] * dims[5]
        too_big = threads > self._gpu.config.max_resident_threads
        if too_big.any():
            i = int(np.flatnonzero(too_big)[0])
            self._emit(
                warp, pc, cycle, "bad-launch", -1, lanes[too_big],
                f"device launch block of {int(threads[i])} threads exceeds "
                f"the SMX limit of {self._gpu.config.max_resident_threads}",
            )


#: Per-opcode checks: every opcode :meth:`Sanitizer.observe` acts on.
_OBSERVERS = {
    Opcode.LD: Sanitizer._observe_load,
    Opcode.FLD: Sanitizer._observe_load,
    Opcode.ST: Sanitizer._check_global,
    Opcode.FST: Sanitizer._check_global,
    **{op: Sanitizer._observe_atomic for op in ATOMIC_OPS},
    Opcode.LDS: Sanitizer._check_shared,
    Opcode.STS: Sanitizer._check_shared,
    Opcode.BAR: Sanitizer._check_bar,
    Opcode.LAUNCH_DEVICE: Sanitizer._check_launch,
    Opcode.LAUNCH_AGG: Sanitizer._check_launch,
}
