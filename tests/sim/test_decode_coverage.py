"""Decode coverage: every hot opcode the benchmarks emit decodes natively.

The fast core runs an instruction through the reference core's per-lane
handler whenever its ``_BUILDERS`` entry is missing or returns ``None``.
That is still stat-exact, only slow, so no differential test notices a
builder that starts returning ``None`` on a hot op.  This test decodes
every kernel the 16 benchmarks register under each of the nine modes —
after the dynopt and persistent rewrites, exactly as ``Workload`` runs
them — and fails on any fallback outside an explicit allow-list.
"""

from __future__ import annotations

import pytest

from repro import Device, ExecutionMode, KernelBuilder, KernelFunction
from repro.exec import JobSpec
from repro.isa.instructions import Opcode
from repro.sim.fast_warp import _BUILDERS
from repro.workloads.registry import benchmark_names, get_benchmark

SCALE = 0.05

#: Ops that keep the reference handler: the device-runtime calls, whose
#: cost is the launch path rather than decode, and cold warp ops.
REFERENCE_OPS = frozenset(
    {
        Opcode.LAUNCH_DEVICE,
        Opcode.LAUNCH_AGG,
        Opcode.GET_PARAM_BUF,
        Opcode.STREAM_CREATE,
        Opcode.LDL,
        Opcode.STL,
        Opcode.SHFL_IDX,
        Opcode.SHFL_DOWN,
        Opcode.VOTE_ANY,
        Opcode.VOTE_ALL,
        Opcode.VOTE_BALLOT,
    }
)


class _Registered(Exception):
    """Raised after a workload registered its kernels, before setup."""


def registered_kernels(name: str, mode: ExecutionMode, monkeypatch) -> list:
    """The kernel functions ``name`` registers under ``mode``, captured
    from the real execution path and stopped before any simulation."""
    captured = []
    workload = get_benchmark(name, mode, scale=SCALE)

    def stop(device):
        raise _Registered

    with monkeypatch.context() as patch:
        patch.setattr(Device, "register", lambda self, func: captured.append(func))
        patch.setattr(workload, "setup", stop)
        with pytest.raises(_Registered):
            workload.execute_spec(JobSpec.create(name, mode, SCALE, 1.0))
    return captured


def reference_fallbacks(func) -> set:
    """Opcodes of ``func`` that decode to a reference-handler fallback."""
    ops = set()
    for instr in func.program.instructions:
        builder = _BUILDERS.get(instr.op)
        if builder is None or builder(instr) is None:
            ops.add(instr.op)
    return ops


@pytest.mark.parametrize("name", benchmark_names())
def test_only_allowed_ops_fall_back(name, monkeypatch):
    unexpected = {}
    for mode in ExecutionMode:
        kernels = registered_kernels(name, mode, monkeypatch)
        assert kernels, f"{name} ({mode.value}) registered no kernels"
        for func in kernels:
            extra = reference_fallbacks(func) - REFERENCE_OPS
            if extra:
                key = f"{mode.value}/{func.name}"
                unexpected[key] = sorted(op.name for op in extra)
    assert not unexpected, f"{name}: ops decoded to the reference fallback: {unexpected}"


def test_guard_flags_a_fallback_on_a_hot_op():
    k = KernelBuilder("float_imm_addr")
    k.ld(1.5)  # a float immediate address: the reference's casts define it
    k.exit()
    func = KernelFunction("float_imm_addr", k.build())
    assert reference_fallbacks(func) - REFERENCE_OPS == {Opcode.LD}
