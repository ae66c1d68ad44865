"""Failure injection: error paths must fail loudly and informatively."""

import dataclasses

import numpy as np
import pytest

from repro import Device, ExecutionMode, GPUConfig, KernelBuilder, KernelFunction
from repro.errors import (
    ExecutionError,
    LaunchError,
    MemoryError_,
    SimulationError,
)

from tests.helpers import make_device

WARP = 32


class TestMemoryFaults:
    def test_wild_load_faults(self):
        k = KernelBuilder("wild")
        k.ld(k.mov(1 << 40))
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("wild", k.build()))
        dev.launch("wild", grid=1, block=32)
        with pytest.raises(ExecutionError, match="out of range"):
            dev.synchronize()

    def test_negative_store_faults(self):
        k = KernelBuilder("neg")
        k.st(k.mov(-5), 1)
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("neg", k.build()))
        dev.launch("neg", grid=1, block=32)
        with pytest.raises(ExecutionError):
            dev.synchronize()

    def test_shared_overflow_faults(self):
        k = KernelBuilder("shof")
        k.sts(k.mov(100), 1)
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("shof", k.build(), shared_words=8))
        dev.launch("shof", grid=1, block=32)
        with pytest.raises(ExecutionError, match="shared"):
            dev.synchronize()

    def test_atomic_out_of_range(self):
        k = KernelBuilder("atof")
        k.atom_add(k.mov(1 << 40), 1)
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("atof", k.build()))
        dev.launch("atof", grid=1, block=32)
        with pytest.raises(ExecutionError, match="atomic"):
            dev.synchronize()

    def test_atomic_fault_leaves_memory_identical_across_cores(self):
        """31 in-range lanes and one wild lane: every core raises the
        same message before any lane has updated memory."""
        outcomes = []
        for core in ("reference", "fast", "vector"):
            dev = make_device(config=dataclasses.replace(GPUConfig.k20c(), core=core))
            buf = dev.alloc(WARP)
            k = KernelBuilder("atof_lane")
            tid = k.tid()
            addr = k.selp(k.eq(tid, WARP - 1), 1 << 40, k.iadd(k.ld(k.param()), tid))
            k.atom_add(addr, 1)
            k.exit()
            dev.register(KernelFunction("atof_lane", k.build()))
            dev.launch("atof_lane", grid=1, block=WARP, params=[buf])
            with pytest.raises(ExecutionError, match="atomic out of range") as info:
                dev.synchronize()
            outcomes.append((str(info.value), buf.download().tolist()))
        assert outcomes[0][1] == [0] * WARP
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_device_memory_exhaustion(self):
        dev = Device(memory_words=4096)
        with pytest.raises(MemoryError_, match="out of simulated global memory"):
            dev.alloc(100_000)


class TestLaunchFaults:
    def test_oversized_block_rejected_at_host(self):
        dev = make_device()
        k = KernelBuilder("k")
        k.exit()
        dev.register(KernelFunction("k", k.build()))
        with pytest.raises(LaunchError):
            dev.launch("k", grid=1, block=4096)

    def test_oversized_device_launch_faults(self):
        # A child block exceeding the limit is rejected when the device
        # launch command is validated.
        k = KernelBuilder("parent")
        tid = k.tid()
        with k.if_(k.eq(tid, 0)):
            buf = k.get_param_buffer(1)
            k.launch_agg("parent", buf, agg=1, block=4096)
        k.exit()
        dev = Device(mode=ExecutionMode.DTBL_IDEAL)
        dev.register(KernelFunction("parent", k.build()))
        dev.launch("parent", grid=1, block=32)
        with pytest.raises(LaunchError):
            dev.synchronize()

    def test_unknown_child_kernel_faults(self):
        k = KernelBuilder("parent")
        tid = k.tid()
        with k.if_(k.eq(tid, 0)):
            buf = k.get_param_buffer(1)
            k.launch_agg("missing", buf, agg=1, block=32)
        k.exit()
        dev = Device(mode=ExecutionMode.DTBL_IDEAL)
        dev.register(KernelFunction("parent", k.build()))
        dev.launch("parent", grid=1, block=32)
        with pytest.raises(KeyError):
            dev.synchronize()


class TestDiagnostics:
    def test_watchdog_message_mentions_cycles(self):
        k = KernelBuilder("forever")
        i = k.mov(0)
        with k.while_(lambda: k.ge(i, 0)):
            k.iadd(i, 1, dst=i)
        k.exit()
        dev = make_device()
        dev.register(KernelFunction("forever", k.build()))
        dev.launch("forever", grid=1, block=32)
        with pytest.raises(SimulationError, match="watchdog"):
            dev.synchronize(max_cycles=30_000)

    def test_errors_share_base_class(self):
        from repro.errors import ReproError

        for exc in (ExecutionError, LaunchError, MemoryError_, SimulationError):
            assert issubclass(exc, ReproError)
