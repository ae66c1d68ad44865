"""Outside-in tracing: spans recorded around public layer methods.

:class:`SpanRecorder` wraps methods at class level (and module functions)
for the duration of one traced pass, and records one span per call: its
layer, start, end, parent span and job id.  Spans are kept in compact
arrays in memory and written out once, at the end of the run.  A layer's
*self time* is the total duration of its spans minus the part covered by
their child spans, so nested layers are never counted twice and the self
times of every span in a tree sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: Benchmark-owned spans: a pass and each job in it.  Their self time is
#: the benchmark's residual (JobSpec/Device plumbing, host-side drivers,
#: digests), i.e. everything no wrapped layer covers.
PASS, JOB = "bench.pass", "bench.job"

#: layer -> the ``module:Owner.method`` (or ``module:function``) entry
#: points whose calls belong to it.
HOOKS: Dict[str, Tuple[str, ...]] = {
    "sim.warp": (
        "repro.sim.fast_warp:FastWarp.step",
        "repro.sim.fast_warp:FastWarp.step_window",
        "repro.sim.fast_warp:FastWarp.step_free_window",
    ),
    "sim.sched": ("repro.sim.gpu:GPU.run",),
    "memory.access": (
        "repro.memory.dram:MemorySubsystem.warp_access",
        "repro.memory.dram:MemorySubsystem.warp_access_list",
        "repro.memory.dram:MemorySubsystem.warp_access_batch",
    ),
    "launch.kmu": (
        "repro.sim.kmu:KernelManagementUnit.enqueue_host",
        "repro.sim.kmu:KernelManagementUnit.enqueue_device",
        "repro.sim.kmu:KernelManagementUnit.try_dispatch",
    ),
    "launch.distribute": (
        "repro.sim.smx_scheduler:SMXScheduler.mark",
        "repro.sim.smx_scheduler:SMXScheduler.notify",
        "repro.sim.smx_scheduler:SMXScheduler.distribute",
        "repro.sim.kernel_distributor:KernelDistributor.allocate",
        "repro.sim.kernel_distributor:KernelDistributor.free",
        "repro.sim.kernel_distributor:KernelDistributor.find_eligible",
    ),
    "launch.place": ("repro.sim.smx:SMX.add_block",),
    "launch.aggregate": (
        "repro.sim.gpu:DeviceRuntime.submit_device_launches",
        "repro.sim.gpu:DeviceRuntime.submit_agg_launches",
        "repro.sim.smx_scheduler:SMXScheduler.process_aggregation",
    ),
    "launch.retire": (
        "repro.sim.smx:SMX.warp_retired",
        "repro.sim.smx:SMX.block_finished",
        "repro.sim.smx_scheduler:SMXScheduler.on_block_complete",
    ),
    "sanitizer.observe": ("repro.sim.sanitizer:Sanitizer.observe",),
    "isa.transform": (
        "repro.isa.dynopt:transform_kernels",
        "repro.runtime.persistent:PersistentRuntime.transform",
    ),
    "exec.fingerprint": ("repro.exec.jobspec:JobSpec.fingerprint",),
    "exec.cache_store": ("repro.exec.cache:ResultCache.store",),
    "exec.cache_load": ("repro.exec.cache:ResultCache.load",),
}

#: Workload-contract methods, wrapped on each concrete Workload class.
WORKLOAD_HOOKS = {
    "workloads.build": "build_kernels",
    "workloads.upload": "setup",
    "workloads.check": "check",
}

#: Recorded outside any class: input generation during set-up.
DATASET = "workloads.dataset"

LAYERS: Tuple[str, ...] = (
    (PASS, JOB, DATASET) + tuple(HOOKS) + tuple(WORKLOAD_HOOKS)
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.codes = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.job = -1
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []
        #: The GPU of the running job; the benchmark takes and clears it.
        self.gpu = None
        #: Kernels returned by the IR transforms.
        self.kernels_out = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, code: int) -> int:
        i = len(self.start)
        self.layer.append(code)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.job_of.append(self.job)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        i = self._open(self.codes[layer])
        try:
            yield
        finally:
            self._close(i)

    def _wrapper(self, fn, code: int, layer_name: str):
        layer, start, end = self.layer, self.start, self.end
        parent, job_of, stack = self.parent, self.job_of, self._stack
        perf = time.perf_counter
        rec = self

        # _open/_close inlined: this runs millions of times per traced pass.
        def traced(*args, **kwargs):
            i = len(start)
            layer.append(code)
            parent.append(stack[-1])
            job_of.append(rec.job)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()

        if layer_name == "sim.sched":
            # Remember the job's GPU so the benchmark can read its L2
            # statistics once the job ends.
            def traced_run(gpu, *args, **kwargs):
                rec.gpu = gpu
                return traced(gpu, *args, **kwargs)

            return traced_run
        if layer_name == "isa.transform":
            def traced_transform(*args, **kwargs):
                kernels = traced(*args, **kwargs)
                rec.kernels_out += len(kernels)
                return kernels

            return traced_transform
        return traced

    def _patch(self, owner, attr: str, layer: str) -> None:
        fn = getattr(owner, attr)
        # A class may inherit the method: restoring then means deleting.
        saved = owner.__dict__.get(attr) if isinstance(owner, type) else fn
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, self._wrapper(fn, self.codes[layer], layer))

    @contextlib.contextmanager
    def installed(self, workload_classes):
        """Wrap every hook (and the given Workload classes) while active."""
        try:
            for layer, targets in HOOKS.items():
                for target in targets:
                    self._patch(*_resolve(target), layer)
            for cls in workload_classes:
                for layer, attr in WORKLOAD_HOOKS.items():
                    self._patch(cls, attr, layer)
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                if original is None:
                    delattr(owner, attr)  # was inherited, not defined here
                else:
                    setattr(owner, attr, original)
            self._saved.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job_of, dtype=np.int32),
        }

    def summary(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer self seconds and call counts over all spans."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - covered
        n = len(LAYERS)
        seconds = np.bincount(a["layer"], weights=self_time, minlength=n)
        calls = np.bincount(a["layer"], minlength=n)
        return (
            {name: float(seconds[i]) for i, name in enumerate(LAYERS)},
            {name: int(calls[i]) for i, name in enumerate(LAYERS)},
        )

    def save(self, path) -> None:
        """Write every span (and the layer names) as an ``.npz`` file."""
        np.savez(path, layers=np.array(LAYERS), **self.arrays())
