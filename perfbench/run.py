#!/usr/bin/env python3
"""The repository's benchmark: seeded simulator workloads, timed on the host.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_modes --seed 0 --seconds 25 --trace 0

One *pass* executes the workload's job list once, serially, in this
process, on the default (fast) core with ``verify=True``: each job goes
through ``Workload.execute_spec(JobSpec)`` and its result through a fresh
``ResultCache`` (stored, read back, compared).  Passes repeat while another
one fits in ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics: medians over the passes, with
host time normalised by a host-speed probe timed before each job, and
``setup_s`` as the median over several fresh interpreters that import and
generate the inputs.  ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer split from spans recorded around the public layer
methods (see ``spans.py``); the spans are written to
``.perfbench-out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails on a
verification mismatch, a watchdog, a sanitizer finding, any other
exception, a cache round trip that does not read back equal, or a
statistics digest that differs between passes.  See ``DESIGN.md`` for the
reasoning behind the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters timed for ``setup_s`` per run.
SETUP_PROBES = 5

#: Seconds ``host_speed_probe`` took on the reference host (the 2-core
#: Xeon VM the benchmark was sized on) when nothing slowed it down.
PROBE_REFERENCE_S = 0.08

#: The comparison behind ``dtbl_speedup``.
SPEEDUP_BASE, SPEEDUP_MODE = "flat", "dtbl"


class JobOutcome(NamedTuple):
    app: str
    mode: str
    stats: Optional[object]
    digest: Optional[str]
    #: L2 (hits, accesses); recorded on traced passes only.
    l2: Optional[tuple]
    error: Optional[str]


class Pass(NamedTuple):
    #: Seconds spent in the jobs (host-speed probes excluded).
    wall: float
    jobs: List[JobOutcome]
    cache_hits: int
    #: Seconds spent in the host-speed probes (0 when not probed).
    probe: float


def pin_memory_policies() -> bool:
    """Fix the two allocation policies that made ``peak_rss_mb`` random.

    Under the defaults, the same ``sanitized`` run peaked anywhere from 170
    to 265 MB; with both policies fixed, repeated runs agree within 1 MB.

    * glibc raises its mmap threshold after large frees, so later large
      arrays (the sanitizer's shadow memory) come from the heap, where
      ``calloc`` touches every page.  How much stays resident then
      depends on heap fragmentation.  Fixing the threshold at its initial
      128 KiB keeps large arrays mapped, so only touched pages count.
    * NumPy advises transparent huge pages for arrays of 4 MB and more, so
      a sparse touch faults in 2 MB or 4 KB depending on where the array
      happens to be aligned.

    Must run before NumPy is imported.  Returns whether glibc's threshold
    was set (it is not on a libc without ``mallopt``).
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(-3, 128 * 1024) == 1  # -3: M_MMAP_THRESHOLD


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale (default: the evaluation grid's 1.0); "
        "smaller values are for the smoke test",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: import and generate the inputs, print their digest, exit",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def generate_inputs(suite, wdef, seed: int, scale: float, rec=None) -> dict:
    inputs = {}
    for app in wdef.apps:
        with rec.span("workloads.dataset") if rec else contextlib.nullcontext():
            inputs[app] = suite.generate_input(app, seed, scale)
    return inputs


def time_setup_probes(args, scale: float, expected_digest: str) -> List[float]:
    """Wall seconds of fresh interpreters that set up and exit.

    Each probe checks it built the same inputs as this process.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--scale", repr(scale),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != expected_digest:
            raise RuntimeError(
                f"set-up probe disagreed (exit {proc.returncode}): "
                f"{proc.stdout.strip()!r} != {expected_digest!r}\n{proc.stderr}"
            )
        times.append(elapsed)
    return times


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def host_speed_probe() -> int:
    """Fixed interpreter-bound work that does not touch the simulator.

    It mixes what the simulator's hot loops do: dict and list traffic,
    integer arithmetic and small NumPy reductions over a 32-lane vector.
    Timed before each job, it measures how fast the host runs right now.
    """
    import numpy as np

    lanes = np.arange(32, dtype=np.int64)
    table, out, acc = {}, [], 0
    for i in range(150_000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0)
        out.append(acc & 15)
        if not i & 7:
            acc += int((lanes * (i & 1023)).sum())
    return acc


def stats_digest(stats) -> str:
    """SHA-256 of ``SimStats.to_dict()`` without the echoed ``config``."""
    from repro.exec import canonical_json

    data = stats.to_dict()
    del data["config"]
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def run_job(suite, app, mode, config, scale, inputs, cache, rec=None) -> JobOutcome:
    from repro.exec import JobResult, JobSpec

    try:
        spec = JobSpec.create(app, mode, scale, suite.LATENCY_SCALE, config=config)
        workload = suite.make_workload(app, mode, inputs[app])
        start = time.perf_counter()
        result = workload.execute_spec(spec)
        job = JobResult(
            stats=result.stats,
            wall_seconds=time.perf_counter() - start,
            sanitizer=result.sanitizer,
            fingerprint=spec.fingerprint(),
        )
        cache.store(job.fingerprint, job.to_payload())
        payload = cache.load(job.fingerprint)
        if payload is None or (
            JobResult.from_payload(payload).stats.to_dict() != result.stats.to_dict()
        ):
            raise RuntimeError("result cache did not read the result back equal")
        l2 = None
        if rec is not None:
            cache_stats = rec.gpu.memsys.l2.stats
            l2 = (cache_stats.hits, cache_stats.accesses)
            rec.gpu = None  # do not keep the job's device memory alive
        return JobOutcome(app, mode.value, result.stats, stats_digest(result.stats), l2, None)
    except Exception as exc:  # a failed job is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return JobOutcome(app, mode.value, None, None, None, f"{type(exc).__name__}: {exc}")


def run_pass(suite, jobs, config, scale, inputs, rec=None, probe=False) -> Pass:
    from repro.exec import ResultCache

    cache_dir = OUT / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    outcomes = []
    probe_s = 0.0
    try:
        start = time.perf_counter()
        with rec.span("bench.pass") if rec else contextlib.nullcontext():
            for index, (app, mode) in enumerate(jobs):
                if probe:
                    probe_start = time.perf_counter()
                    host_speed_probe()
                    probe_s += time.perf_counter() - probe_start
                if rec is not None:
                    rec.job = index
                with rec.span("bench.job") if rec else contextlib.nullcontext():
                    outcomes.append(
                        run_job(suite, app, mode, config, scale, inputs, cache, rec)
                    )
                # The simulator's object graph is cyclic: free each job's
                # device now, so peak memory does not depend on when the
                # collector happens to run.
                gc.collect()
        wall = time.perf_counter() - start - probe_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return Pass(wall, outcomes, cache.stats.hits, probe_s)


def count_failures(passes: List[Pass]) -> int:
    """Failed jobs, counting a digest that differs from pass 0's as failed."""
    reference = [job.digest for job in passes[0].jobs]
    failed = 0
    for p in passes:
        for job, digest in zip(p.jobs, reference):
            failed += job.error is not None or job.digest != digest
    return failed


def workload_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for job in p.jobs:
        h.update(f"{job.app}/{job.mode}={job.digest}\n".encode())
    return h.hexdigest()


def total(jobs: List[JobOutcome], field: str) -> int:
    return sum(getattr(job.stats, field) for job in jobs if job.stats is not None)


def dtbl_speedup(jobs: List[JobOutcome]) -> float:
    """Geomean over apps of flat cycles / dtbl cycles (0.0 if none ran)."""
    cycles = {(j.app, j.mode): j.stats.cycles for j in jobs if j.stats is not None}
    ratios = [
        cycles[(app, SPEEDUP_BASE)] / cycles[(app, SPEEDUP_MODE)]
        for app, mode in cycles
        if mode == SPEEDUP_BASE and (app, SPEEDUP_MODE) in cycles
    ]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def slowdown(p: Pass) -> float:
    """How much slower than the reference host the host ran in ``p``."""
    return p.probe / (len(p.jobs) * PROBE_REFERENCE_S)


def end_to_end(passes, setup_times, rss_mb, speedup_jobs, attempted, failed):
    insts = total(passes[0].jobs, "issued_instructions")
    norm_wall = statistics.median(p.wall / slowdown(p) for p in passes)
    return {
        "norm_wall_s": (norm_wall, "s"),
        "norm_sim_insts_per_s": (insts / norm_wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verified_frac": ((attempted - failed) / attempted, "ratio"),
        "sim_cycles": (total(passes[0].jobs, "cycles"), "cycles"),
        "dtbl_speedup": (dtbl_speedup(speedup_jobs), "x"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec, traced: Pass, untraced: Pass) -> Dict[str, tuple]:
    seconds, calls = rec.summary()
    jobs = [job for job in traced.jobs if job.stats is not None]

    def stat(field):
        return total(jobs, field)

    coal = [job.stats.coalescing for job in jobs]
    dram = [job.stats.dram for job in jobs]
    waits = [
        record.waiting_cycles
        for job in jobs
        for record in job.stats.dynamic_launches()
        if record.waiting_cycles is not None
    ]
    l2_hits = sum(job.l2[0] for job in jobs)
    l2_accesses = sum(job.l2[1] for job in jobs)
    warp_calls = calls["sim.warp"]
    insts = stat("issued_instructions")
    return {
        "workloads.dataset_s": (seconds["workloads.dataset"], "s"),
        "workloads.build_s": (seconds["workloads.build"], "s"),
        "workloads.upload_s": (seconds["workloads.upload"], "s"),
        "workloads.check_s": (seconds["workloads.check"], "s"),
        "isa.transform_s": (seconds["isa.transform"], "s"),
        "isa.kernels_out": (rec.kernels_out, "count"),
        "sim.warp_s": (seconds["sim.warp"], "s"),
        "sim.warp_calls": (warp_calls, "count"),
        "sim.insts": (insts, "count"),
        "sim.insts_per_call": (_ratio(insts, warp_calls), "insts/call"),
        "sim.sched_s": (seconds["sim.sched"], "s"),
        "sim.cycles": (stat("cycles"), "cycles"),
        "memory.access_s": (seconds["memory.access"], "s"),
        "memory.access_calls": (calls["memory.access"], "count"),
        "memory.l2_hit_rate": (_ratio(l2_hits, l2_accesses), "ratio"),
        "memory.dram_efficiency": (
            _ratio(sum(d.commands for d in dram), sum(d.n_activity for d in dram)),
            "ratio",
        ),
        "memory.txn_per_access": (
            _ratio(sum(c.transactions for c in coal), sum(c.warp_accesses for c in coal)),
            "txn/access",
        ),
        "launch.kmu_s": (seconds["launch.kmu"], "s"),
        "launch.distribute_s": (seconds["launch.distribute"], "s"),
        "launch.place_s": (seconds["launch.place"], "s"),
        "launch.aggregate_s": (seconds["launch.aggregate"], "s"),
        "launch.retire_s": (seconds["launch.retire"], "s"),
        "launch.dynamic": (
            sum(len(job.stats.dynamic_launches()) for job in jobs), "count"
        ),
        "launch.blocks": (stat("blocks_completed"), "count"),
        "dtbl.match_rate": (
            _ratio(stat("agg_matched"), stat("agg_matched") + stat("agg_unmatched")),
            "ratio",
        ),
        "dtbl.agt_spill_rate": (
            _ratio(stat("agt_hash_spills"), stat("agt_hash_hits") + stat("agt_hash_spills")),
            "ratio",
        ),
        "launch.wait_cycles_p50": (statistics.median(waits) if waits else 0, "cycles"),
        "sanitizer.observe_s": (seconds["sanitizer.observe"], "s"),
        "sanitizer.observe_calls": (calls["sanitizer.observe"], "count"),
        "exec.fingerprint_s": (seconds["exec.fingerprint"], "s"),
        "exec.cache_store_s": (seconds["exec.cache_store"], "s"),
        "exec.cache_load_s": (seconds["exec.cache_load"], "s"),
        "exec.cache_hits": (traced.cache_hits, "count"),
        "bench.residual_s": (seconds["bench.pass"] + seconds["bench.job"], "s"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(mmap_pinned: bool) -> dict:
    import numpy

    from repro.config import GPUConfig
    from repro.exec import CODE_VERSION

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "execution_core": GPUConfig.k20c().execution_core,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "code_version": CODE_VERSION,
        "mmap_threshold_pinned": mmap_pinned,
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    mmap_pinned = pin_memory_policies()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The workloads fix their own sanitizer setting.
    os.environ.pop("REPRO_SANITIZE", None)
    import suite  # noqa: E402  (needs SRC on the path)

    wdef = suite.WORKLOADS.get(args.workload)
    if wdef is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scale = suite.SCALE if args.scale is None else args.scale

    rec = None
    if args.trace:
        import spans

        rec = spans.SpanRecorder()
    inputs = generate_inputs(suite, wdef, args.seed, scale, rec)
    input_digest = suite.content_digest(inputs)
    if args.setup_probe:
        print(input_digest)
        return 0

    jobs, config = wdef.jobs(), wdef.config()
    attempted = failed = 0
    setup_times: List[float] = []
    if not args.trace:
        try:
            setup_times = time_setup_probes(args, scale, input_digest)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            failed += 1
        attempted += SETUP_PROBES

    probe = not args.trace
    start = time.perf_counter()
    passes = [run_pass(suite, jobs, config, scale, inputs, probe=probe)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not args.trace:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
        passes.append(run_pass(suite, jobs, config, scale, inputs, probe=probe))

    if args.trace:
        with rec.installed({suite.APPS[app].workload_cls for app in wdef.apps}):
            traced = run_pass(suite, jobs, config, scale, inputs, rec)
        passes.append(traced)

    failed += count_failures(passes)
    attempted += len(jobs) * len(passes)
    if suite.content_digest(inputs) != input_digest:
        print("perfbench: the jobs modified their inputs", file=sys.stderr)
        failed += 1
    attempted += 1

    extra = [
        (app, mode) for app, mode in wdef.speedup_jobs(SPEEDUP_BASE, SPEEDUP_MODE)
        if (app, mode) not in jobs
    ]
    speedup_jobs = list(passes[0].jobs)
    if extra and not args.trace:
        # Untimed: this workload runs neither mode of dtbl_speedup itself.
        side = run_pass(suite, extra, config, scale, inputs)
        speedup_jobs += side.jobs
        failed += count_failures([side])
        attempted += len(extra)

    if args.trace:
        metrics = per_layer(rec, traced, passes[0])
    else:
        metrics = end_to_end(passes, setup_times or [0.0], rss_mb,
                             speedup_jobs, attempted, failed)
    digest = workload_digest(passes[0])
    raw = {}
    if not args.trace:
        raw_wall = statistics.median(p.wall for p in passes)
        raw = {
            "wall_s": raw_wall,
            "sim_insts_per_s": total(passes[0].jobs, "issued_instructions") / raw_wall,
            "host_slowdown": statistics.median(slowdown(p) for p in passes),
        }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "stats_digest": digest,
        "input_digest": input_digest,
        "provenance": provenance(mmap_pinned),
        "failed_frac": failed / attempted,
        "unnormalised": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    if rec is not None:
        rec.save(OUT / f"trace-{args.workload}.npz")

    for job in passes[0].jobs:
        if job.error:
            print(f"FAILED {job.app}/{job.mode}: {job.error}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} jobs {len(jobs)}")
    print(f"provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"stats_digest {digest}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    for name, value in raw.items():
        print(f"{name:28s} {value:>16.6g} (unnormalised)")
    if "dtbl_speedup" in metrics:
        print(
            "reference for dtbl_speedup: paper 1.21x (average over 16 apps); "
            "repo full grid 1.81x (geomean, EXPERIMENTS.md). This app subset "
            "matches neither population; the model is unvalidated per app, "
            "so no error figure is given."
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
