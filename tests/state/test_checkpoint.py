"""Checkpoint/restore: file format, validation and round-trip identity.

Two layers of coverage:

* **file layer** — save/load/quarantine semantics on real checkpoint
  documents: atomic writes, magic/salt/format/fingerprint validation,
  truncation and corruption handling;
* **round-trip identity** — a run interrupted at a checkpoint and
  resumed in a *replayed* host program finishes bit-identical to an
  uninterrupted run: statistics, global memory, outputs and sanitizer
  state.  Property-tested over random programs, interrupt points and
  both simulation cores (à la ``tests/test_random_programs.py``), plus
  a workload-level sweep with the sanitizer on.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionMode, GPUConfig
from repro.state import (
    CheckpointError,
    capture_document,
    checkpoint_path_for,
    load_checkpoint,
    prepare_resume,
    quarantine_checkpoint,
    restore_document,
    save_checkpoint,
)
from repro.workloads import get_benchmark

from ..helpers import make_device, map_kernel

SCALE = 0.08


class Interrupt(Exception):
    pass


# ----------------------------------------------------------------------
# A tiny deterministic host program, replayable for resume.
# ----------------------------------------------------------------------
def _build(data, mult, add, mode=ExecutionMode.FLAT, fast=False,
           sanitize=True):
    """Fresh device + registered map kernel + uploaded inputs."""
    config = dataclasses.replace(
        GPUConfig.k20c(), core=("fast" if fast else "reference"), sanitize=sanitize
    )
    dev = make_device(mode, config=config)
    func = map_kernel(
        "ckpt_prop", lambda k, v: k.iadd(k.imul(v, mult), add)
    )
    dev.register(func)
    n = len(data)
    src = dev.upload(np.asarray(data, dtype=np.int64))
    dst = dev.alloc(n)
    return dev, func, n, src, dst


def _launch(dev, func, n, src, dst):
    dev.launch(
        func.name, grid=(n + 127) // 128, block=128, params=[n, src, dst]
    )


def _final_state(dev, dst, n):
    gpu = dev.gpu
    return {
        "out": dev.download_ints(dst, n).tolist(),
        "stats": gpu.stats.to_dict(),
        "memory": gpu.memory.i.copy(),
        "sanitizer": gpu.sanitizer.report.to_dict() if gpu.sanitizer else None,
    }


def _capture_one(every=20, stop_at=1, **build_kwargs):
    """Run the tiny program until its ``stop_at``-th checkpoint.

    Returns ``(doc, path)``: the captured document (as handed to the
    ``on_checkpoint`` callback) and the checkpoint file on disk.
    """
    path = Path(tempfile.mkdtemp()) / "unit.ckpt"
    data = list(range(64))
    seen = []

    def grab(doc):
        seen.append(doc)
        if len(seen) >= stop_at:
            raise Interrupt()

    dev, func, n, src, dst = _build(data, 3, 7, **build_kwargs)
    dev.configure_checkpoint(every, path=str(path), on_checkpoint=grab)
    _launch(dev, func, n, src, dst)
    with pytest.raises(Interrupt):
        dev.synchronize()
    assert path.exists()
    return seen[-1], path


# ----------------------------------------------------------------------
# File layer
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_checkpoint_path_for(self, tmp_path):
        path = checkpoint_path_for(tmp_path, "abc123")
        assert path == tmp_path / "abc123.ckpt"

    def test_save_load_roundtrip(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "roundtrip.ckpt"
        save_checkpoint(path, doc)
        loaded = load_checkpoint(path)
        for key in ("format", "salt", "run_index", "cycle", "config",
                    "memory_words", "sanitize"):
            assert loaded[key] == doc[key]
        assert set(loaded["state"]) == set(doc["state"])
        # Atomic write leaves no temporaries behind.
        assert [p.name for p in tmp_path.iterdir()] == ["roundtrip.ckpt"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_load_rejects_non_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_corrupt_payload(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"REPRO-CKPT\x00garbage-not-zlib")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "torn.ckpt"
        save_checkpoint(path, doc)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_stale_salt(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "stale.ckpt"
        save_checkpoint(path, dict(doc, salt="some-older-code-version"))
        with pytest.raises(CheckpointError, match="stale"):
            load_checkpoint(path)

    def test_load_rejects_unknown_format(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "future.ckpt"
        save_checkpoint(path, dict(doc, format=999))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_load_enforces_fingerprint_binding(self, tmp_path):
        doc, _ = _capture_one()
        path = tmp_path / "bound.ckpt"
        save_checkpoint(path, dict(doc, fingerprint="job-a"))
        assert load_checkpoint(path, fingerprint="job-a")["cycle"] == doc["cycle"]
        with pytest.raises(CheckpointError, match="different job"):
            load_checkpoint(path, fingerprint="job-b")

    def test_quarantine_moves_file_aside(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"junk")
        target = quarantine_checkpoint(path)
        assert target == tmp_path / "bad.ckpt.corrupt"
        assert target.exists() and not path.exists()

    def test_quarantine_missing_file_returns_none(self, tmp_path):
        assert quarantine_checkpoint(tmp_path / "gone.ckpt") is None


# ----------------------------------------------------------------------
# Capture/restore validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_capture_refuses_attached_tracer(self):
        dev, func, n, src, dst = _build(list(range(8)), 2, 1)
        dev.gpu.tracer = object()
        with pytest.raises(CheckpointError, match="tracer"):
            capture_document(dev.gpu)

    def test_prepare_resume_refuses_config_mismatch(self):
        doc, _ = _capture_one(sanitize=True)
        dev, *_ = _build(list(range(64)), 3, 7, sanitize=False)
        with pytest.raises(CheckpointError):
            prepare_resume(dev.gpu, doc)

    def test_restore_refuses_format_1_document(self):
        # Format 1 stored the sanitizer's per-word bool shadows by name;
        # format 2 packs them into one flags byte per word.
        doc, _ = _capture_one()
        dev, *_ = _build(list(range(64)), 3, 7)
        with pytest.raises(CheckpointError, match="format"):
            restore_document(dev.gpu, dict(doc, format=1))
        with pytest.raises(CheckpointError, match="format"):
            prepare_resume(dev.gpu, dict(doc, format=1))

    def test_prepare_resume_refuses_replay_already_past(self):
        doc, _ = _capture_one()
        dev, func, n, src, dst = _build(list(range(64)), 3, 7)
        _launch(dev, func, n, src, dst)
        dev.synchronize()  # the replay's run 1 already completed
        with pytest.raises(CheckpointError, match="already past"):
            prepare_resume(dev.gpu, doc)


# ----------------------------------------------------------------------
# Round-trip identity: random programs, both cores
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=192),
        mult=st.integers(min_value=-7, max_value=7),
        add=st.integers(min_value=-100, max_value=100),
        every=st.integers(min_value=20, max_value=300),
        stop_at=st.integers(min_value=1, max_value=3),
        fast=st.booleans(),
        mode=st.sampled_from([ExecutionMode.FLAT, ExecutionMode.DTBL]),
        data=st.data(),
    )
    def test_interrupt_resume_bit_identical(
        self, n, mult, add, every, stop_at, fast, mode, data
    ):
        values = data.draw(
            st.lists(
                st.integers(min_value=-(2**31), max_value=2**31),
                min_size=n, max_size=n,
            )
        )

        # Golden: one uninterrupted, uncheckpointed run.
        dev, func, _, src, dst = _build(values, mult, add, mode, fast)
        _launch(dev, func, n, src, dst)
        dev.synchronize()
        golden = _final_state(dev, dst, n)

        # Interrupt at the stop_at-th checkpoint (if the program runs
        # long enough to reach it; otherwise the clean completion below
        # must still match the golden run).
        path = Path(tempfile.mkdtemp()) / "prop.ckpt"

        def bomb(doc):
            bomb.count += 1
            if bomb.count >= stop_at:
                raise Interrupt()

        bomb.count = 0
        dev, func, _, src, dst = _build(values, mult, add, mode, fast)
        dev.configure_checkpoint(every, path=str(path), on_checkpoint=bomb)
        _launch(dev, func, n, src, dst)
        try:
            dev.synchronize()
            interrupted = False
        except Interrupt:
            interrupted = True

        if interrupted:
            # Replay the host program and resume from the file.
            doc = load_checkpoint(path)
            dev, func, _, src, dst = _build(values, mult, add, mode, fast)
            _launch(dev, func, n, src, dst)
            prepare_resume(dev.gpu, doc)
            dev.synchronize()

        final = _final_state(dev, dst, n)
        assert final["out"] == golden["out"]
        assert final["stats"] == golden["stats"]
        assert np.array_equal(final["memory"], golden["memory"])
        assert final["sanitizer"] == golden["sanitizer"]


# ----------------------------------------------------------------------
# Round-trip identity: real workloads, sanitizer on
# ----------------------------------------------------------------------
def _workload(bench, mode, fast):
    workload = get_benchmark(bench, ExecutionMode(mode), SCALE)
    config = dataclasses.replace(
        GPUConfig.k20c(), core=("fast" if fast else "reference"), sanitize=True
    )
    return workload, config


@pytest.fixture(scope="module")
def clean_workload_stats():
    cache = {}

    def get(bench, mode, fast):
        key = (bench, mode, fast)
        if key not in cache:
            workload, config = _workload(bench, mode, fast)
            result = workload.execute(config=config, latency_scale=0.25)
            cache[key] = (
                result.stats.to_dict(),
                result.sanitizer.to_dict(),
            )
        return cache[key]

    return get


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("fast", [False, True], ids=["ref", "fast"])
    @pytest.mark.parametrize(
        "bench,mode",
        [("bht", "cdp"), ("bht", "dtbl"), ("bfs_citation", "dtbl")],
    )
    def test_sanitized_workload_resumes_bit_identical(
        self, tmp_path, clean_workload_stats, bench, mode, fast
    ):
        from repro.exec import JobSpec

        def bomb(doc):
            raise Interrupt()

        def spec(config, resume):
            return JobSpec.create(
                bench, ExecutionMode(mode), SCALE, 0.25, config=config,
                checkpoint_every=4_000, checkpoint_dir=str(tmp_path),
                resume=resume,
            )

        workload, config = _workload(bench, mode, fast)
        with pytest.raises(Interrupt):
            workload.execute_spec(spec(config, False), on_checkpoint=bomb)

        workload, config = _workload(bench, mode, fast)
        result = workload.execute_spec(spec(config, True))
        stats, sanitizer = clean_workload_stats(bench, mode, fast)
        assert result.stats.to_dict() == stats
        assert result.sanitizer.to_dict() == sanitizer
