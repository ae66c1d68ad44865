"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

``test_seed0_inputs_match_registry`` checks that ``--seed 0`` builds exactly
the registry's inputs.  The smoke tests run every workload's job list at a
small dataset scale, untraced and traced, and check the printed metrics,
that nothing failed, and that the traced self times add up.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from repro.workloads import get_benchmark  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.1

#: Traced per-layer seconds that lie inside the traced pass; with the
#: benchmark's residual they make up its wall time.
NOT_IN_PASS = {"workloads.dataset_s", "trace.wall_s", "trace.overhead_s"}


@pytest.mark.parametrize("app", sorted({a for w in suite.WORKLOADS.values() for a in w.apps}))
def test_seed0_inputs_match_registry(app):
    for wdef in suite.WORKLOADS.values():
        if app not in wdef.apps:
            continue
        for _, mode in wdef.jobs()[:1]:
            ours = suite.make_workload(app, mode, suite.generate_input(app, 0))
            theirs = get_benchmark(app, mode, suite.SCALE)
            assert type(ours) is type(theirs)
            assert suite.content_digest(vars(ours)) == suite.content_digest(vars(theirs))
    assert suite.content_digest(suite.generate_input(app, 1)) != suite.content_digest(
        suite.generate_input(app, 0)
    )


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", str(SMOKE_SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        printed[key] = rest.strip()
    return result, printed


def check_metrics(result, printed, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert printed["failed_frac"].startswith("0 ")
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        value, unit = printed[m["name"]].split()
        assert unit == m["unit"]
        assert float(value) == pytest.approx(metrics[m["name"]]["value"], rel=1e-5, abs=1e-9)


@pytest.fixture(scope="module")
def runs():
    return {
        (w, t): run_bench(w, t) for w in suite.WORKLOADS for t in (0, 1)
    }


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_smoke(runs, workload):
    untraced, untraced_lines = runs[(workload, 0)]
    traced, traced_lines = runs[(workload, 1)]
    check_metrics(untraced, untraced_lines, SPEC["end_to_end"])
    check_metrics(traced, traced_lines, SPEC["per_layer"])
    assert untraced["metrics"]["verified_frac"]["value"] == 1.0
    # Tracing changes no simulated statistic.
    assert untraced_lines["stats_digest"] == traced_lines["stats_digest"]

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    in_pass = sum(
        v for k, v in layer.items() if k.endswith("_s") and k not in NOT_IN_PASS
    )
    assert in_pass == pytest.approx(layer["trace.wall_s"], rel=1e-3, abs=1e-3)


def test_layers_land_on_their_workloads(runs):
    layer = {
        w: {k: v["value"] for k, v in runs[(w, 1)][0]["metrics"].items()}
        for w in suite.WORKLOADS
    }
    for w, values in layer.items():
        sanitized = w == "sanitized"
        assert (values["sanitizer.observe_s"] > 0) == sanitized
        assert (values["sanitizer.observe_calls"] > 0) == sanitized
    assert layer["paper_modes"]["isa.transform_s"] == 0
    assert layer["task_queue"]["isa.transform_s"] > 0
    assert layer["task_queue"]["launch.dynamic"] < 0.1 * layer["paper_modes"]["launch.dynamic"]
