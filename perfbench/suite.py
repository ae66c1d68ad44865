"""The benchmark's inputs and job lists.

Each workload is a fixed list of ``(app, mode)`` jobs.  Inputs come from
the public dataset generators in :mod:`repro.workloads.datasets`, sized as
the workload registry (:mod:`repro.workloads.registry`) sizes them, with
``seed = registry default seed + --seed``.  At ``--seed 0`` every input is
byte-identical to the one ``get_benchmark(app, mode, scale)`` builds
(``test_perfbench.py`` asserts this), so any other seed is a held-out
input.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.runtime import ExecutionMode
from repro.workloads import datasets
from repro.workloads.bfs import BfsWorkload
from repro.workloads.clr import ColoringWorkload
from repro.workloads.join import JoinWorkload
from repro.workloads.pre import RecommendationWorkload
from repro.workloads.regx import RegexWorkload
from repro.workloads.sssp import SsspWorkload

#: Dataset and launch-latency scales of the evaluation grid
#: (``repro.harness.runner.DEFAULT_SCALE`` / ``DEFAULT_LATENCY_SCALE``).
SCALE = 1.0
LATENCY_SCALE = 0.25


def _scaled(base: int, scale: float, minimum: int = 32) -> int:
    # The registry's sizing rule.
    return max(minimum, int(base * scale))


class App(NamedTuple):
    workload_cls: type
    generator: str
    #: Registry-default seed of this app's input.
    seed: int
    #: scale -> generator keyword arguments other than ``seed``.
    sizes: Callable[[float], dict]


APPS: Dict[str, App] = {
    "bfs_citation": App(BfsWorkload, "citation_network", 7,
                        lambda s: dict(n=_scaled(1200, s))),
    "bfs_usa_road": App(BfsWorkload, "usa_road", 11,
                        lambda s: dict(n=_scaled(1600, s))),
    "bfs_cage15": App(BfsWorkload, "cage15_like", 13,
                      lambda s: dict(n=_scaled(1100, s))),
    "sssp_citation": App(SsspWorkload, "citation_network", 7,
                         lambda s: dict(n=_scaled(900, s), weighted=True)),
    "sssp_cage15": App(SsspWorkload, "cage15_like", 13,
                       lambda s: dict(n=_scaled(900, s), weighted=True)),
    "clr_citation": App(ColoringWorkload, "citation_network", 3,
                        lambda s: dict(n=_scaled(1000, s))),
    "join_uniform": App(JoinWorkload, "join_tables", 47,
                        lambda s: dict(distribution="uniform",
                                       r_size=_scaled(1600, s),
                                       s_size=_scaled(1200, s))),
    "join_gaussian": App(JoinWorkload, "join_tables", 47,
                         lambda s: dict(distribution="gaussian",
                                        r_size=_scaled(1600, s),
                                        s_size=_scaled(1200, s))),
    "regx_darpa": App(RegexWorkload, "darpa_packets", 37,
                      lambda s: dict(n=_scaled(700, s))),
    "pre_movielens": App(RecommendationWorkload, "movielens_like", 43,
                         lambda s: dict(num_users=_scaled(420, s),
                                        num_items=_scaled(512, s, 16),
                                        avg_ratings=12)),
}


class WorkloadDef(NamedTuple):
    apps: Tuple[str, ...]
    modes: Tuple[str, ...]
    sanitize: bool

    def jobs(self) -> List[Tuple[str, ExecutionMode]]:
        """The job list, app-major (one app's inputs stay hot in cache)."""
        return [(a, ExecutionMode.parse(m)) for a in self.apps for m in self.modes]

    def speedup_jobs(self, base: str, mode: str) -> List[Tuple[str, ExecutionMode]]:
        """The jobs a ``base``-over-``mode`` cycle ratio needs, per app."""
        return [(a, ExecutionMode.parse(m)) for a in self.apps for m in (base, mode)]

    def config(self) -> GPUConfig:
        return dataclasses.replace(GPUConfig.k20c(), sanitize=self.sanitize)


WORKLOADS: Dict[str, WorkloadDef] = {
    # The paper's own comparison modes; the launch path (KDE, AGT, TB
    # dispatch) does most of its work here.
    "paper_modes": WorkloadDef(
        ("join_gaussian", "bfs_cage15", "sssp_cage15", "regx_darpa"),
        ("flat", "cdp", "cdpi", "dtbl", "dtbli"),
        False,
    ),
    # The rival modes: atomics-heavy warp execution, the IR transforms
    # (dynopt, persist) and a nearly idle launch path.
    "task_queue": WorkloadDef(
        ("clr_citation", "sssp_cage15", "bfs_usa_road"),
        ("cdpa", "cons", "persistent", "persistent-async"),
        False,
    ),
    # The sanitizer forces the per-instruction warp path and observes
    # every instruction.
    "sanitized": WorkloadDef(
        ("bfs_citation", "sssp_citation", "join_uniform", "pre_movielens",
         "clr_citation"),
        ("flat", "dtbl", "persistent"),
        True,
    ),
}


def generate_input(app: str, seed: int, scale: float = SCALE):
    """The dataset of ``app`` for benchmark seed ``seed``."""
    spec = APPS[app]
    generator = getattr(datasets, spec.generator)
    return generator(seed=spec.seed + seed, **spec.sizes(scale))


def make_workload(app: str, mode: ExecutionMode, data):
    """A fresh ``Workload`` of ``app`` bound to ``data``."""
    return APPS[app].workload_cls(app, mode, data)


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(value).encode())


def content_digest(value) -> str:
    """SHA-256 over the bytes of arrays, dataclass fields and scalars."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()
