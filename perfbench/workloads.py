"""The benchmark's four workloads, each against the public ``repro`` API.

Every workload builds fresh inputs before each operation (outside the
timed region), so work a model object caches on first use is paid inside
every timed operation, as a user running one design point pays it.

A workload's :meth:`run` returns an :class:`Op`: the host seconds of its
timed units, exact counts for the per-layer report, and *observations*
keyed by reference id.  ``run`` calls ``pause(i)`` before timed unit
``i`` and once after the last one, outside every timed region; the
benchmark times its host-speed calibration there.  Observations are
compared against ``reference.json`` (recorded at the seed commit); none
of them is a host time, so they repeat exactly on every host.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.analysis import run_lint
from repro.cases.tutwlan import build_tutwlan_system
from repro.exploration.engine import run_candidates
from repro.exploration.mapping import mapping_sweep_specs
from repro.genmodel import config_for_seed, generate_model
from repro.simulation.logfile import ExecRecord
from repro.simulation.system import SystemSimulation

#: the TUTMAC sweep's importable factory (workers rebuild models from it)
TUTMAC_FACTORY = "repro.cases.tutwlan:exploration_factory"

#: the fuzz corpus: ``config_for_seed(0..24)``
CORPUS_SEEDS = range(25)

#: per-size parameters; ``tiny`` exists for the self-test only
SIZES = {
    "full": {
        "tutmac_us": 200_000,
        "corpus_us": 20_000,
        "corpus_models": 25,
        "sweep_limit": None,
        "sweep_us": 20_000,
        "sweep_resubmits": 20,
    },
    "tiny": {
        "tutmac_us": 20_000,
        "corpus_us": 20_000,
        "corpus_models": 3,
        "sweep_limit": 12,
        "sweep_us": 2_000,
        "sweep_resubmits": 3,
    },
}

SWEEP_WORKERS = 2


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_pause(index: int) -> None:
    pass


@dataclass
class Op:
    """One measured operation of a workload.

    The operation is the sum of its timed units, and each unit is an item,
    except with ``leading_op``: then the first unit is the operation and
    the remaining units are the items.
    """

    units_s: List[float]
    #: (reference id, observed value), one per checked operation
    observations: List[Tuple[str, object]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: campaign only: the evaluations' summed host seconds in the workers
    busy_s: float = 0.0
    #: the kernel backend the simulations of this operation ran on
    kernel_backend: Optional[str] = None
    leading_op: bool = False
    #: indices of units that ran mostly in other processes (campaign workers)
    remote_units: Tuple[int, ...] = ()

    def op_and_items(self, units_s: List[float]) -> Tuple[float, List[float]]:
        """Split ``units_s`` (these units, possibly rescaled) into op and items."""
        if self.leading_op:
            return units_s[0], units_s[1:]
        return sum(units_s), list(units_s)

    @property
    def op_s(self) -> float:
        return self.op_and_items(self.units_s)[0]

    @property
    def items_s(self) -> List[float]:
        return self.op_and_items(self.units_s)[1]


def _simulate(application, platform, mapping, duration_us: int, counts: Counter):
    """Simulate one design point and render its tutlog.

    Returns ``(seconds, observation, kernel backend)`` and adds the
    kernel's event counts to ``counts``.
    """
    started = perf_counter()
    simulation = SystemSimulation(application, platform, mapping)
    result = simulation.run(duration_us)
    text = result.writer.render()
    elapsed = perf_counter() - started
    stats = simulation.kernel.queue_stats()
    counts["kernel.events"] += result.dispatched_events
    counts["kernel.spilled"] += stats["spilled"]
    observation = {
        "tutlog_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "events": result.dispatched_events,
        "cycles": sum(
            record.cycles
            for record in result.writer.records
            if isinstance(record, ExecRecord)
        ),
        "pe_busy_ps": dict(sorted(result.pe_busy_ps.items())),
    }
    return elapsed, observation, stats["backend"]


class TutmacSim:
    """The paper's case study: TUTMAC on TUTWLAN, one long simulation."""

    name = "tutmac_sim"

    def __init__(self, size: str, seed: int) -> None:
        self.duration_us = SIZES[size]["tutmac_us"]

    def build(self):
        return build_tutwlan_system()

    def run(self, system, pause=_no_pause) -> Op:
        counts: Counter = Counter()
        pause(0)
        elapsed, observation, backend = _simulate(*system, self.duration_us, counts)
        pause(1)
        key = f"sim/tutmac@{self.duration_us}"
        return Op([elapsed], [(key, observation)], counts, kernel_backend=backend)


class CorpusSim:
    """The generated fuzz corpus: many small, differently shaped systems."""

    name = "corpus_sim"

    def __init__(self, size: str, seed: int) -> None:
        params = SIZES[size]
        self.duration_us = params["corpus_us"]
        self.seeds = list(CORPUS_SEEDS)[: params["corpus_models"]]
        random.Random(seed).shuffle(self.seeds)

    def build(self):
        return [(s, generate_model(config_for_seed(s))) for s in self.seeds]

    def run(self, models, pause=_no_pause) -> Op:
        counts: Counter = Counter()
        items, observations = [], []
        for index, (s, model) in enumerate(models):
            pause(index)
            elapsed, observation, backend = _simulate(
                model.application, model.platform, model.mapping,
                self.duration_us, counts,
            )
            items.append(elapsed)
            observations.append((f"sim/corpus-{s}@{self.duration_us}", observation))
        pause(len(models))
        return Op(items, observations, counts, kernel_backend=backend)


class TutmacSweep:
    """The 108-candidate TUTMAC mapping campaign, cold, then warm resubmits."""

    name = "tutmac_sweep"

    def __init__(self, size: str, seed: int, scratch_dir: str) -> None:
        params = SIZES[size]
        self.size = size
        self.limit = params["sweep_limit"]
        self.duration_us = params["sweep_us"]
        self.resubmits = params["sweep_resubmits"]
        self.scratch_dir = scratch_dir
        self.seed = seed
        self.serial = 0

    def build(self):
        specs = mapping_sweep_specs(
            TUTMAC_FACTORY, duration_us=self.duration_us, limit=self.limit
        )
        # the submission order is the seeded input; ranking and pruning
        # ledger must not depend on it
        random.Random(self.seed).shuffle(specs)
        return specs

    def _campaign(self, specs, cache_dir):
        started = perf_counter()
        run = run_candidates(
            specs, workers=SWEEP_WORKERS, cache_dir=cache_dir, prune_static=True
        )
        elapsed = perf_counter() - started
        ranking = [[o.spec.digest(), o.result.stable_hash()] for o in run.ranking()]
        pruned = sorted(
            (
                {k: v for k, v in record.to_json_dict().items() if k != "index"}
                for record in run.pruned
            ),
            key=lambda record: record["digest"],
        )
        observation = {
            "ranking_sha256": sha256_json(ranking),
            "pruned_sha256": sha256_json(pruned),
            "kept": len(run.outcomes),
            "pruned": len(run.pruned),
            "evaluated": run.evaluated,
            "cache_hits": run.cache_hits,
        }
        return elapsed, run, observation

    def run(self, specs, pause=_no_pause) -> Op:
        """One cold campaign on a fresh cache, then the warm resubmissions.

        ``pause(1)`` falls between the two phases.
        """
        self.serial += 1
        cache_dir = os.path.join(
            self.scratch_dir, f"cache-{os.getpid()}-{self.serial}"
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            pause(0)
            elapsed, cold, observation = self._campaign(specs, cache_dir)
            pause(1)
            units = [elapsed]
            observations = [(f"sweep/{self.size}/cold", observation)]
            for index in range(self.resubmits):
                elapsed, _, observation = self._campaign(specs, cache_dir)
                pause(index + 2)
                units.append(elapsed)
                observations.append((f"sweep/{self.size}/warm", observation))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        counters = cold.supervisor_counters()
        counts = {
            "pruning.kept": len(cold.outcomes),
            "pruning.pruned": len(cold.pruned),
            "evaluate.candidates": cold.evaluated,
            "supervisor.retries": counters["retries"],
            "supervisor.quarantined": counters["quarantined"],
        }
        busy_s = sum(o.elapsed_s for o in cold.outcomes if not o.cached)
        return Op(units, observations, counts, busy_s=busy_s,
                  leading_op=True, remote_units=(0,))


class LintModels:
    """``run_lint`` over TUTMAC plus the fuzz corpus, one model at a time."""

    name = "lint_models"

    def __init__(self, size: str, seed: int) -> None:
        corpus = list(CORPUS_SEEDS)[: SIZES[size]["corpus_models"]]
        self.keys = ["tutmac"] + [f"corpus-{s}" for s in corpus]
        random.Random(seed).shuffle(self.keys)

    def build(self):
        models = []
        for key in self.keys:
            if key == "tutmac":
                models.append((key, build_tutwlan_system()))
            else:
                model = generate_model(config_for_seed(int(key.split("-")[1])))
                models.append((key, (model.application, model.platform, model.mapping)))
        return models

    def run(self, models, pause=_no_pause) -> Op:
        items, observations = [], []
        findings = 0
        for index, (key, system) in enumerate(models):
            pause(index)
            started = perf_counter()
            report = run_lint(*system)
            items.append(perf_counter() - started)
            ids = sorted(
                f"{f.rule} {f.subject}" + (" suppressed" if f.suppressed else "")
                for f in report.findings
            )
            findings += len(ids)
            observations.append((f"lint/{key}", ids))
        pause(len(models))
        return Op(items, observations, {"analysis.findings": findings})


def make_workload(name: str, size: str, seed: int, scratch_dir: str):
    if name == "tutmac_sweep":
        return TutmacSweep(size, seed, scratch_dir)
    classes = {cls.name: cls for cls in (TutmacSim, CorpusSim, LintModels)}
    return classes[name](size, seed)


WORKLOADS = ("tutmac_sim", "corpus_sim", "tutmac_sweep", "lint_models")
