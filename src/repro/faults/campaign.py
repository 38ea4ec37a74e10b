"""Canned fault campaigns: seeded robustness runs of the TUTMAC system.

A campaign runs the TUTMAC-on-TUTWLAN system (paper Figures 7-8) with the
ARQ-enabled protocol variant and a :class:`~repro.faults.plan.FaultPlan`
targeting the uplink data path: ``pdu_tx`` frames crossing the HIBI bus
from ``frag`` (processor2) to ``rca`` (processor1) corrupt or vanish, the
receiver's CRC-32 check flags them, and ``frag``'s retransmission timer
repairs the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.faults.plan import FaultPlan, FaultStats
from repro.profiling.analysis import ProfilingData


@dataclass
class CampaignResult:
    """Everything one fault campaign produced."""

    simulation: "SimulationResult"
    plan: FaultPlan
    profiling: ProfilingData

    @property
    def stats(self) -> FaultStats:
        return self.plan.stats

    @property
    def recovery_ratio(self) -> float:
        if self.stats.detected == 0:
            return 1.0
        return self.stats.recovered / self.stats.detected


def build_campaign_plan(
    seed: int = 1,
    fault_rate: float = 0.05,
    drop_rate: Optional[float] = None,
) -> FaultPlan:
    """The standard TUTMAC uplink fault plan (corruption + frame loss)."""
    return campaign_fault_spec(seed, fault_rate, drop_rate).build_plan()


def run_fault_campaign(
    seed: int = 1,
    fault_rate: float = 0.05,
    duration_us: int = 200_000,
    drop_rate: Optional[float] = None,
    params=None,
) -> CampaignResult:
    """Run one seeded fault campaign; same seed ⇒ byte-identical log."""
    from repro.cases.tutmac import TutmacParameters
    from repro.cases.tutwlan import build_tutwlan_system
    from repro.profiling import profile_run
    from repro.simulation.system import SystemSimulation

    if params is None:
        params = TutmacParameters(arq_enabled=True)
    application, platform, mapping = build_tutwlan_system(params=params)
    plan = build_campaign_plan(seed=seed, fault_rate=fault_rate, drop_rate=drop_rate)
    simulation = SystemSimulation(application, platform, mapping, faults=plan)
    result = simulation.run(duration_us)
    profiling = profile_run(result, application)
    return CampaignResult(simulation=result, plan=plan, profiling=profiling)


# ----------------------------------------------------------------------
# multi-seed sweeps on the exploration engine
# ----------------------------------------------------------------------


def campaign_fault_spec(
    seed: int = 1,
    fault_rate: float = 0.05,
    drop_rate: Optional[float] = None,
):
    """The picklable :class:`repro.exploration.FaultSpec` defining
    :func:`build_campaign_plan` (rates, signals and seed)."""
    from repro.cases.tutmac import signals as sig
    from repro.exploration.spec import FaultSpec

    return FaultSpec(
        seed=seed,
        bus_corrupt_rate=fault_rate,
        bus_drop_rate=fault_rate / 2 if drop_rate is None else drop_rate,
        corruptible_signals=(sig.PDU_TX,),
        droppable_signals=(sig.PDU_TX,),
        protected_signals=(sig.PDU_TX,),
    )


def fault_sweep_specs(
    seeds: Iterable[int],
    fault_rate: float = 0.05,
    duration_us: int = 50_000,
    drop_rate: Optional[float] = None,
) -> List["CandidateSpec"]:
    """One candidate per seed: ARQ-enabled TUTMAC on the paper mapping."""
    from repro.cases.tutwlan import PAPER_MAPPING
    from repro.exploration.spec import CandidateSpec

    return [
        CandidateSpec.make(
            "repro.cases.tutwlan:exploration_factory",
            dict(PAPER_MAPPING),
            duration_us=duration_us,
            faults=campaign_fault_spec(
                seed=seed, fault_rate=fault_rate, drop_rate=drop_rate
            ),
            arq=True,
            label=f"seed={seed}",
        )
        for seed in seeds
    ]


def run_fault_sweep(
    seeds: Sequence[int] = (1, 2, 3, 4),
    fault_rate: float = 0.05,
    duration_us: int = 50_000,
    drop_rate: Optional[float] = None,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress=None,
) -> "ExplorationRun":
    """Run one seeded campaign per seed on the exploration engine.

    Each seed becomes an independent, cacheable candidate; ``workers=N``
    fans the simulations out over N processes, ``workers=0`` runs them
    serially with identical results.  Fault ledgers land in the
    per-candidate :class:`~repro.exploration.EvaluationResult` fields
    (``fault_injected``/``fault_detected``/``fault_recovered``).
    """
    from repro.exploration.engine import run_candidates

    specs = fault_sweep_specs(
        seeds, fault_rate=fault_rate, duration_us=duration_us, drop_rate=drop_rate
    )
    return run_candidates(
        specs, workers=workers, cache_dir=cache_dir, progress=progress
    )
