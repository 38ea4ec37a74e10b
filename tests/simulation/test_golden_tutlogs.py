"""Pinned tutlog and snapshot digests for runs the benchmark does not cover.

``perfbench/reference.json`` pins fault-free TUTMAC and the generated
corpus.  The digests here pin the other simulator paths: ARQ TUTMAC under
every fault kind, «PlatformRtos» scheduling with a tick period and
dispatch overhead, an interrupted and resumed faulted run, and a traced
TUTMAC run's tutlog, Chrome trace (with its kernel ``queue_depth``
samples), final snapshot hash and dispatched-event count.  A digest
moves only when simulated behaviour moves; a speed-up of the simulator
must leave every one of them unchanged.
"""

import hashlib

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutmac import signals as sig
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
    state_hash,
)
from repro.errors import SimulationInterrupted
from repro.faults import FaultPlan, PEWindow
from repro.faults.plan import FAULT_KINDS, PE_CRASH, PE_STALL, SIGNAL_DROP
from repro.observability.export import render_chrome_trace
from repro.observability.tracer import Tracer
from repro.simulation.system import SystemSimulation

from tests.simulation.test_rtos_scheduling import run_with_policy

DURATION_US = 20_000
PS_PER_MS = 1_000_000_000
INTERRUPT_AT = 901

GOLDEN = {
    "arq-faulted":
        "cabb0cd99402a5cc5e55a20a853bde0dd7b7a0cc088806836e804019245f1e89",
    # event 901: transfers queued and granted on two segments, mid-route
    "arq-faulted-snapshot":
        "ecae0db3d5d1885ca5c8b801579d397e6e7f2d9e1aca7a6c96858058430f4edd",
    "tutmac-rtos":
        "e760820033db51689da06b05e3b7a5dd6d66342cbb46fd011df9770b36cd523e",
    # both policies serve the three workers in the same order here
    "workers-fifo":
        "6f0e4a599e4bc31cb8561a4012fba4c996e9b136ceddca789be97848e9004bc6",
    "workers-round-robin":
        "6f0e4a599e4bc31cb8561a4012fba4c996e9b136ceddca789be97848e9004bc6",
}

#: traced TUTMAC runs: (tutlog, Chrome trace, final snapshot hash,
#: dispatched events).  At 2 ms the run dispatches fewer events than one
#: queue-depth sampling stride; the 20 ms trace carries 12 samples.
GOLDEN_TRACED = {
    2_000: (
        "ff362c2f16ba1e18839c501a40acdc296bf7b932233412103e502b549da7bf72",
        "7d621a517012ffd3ec3f816a163101bcaf6a6f37b2edf7828c3fbca7ee39ac3d",
        "c50468259d87a164775a083dd9f278f29cc4ca1512f820adbdddf63693f5a0b3",
        55,
    ),
    20_000: (
        "460ce77d9a87756659ae27366924a6c032ed4b6c4283f02017b3a120a8fbb708",
        "45a17a033d82c7555457670bbf1a676f848086e83a5da723f38d13a5036471b3",
        "414dcbe452e97e824df3ef091b28ab7a5cd3f06c2a2241345d8715a0d2ef3bfb",
        820,
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def faulted_simulation() -> SystemSimulation:
    """ARQ TUTMAC with bus corruption and loss, duplicated signals, a
    stalled and a crashed processor."""
    application, platform, mapping = build_tutwlan_system(
        params=TutmacParameters(arq_enabled=True)
    )
    plan = FaultPlan(
        seed=11,
        bus_corrupt_rate=0.1,
        bus_drop_rate=0.05,
        signal_dup_rate=0.02,
        corruptible_signals={sig.PDU_TX},
        droppable_signals={sig.PDU_TX},
        protected_signals={sig.PDU_TX},
        pe_windows=[
            PEWindow("processor2", 4 * PS_PER_MS, 6 * PS_PER_MS, kind=PE_STALL),
            PEWindow("processor1", 12 * PS_PER_MS, 13 * PS_PER_MS, kind=PE_CRASH),
        ],
    )
    return SystemSimulation(application, platform, mapping, faults=plan)


def rtos_simulation() -> SystemSimulation:
    """TUTMAC with a FIFO and a round-robin RTOS, each with tick and overhead."""
    application, platform, mapping = build_tutwlan_system()
    platform.configure_rtos(
        "processor1", scheduling="fifo", dispatch_overhead_cycles=150,
        tick_period_us=100,
    )
    platform.configure_rtos(
        "processor2", scheduling="round-robin", dispatch_overhead_cycles=90,
        tick_period_us=250,
    )
    return SystemSimulation(application, platform, mapping)


def test_arq_tutmac_under_every_fault_kind():
    simulation = faulted_simulation()
    result = simulation.run(DURATION_US)
    kinds = {record.kind for record in result.log.fault_records}
    assert kinds == set(FAULT_KINDS) - {SIGNAL_DROP}
    assert digest(result.writer.render()) == GOLDEN["arq-faulted"]


def test_interrupted_faulted_run_resumes_to_the_same_bytes(tmp_path):
    interrupted = faulted_simulation()
    checkpointer = Checkpointer(
        CheckpointStore(tmp_path), EveryEvents(500), tag="golden",
        interrupt_after_events=INTERRUPT_AT,
    )
    checkpointer.attach(interrupted)
    with pytest.raises(SimulationInterrupted) as excinfo:
        interrupted.run(DURATION_US)
    snapshot = excinfo.value.snapshot
    assert snapshot.digest == GOLDEN["arq-faulted-snapshot"]

    resumed = faulted_simulation()
    resume_simulation(resumed, snapshot)
    result = resumed.run(DURATION_US)
    assert digest(result.writer.render()) == GOLDEN["arq-faulted"]


def test_tutmac_under_fifo_and_round_robin_rtos():
    result = rtos_simulation().run(DURATION_US)
    assert digest(result.writer.render()) == GOLDEN["tutmac-rtos"]


@pytest.mark.parametrize("policy", ["fifo", "round-robin"])
def test_worker_fixture_with_tick_and_overhead(policy):
    _, result = run_with_policy(policy, dispatch_overhead=200, tick=100)
    assert digest(result.writer.render()) == GOLDEN[f"workers-{policy}"]


@pytest.mark.parametrize("duration_us", sorted(GOLDEN_TRACED))
def test_traced_tutmac_run(duration_us):
    application, platform, mapping = build_tutwlan_system()
    simulation = SystemSimulation(
        application, platform, mapping, tracer=Tracer()
    )
    result = simulation.run(duration_us)
    assert (
        digest(result.writer.render()),
        digest(render_chrome_trace(simulation.tracer)),
        state_hash(simulation.state_dict()),
        result.dispatched_events,
    ) == GOLDEN_TRACED[duration_us]
