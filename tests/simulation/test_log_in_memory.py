"""A simulation's log is one in-memory object, read where it was written.

``SimulationResult.log`` is the :class:`LogFile` the simulator appended
to.  The differential tests hold it against the rendered-and-parsed
tutlog (``parse_log`` is the oracle): same meta, records and end time,
same profiling data, same campaign metrics hash.  The last test proves
that campaign evaluation and the design flow's profile step never
re-parse a log they already hold.
"""

import dataclasses

import pytest

import repro.simulation
from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.exploration.objectives import evaluate, summarize
from repro.faults.campaign import build_campaign_plan
from repro.flow import run_design_flow
from repro.genmodel import config_for_seed, generate_model
from repro.profiling import analyze
from repro.profiling.groupinfo import group_info_from_model
from repro.simulation import logfile
from repro.simulation.logfile import LogFile, parse_log
from repro.simulation.system import SystemSimulation

TUTMAC_US = 200_000
CORPUS_US = 20_000
CORPUS_SEEDS = range(25)


def _tutmac():
    return build_tutwlan_system(), None, TUTMAC_US


def _tutmac_arq_faulted():
    system = build_tutwlan_system(params=TutmacParameters(arq_enabled=True))
    return system, build_campaign_plan(seed=3, fault_rate=0.1), TUTMAC_US


def _corpus(seed):
    def build():
        model = generate_model(config_for_seed(seed))
        system = (model.application, model.platform, model.mapping)
        return system, None, CORPUS_US

    return build


RUNS = [
    pytest.param(_tutmac, id="tutmac"),
    pytest.param(_tutmac_arq_faulted, id="tutmac-arq-faulted"),
] + [pytest.param(_corpus(seed), id=f"corpus-{seed}") for seed in CORPUS_SEEDS]


@pytest.mark.parametrize("build", RUNS)
def test_in_memory_log_matches_parsed_tutlog(build):
    (application, platform, mapping), faults, duration_us = build()
    result = SystemSimulation(
        application, platform, mapping, faults=faults
    ).run(duration_us)
    log = result.log
    assert log is result.writer
    parsed = parse_log(result.writer.render())

    assert parsed.meta == {key: str(value) for key, value in log.meta.items()}
    assert parsed.records == log.records
    assert parsed.end_time_ps == log.end_time_ps

    info = group_info_from_model(application.model)
    assert analyze(log, info) == analyze(parsed, info)

    through_parse = dataclasses.replace(result, writer=parsed)
    assert (
        summarize(result, application).stable_hash()
        == summarize(through_parse, application).stable_hash()
    )


def test_evaluation_and_flow_do_not_reparse(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation's own log was rendered or parsed")

    monkeypatch.setattr(logfile, "parse_log", refuse)
    monkeypatch.setattr(repro.simulation, "parse_log", refuse)

    with monkeypatch.context() as patch:
        patch.setattr(LogFile, "render", refuse)
        metrics = evaluate(*build_tutwlan_system(), duration_us=5_000)
    assert metrics.bus_signals > 0

    # the flow writes the tutlog to disk (render); profiling must read
    # the simulator's records, not parse that file back
    flow = run_design_flow(
        *build_tutwlan_system(), str(tmp_path), duration_us=5_000
    )
    assert "profile" in flow.steps_run
    assert flow.profiling.total_cycles() > 0
