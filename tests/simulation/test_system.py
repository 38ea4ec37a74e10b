"""Full-system simulation: scheduling, transports, timers, determinism."""

import pytest

from repro.errors import ModelError, SimulationError
from repro.application import ApplicationModel
from repro.mapping import MappingModel
from repro.platform import PlatformModel, standard_library
from repro.simulation import SystemSimulation, TRANSPORT_BUS, TRANSPORT_ENV, TRANSPORT_LOCAL
from repro.tutprofile import APPLICATION_PROCESS
from repro.uml import Port
from repro.uml.structure import ConnectorEnd

from tests.conftest import build_pingpong, build_two_cpu_platform


def run_pingpong(colocated=False, duration_us=10_000):
    app = build_pingpong()
    platform = build_two_cpu_platform()
    mapping = MappingModel(app, platform)
    if colocated:
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu1")
    else:
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
    simulation = SystemSimulation(app, platform, mapping)
    return simulation.run(duration_us), simulation


class TestTransports:
    def test_cross_pe_signals_use_bus(self):
        result, _ = run_pingpong(colocated=False)
        transports = {r.transport for r in result.log.signal_records}
        assert transports == {TRANSPORT_BUS}
        assert result.bus_stats["seg1"].transfers > 0

    def test_same_pe_signals_stay_local(self):
        result, _ = run_pingpong(colocated=True)
        transports = {r.transport for r in result.log.signal_records}
        assert transports == {TRANSPORT_LOCAL}
        assert result.bus_stats["seg1"].transfers == 0

    def test_local_delivery_is_faster(self):
        remote, _ = run_pingpong(colocated=False)
        local, _ = run_pingpong(colocated=True)
        remote_latency = max(r.latency_ps for r in remote.log.signal_records)
        local_latency = max(r.latency_ps for r in local.log.signal_records)
        assert local_latency < remote_latency

    def test_colocation_trades_bus_traffic_for_pe_load(self):
        remote, _ = run_pingpong(colocated=False)
        local, _ = run_pingpong(colocated=True)
        # colocation eliminates bus traffic entirely ...
        assert local.bus_stats["seg1"].transfers == 0
        assert remote.bus_stats["seg1"].transfers > 0
        # ... but concentrates all execution (and context switches) on cpu1
        assert local.pe_busy_ps["cpu1"] > remote.pe_busy_ps["cpu1"]
        assert local.pe_busy_ps["cpu2"] == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        first, _ = run_pingpong()
        second, _ = run_pingpong()
        assert first.writer.render() == second.writer.render()

    def test_exec_records_time_ordered(self):
        result, _ = run_pingpong()
        times = [r.time_ps for r in result.log.exec_records]
        assert times == sorted(times)


class TestLifecycle:
    def test_run_twice_rejected(self):
        _, simulation = run_pingpong()
        with pytest.raises(SimulationError):
            simulation.run(10)

    def test_unmapped_group_rejected_at_init(self):
        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        with pytest.raises(Exception):
            SystemSimulation(app, platform, mapping)

    def test_end_time_matches_duration(self):
        result, _ = run_pingpong(duration_us=5_000)
        assert result.end_time_ps == 5_000 * 1_000_000


def build_priority_app():
    """Three jobs land while the PE is busy; dequeue order shows priority.

    One source sends lo, hi, lo2 in a single step, so all three jobs
    arrive at the same instant.  The first delivery seizes the idle PE
    with a slow handler; the remaining two queue and must be granted by
    priority (worker_hi before worker_lo2) rather than arrival order.
    """
    app = ApplicationModel("Prio")
    app.signal("job", [("n", "Int32")])
    worker = app.component("Worker")
    worker.add_port(Port("inp", provided=["job"]))
    machine = app.behavior(worker)
    machine.variable("done", 0)
    machine.variable("i", 0)
    machine.state("s", initial=True)
    machine.on_signal(
        "s", "s", "job", params=["n"],
        effect="i = 0; while (i < 50) { i = i + 1; } done = done + 1;",
        internal=True,
    )
    source = app.component("Source")
    source.add_port(Port("out_first", required=["job"]))
    source.add_port(Port("out_hi", required=["job"]))
    source.add_port(Port("out_lo", required=["job"]))
    machine2 = app.behavior(source)
    machine2.state(
        "s",
        initial=True,
        entry=(
            "send job(1) via out_first;"
            "send job(2) via out_lo;"
            "send job(3) via out_hi;"
        ),
    )
    app.process(app.top, "worker_first", worker, priority=0)
    app.process(app.top, "worker_lo", worker, priority=1)
    app.process(app.top, "worker_hi", worker, priority=9)
    app.process(app.top, "src", source, priority=0)
    app.connect(app.top, ("src", "out_first"), ("worker_first", "inp"))
    app.connect(app.top, ("src", "out_lo"), ("worker_lo", "inp"))
    app.connect(app.top, ("src", "out_hi"), ("worker_hi", "inp"))
    app.group("g")
    for name in ("worker_first", "worker_lo", "worker_hi", "src"):
        app.assign(name, "g")
    return app


class TestPriorityScheduling:
    def test_higher_priority_process_dequeued_first(self):
        app = build_priority_app()
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        result = SystemSimulation(app, platform, mapping).run(5_000)
        worker_execs = [
            r for r in result.log.exec_records
            if r.process.startswith("worker") and r.trigger == "job"
        ]
        # the source starts first (canonical name order) and its three jobs
        # queue while the worker start steps occupy the PE; once the PE is
        # free the jobs are granted strictly by process priority: hi (9),
        # lo (1), first (0) — not by arrival order (first was sent first)
        assert [r.process for r in worker_execs] == [
            "worker_hi",
            "worker_lo",
            "worker_first",
        ]


class TestEnvironment:
    def build_env_app(self):
        app = ApplicationModel("EnvApp")
        app.signal("stim", [("n", "Int32")])
        app.signal("resp", [("n", "Int32")])
        inner = app.component("Inner")
        inner.add_port(Port("io", provided=["stim"], required=["resp"]))
        machine = app.behavior(inner)
        machine.state("s", initial=True)
        machine.on_signal("s", "s", "stim", params=["n"],
                          effect="send resp(n) via io;", internal=True)
        app.process(app.top, "i1", inner)
        app.top.add_port(Port("pEnv"))
        app.connect(app.top, (None, "pEnv"), ("i1", "io"))
        tester = app.component("Tester")
        tester.add_port(Port("out", required=["stim"], provided=["resp"]))
        machine2 = app.behavior(tester)
        machine2.variable("got", 0)
        machine2.state("s", initial=True, entry="set_timer(t, 50);")
        machine2.on_timer("s", "s", "t",
                          effect="send stim(1) via out; set_timer(t, 50);",
                          internal=True)
        machine2.on_signal("s", "s", "resp", params=["n"],
                           effect="got = got + 1;", internal=True, priority=1)
        app.environment_process("t1", tester)
        app.bind_boundary("pEnv", "t1", "out")
        app.group("g")
        app.assign("i1", "g")
        return app

    def test_environment_executes_at_zero_cost(self):
        app = self.build_env_app()
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        simulation = SystemSimulation(app, platform, mapping)
        result = simulation.run(1_000)
        env_execs = [r for r in result.log.exec_records if r.process == "t1"]
        assert env_execs
        assert all(r.cycles == 0 for r in env_execs)
        assert all(r.pe == "-" for r in env_execs)

    def test_boundary_signals_marked_env_transport(self):
        app = self.build_env_app()
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        result = SystemSimulation(app, platform, mapping).run(1_000)
        transports = {r.transport for r in result.log.signal_records}
        assert transports == {TRANSPORT_ENV}
        # the response loop actually closed
        assert simulation_got(result) > 0


def simulation_got(result):
    return sum(
        1 for r in result.log.signal_records if r.signal == "resp"
    )


class TestTimerSemantics:
    def test_rearmed_timer_replaces_previous(self):
        app = ApplicationModel("T")
        app.signal("noop")
        comp = app.component("C")
        machine = app.behavior(comp)
        machine.variable("fires", 0)
        machine.state(
            "s",
            initial=True,
            entry="set_timer(t, 100); set_timer(t, 200);",  # re-arm replaces
        )
        machine.on_timer("s", "s", "t", effect="fires = fires + 1;", internal=True)
        app.process(app.top, "p1", comp)
        app.group("g")
        app.assign("p1", "g")
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        simulation = SystemSimulation(app, platform, mapping)
        simulation.run(1_000)
        assert simulation.executors["p1"].variables["fires"] == 1

    def test_reset_timer_cancels(self):
        app = ApplicationModel("T")
        app.signal("noop")
        comp = app.component("C")
        machine = app.behavior(comp)
        machine.variable("fires", 0)
        machine.state(
            "s", initial=True, entry="set_timer(t, 100); reset_timer(t);"
        )
        machine.on_timer("s", "s", "t", effect="fires = fires + 1;", internal=True)
        app.process(app.top, "p1", comp)
        app.group("g")
        app.assign("p1", "g")
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        simulation = SystemSimulation(app, platform, mapping)
        simulation.run(1_000)
        assert simulation.executors["p1"].variables["fires"] == 0


class TestDrops:
    def test_unhandled_signal_logged_as_drop(self):
        app = ApplicationModel("D")
        app.signal("x")
        deaf = app.component("Deaf")
        deaf.add_port(Port("inp", provided=["x"]))
        machine = app.behavior(deaf)
        machine.state("s", initial=True)  # no transition for x
        talker = app.component("Talker")
        talker.add_port(Port("out", required=["x"]))
        machine2 = app.behavior(talker)
        machine2.state("s", initial=True, entry="send x() via out;")
        app.process(app.top, "deaf1", deaf)
        app.process(app.top, "talker1", talker)
        app.connect(app.top, ("talker1", "out"), ("deaf1", "inp"))
        app.group("g")
        app.assign("deaf1", "g")
        app.assign("talker1", "g")
        platform = PlatformModel("OneCpu", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1")
        result = SystemSimulation(app, platform, mapping).run(1_000)
        assert result.dropped_signals == 1
        assert result.log.drop_records[0].process == "deaf1"


# ---------------------------------------------------------------------------
# static wiring: resolved once per simulation, never carried across runs
# ---------------------------------------------------------------------------


def pingpong_system():
    app = build_pingpong()
    platform = build_two_cpu_platform()
    mapping = MappingModel(app, platform)
    mapping.map("g1", "cpu1")
    mapping.map("g2", "cpu2")
    return app, platform, mapping


def priority_system():
    app = build_priority_app()
    platform = build_two_cpu_platform()
    mapping = MappingModel(app, platform)
    mapping.map("g", "cpu1")
    return app, platform, mapping


def add_urgent_transition(app, platform, mapping):
    """pong1 now answers tick with a new, silent transition tried first."""
    app.find_process("pong1").behavior.on_signal(
        "ready", "ready", "tick", params=["n"],
        effect="echoed = echoed + 100;", internal=True, priority=-1,
    )


def raise_priority(app, platform, mapping):
    """worker_first now outranks worker_hi."""
    part = app.find_process("worker_first").part
    part.stereotype_application(APPLICATION_PROCESS).set("Priority", 20)


def rewire_to_new_process(app, platform, mapping):
    """ping1's connector now ends at a new pong on ping1's own CPU (adding
    the process also drops the application's own route cache)."""
    pong2 = app.process(app.top, "pong2", app.find_process("pong1").component)
    app.assign("pong2", "g1")
    (connector,) = app.top.connectors
    ping_end, pong_end = connector.ends
    connector.set_ends(ping_end, ConnectorEnd(pong_end.port, pong2.part))


def remap_pong(app, platform, mapping):
    mapping.remap("g2", "cpu1")


class TestWiringIsReadPerSimulation:
    """A model edited between two simulations runs as if built with the edit."""

    @pytest.mark.parametrize(
        "build, edit",
        [
            (pingpong_system, add_urgent_transition),
            (priority_system, raise_priority),
            (pingpong_system, rewire_to_new_process),
            (pingpong_system, remap_pong),
        ],
        ids=["new-transition", "priority-tag", "rewired-connector", "remapped"],
    )
    def test_edit_between_simulations_is_seen(self, build, edit):
        system = build()
        before = SystemSimulation(*system).run(2_000).writer.render()
        edit(*system)
        after = SystemSimulation(*system).run(2_000).writer.render()
        edited_first = build()
        edit(*edited_first)
        expected = SystemSimulation(*edited_first).run(2_000).writer.render()
        assert after == expected
        assert after != before


def talker_system(
    listeners=1, wired=True, listener_params=(), listener_type="general"
):
    """A talker sends ``x()`` via ``out`` every 40 us to listener r1 (and r2)
    on a second PE: a NiosDSP, which cannot run hardware processes."""
    app = ApplicationModel("Talk")
    app.signal("x")
    listener = app.component("Listener")
    listener.add_port(Port("inp", provided=["x"]))
    machine = app.behavior(listener)
    machine.state("s", initial=True)
    machine.on_signal("s", "s", "x", params=list(listener_params), internal=True)
    talker = app.component("Talker")
    talker.add_port(Port("out", required=["x"]))
    machine2 = app.behavior(talker)
    machine2.state("s", initial=True, entry="set_timer(t, 40);")
    machine2.on_timer(
        "s", "s", "t", effect="send x() via out; set_timer(t, 40);",
        internal=True,
    )
    app.process(app.top, "talker1", talker)
    app.group("gt")
    app.assign("talker1", "gt")
    app.group("gl")
    for index in range(1, listeners + 1):
        name = f"r{index}"
        app.process(app.top, name, listener, process_type=listener_type)
        app.assign(name, "gl")
        if wired:
            app.connect(app.top, ("talker1", "out"), (name, "inp"))
    platform = PlatformModel("CpuDsp", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    platform.instantiate("dsp1", "NiosDSP")
    platform.segment("seg1", "HIBISegment")
    platform.attach("cpu1", "seg1", address=0x100)
    platform.attach("dsp1", "seg1", address=0x200)
    mapping = MappingModel(app, platform)
    mapping.map("gt", "cpu1")
    mapping.map("gl", "dsp1")
    return app, platform, mapping


class TestWiringErrors:
    """Wiring errors raise the same error at the same simulated event, in
    every simulation of the model: a failed lookup is never stored."""

    @pytest.mark.parametrize(
        "options, error, message, time_ps, dispatched",
        [
            (
                {"wired": False},
                ModelError,
                "no route for signal 'x' from process 'talker1' via port 'out'",
                42_000_000,
                5,
            ),
            (
                {"listeners": 2},
                ModelError,
                "signal 'x' from process 'talker1' is ambiguous: r1.inp, r2.inp",
                42_000_000,
                7,
            ),
            (
                {"listener_params": ("n",)},
                SimulationError,
                "signal 'x' delivered 0 argument(s) but process 'r1' binds 1",
                42_680_000,
                7,
            ),
            (
                {"listener_type": "hardware"},
                ModelError,
                "PE 'NiosDSP' cannot execute 'hardware' processes",
                0,
                0,
            ),
        ],
        ids=["no-route", "ambiguous", "arity", "process-type"],
    )
    def test_error_raised_at_the_same_event(
        self, options, error, message, time_ps, dispatched
    ):
        system = talker_system(**options)
        for _ in range(2):
            simulation = SystemSimulation(*system)
            with pytest.raises(error) as excinfo:
                simulation.run(1_000)
            assert str(excinfo.value) == message
            assert simulation.kernel.now_ps == time_ps
            assert simulation.kernel.dispatched == dispatched
