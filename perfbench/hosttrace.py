"""Host wall-time spans around the calls into each layer of ``repro``.

The tracer patches the public (and kernel/bus callback) entry points of
each layer with a timing wrapper, from the benchmark's side only: the
program itself is not modified, and :meth:`HostTracer.uninstall` puts the
original functions back, so untraced runs execute the unmodified code.

A span opens when control *enters* a layer from another one; calls that
stay inside a layer are not spans of their own, so call counts are
outermost entries.  A layer's self time is the time control spent in it
with no span of another layer open inside it.  Spans are kept in memory
(up to ``span_cap``) and written once, as Chrome-trace JSON that Perfetto
and ``chrome://tracing`` open.  Every timestamp is host time.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter_ns
from typing import List, Tuple

#: pseudo-layer for time inside a traced operation that no layer span covers
ROOT = "unattributed"
#: root of a campaign worker's profile: candidate evaluation outside any
#: traced layer (model build from the spec, metric summary)
WORKER_ROOT = "exploration.evaluate"


def _entry_points():
    """(layer, owner, attribute) triples; the owner is a class or a module.

    Layer names are the modules under ``src/repro``.  Entry points are the
    places control crosses into a layer: its public functions, plus the
    private methods the kernel and the bus call back into.
    """
    from repro.analysis import dataflow, efsm, sigflow, values
    from repro.analysis import mapping as analysis_mapping
    from repro.exploration import cache, engine, pruning, supervisor
    from repro.simulation import bus, executor, kernel, logfile, system

    points = []

    def add(layer, owner, *names):
        points.extend((layer, owner, name) for name in names)

    # the interpreter as the executor sees it: patching the names the
    # executor imported leaves the interpreter's own recursion untouched,
    # so every recorded call is an outermost execute/evaluate entry
    add("uml.actions", executor, "execute", "evaluate")
    add("simulation.executor", executor.ProcessExecutor,
        "__init__", "start", "consume_signal", "fire_timer")
    add("simulation.system", system.SystemSimulation,
        "__init__", "run", "_fire_delivery", "_deliver", "_complete_step",
        "_schedule_deliver", "_receive_delay_ps", "_bus_fault")
    add("simulation.bus", bus.HibiBus, "__init__", "transfer", "_release")
    for kernel_cls in {kernel.Kernel, kernel.HeapKernel, kernel.select_backend()}:
        add("simulation.kernel", kernel_cls,
            "__init__", "run", "schedule", "schedule_at", "cancel")
    add("simulation.logfile", logfile.LogWriter,
        "__init__", "exec_step", "signal", "drop", "fault", "finish", "render")
    add("exploration.pruning", engine, "prune_candidates")
    add("analysis.mapping", pruning,
        "static_application_profile", "static_mapping_estimate")
    add("exploration.cache", cache.ResultCache, "load", "store")
    add("exploration.supervisor", supervisor.Supervisor, "run")
    add("analysis.efsm", efsm, "check_machine")
    add("analysis.dataflow", dataflow, "check_machine")
    add("analysis.values", values, "check_machine")
    add("analysis.sigflow", sigflow, "check_application")
    add("analysis.mapping", analysis_mapping, "check_mapping")
    return points


class Profile:
    """Self ns per layer; inclusive ns and calls per ``layer:function``."""

    def __init__(self, self_ns=None, incl_ns=None, calls=None) -> None:
        self.self_ns = Counter(self_ns or {})
        self.incl_ns = Counter(incl_ns or {})
        self.calls = Counter(calls or {})

    def add(self, other: "Profile") -> None:
        self.self_ns.update(other.self_ns)
        self.incl_ns.update(other.incl_ns)
        self.calls.update(other.calls)

    def self_s(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    def inclusive_s(self, layer: str, *names: str) -> float:
        return sum(self.incl_ns[f"{layer}:{name}"] for name in names) / 1e9

    def count(self, layer: str, *names: str) -> int:
        return sum(self.calls[f"{layer}:{name}"] for name in names)

    def to_json(self) -> dict:
        return {"self_ns": self.self_ns, "incl_ns": self.incl_ns, "calls": self.calls}


class HostTracer:
    """Installs the wrappers and accumulates one :class:`Profile` at a time."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.spans_dropped = 0
        self._originals: List[Tuple[object, str, object]] = []
        self.begin()

    def install(self, worker_dir: str) -> None:
        """Patch every entry point; campaign workers report to ``worker_dir``.

        Campaign workers are forked with the wrappers in place.  Each one
        profiles its candidate evaluation and writes the profile to
        ``worker_dir`` before it reports its result, so the files are
        complete once the campaign returns (see :meth:`collect_workers`).
        """
        from repro.exploration import engine

        for layer, owner, name in _entry_points():
            if isinstance(owner, type):
                original = owner.__dict__[name]
            else:
                original = getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, name, original))
        self._originals.append((engine, "evaluate_spec", engine.evaluate_spec))
        engine.evaluate_spec = self._wrap_worker(engine.evaluate_spec, worker_dir)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def begin(self, root: str = ROOT) -> None:
        """Start a fresh profile; ``root`` names time no span covers."""
        self.profile = Profile()
        self._stack: List[str] = [root]
        self._mark = perf_counter_ns()

    def take(self) -> Profile:
        """The profile so far; accumulation continues into a new one."""
        now = perf_counter_ns()
        self.profile.self_ns[self._stack[-1]] += now - self._mark
        self._mark = now
        taken, self.profile = self.profile, Profile()
        return taken

    def _wrap_worker(self, fn, worker_dir: str):
        tracer = self
        parent = os.getpid()

        def evaluate_spec(spec, checkpointer=None):
            if os.getpid() == parent:
                return fn(spec, checkpointer=checkpointer)
            tracer.begin(root=WORKER_ROOT)
            try:
                return fn(spec, checkpointer=checkpointer)
            finally:
                # one worker per candidate: the spec digest names the file
                path = os.path.join(worker_dir, f"worker-{spec.digest()}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(tracer.take().to_json(), handle)

        return evaluate_spec

    @staticmethod
    def collect_workers(worker_dir: str) -> Profile:
        """Sum and remove the profiles campaign workers left in ``worker_dir``."""
        total = Profile()
        for name in sorted(os.listdir(worker_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(worker_dir, name)
                with open(path, encoding="utf-8") as handle:
                    total.add(Profile(**json.load(handle)))
                os.unlink(path)
        return total

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}:{name}"

        def traced(*args, **kwargs):
            stack = tracer._stack
            outer = stack[-1]
            if outer == layer:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            tracer.profile.self_ns[outer] += start - tracer._mark
            stack.append(layer)
            # the tracer's own bookkeeping falls between marks, so it is
            # charged to no layer and shows as unattributed time
            tracer._mark = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                profile = tracer.profile
                profile.self_ns[layer] += end - tracer._mark
                profile.incl_ns[key] += end - start
                profile.calls[key] += 1
                stack.pop()
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((layer, name, start, end, len(stack)))
                else:
                    tracer.spans_dropped += 1
                tracer._mark = perf_counter_ns()

        return traced

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Every kept span as Chrome-trace JSON (microseconds, host time)."""
        origin = min((span[2] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"layer": layer, "depth": depth},
            }
            for layer, name, start, end, depth in self.spans
        ]
        events.append({"name": "process_name", "ph": "M", "pid": 1,
                       "args": {"name": "repro (host time)"}})
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, clock="host perf_counter_ns",
                              spans_dropped=self.spans_dropped),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
