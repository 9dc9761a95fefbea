"""In-memory spans around the library's public entry points.

``Tracer.install()`` replaces, at run time and from this file only, the
functions and methods listed in ``TARGETS`` with wrappers that record a
span per call: name, start, end, parent and thread id.  Parents come from
a per-thread stack, because ``run_corpus`` executes scenarios on pool
threads.  Self time is a span's duration minus the time its child spans
cover, computed as each span closes.  Nothing under ``src/`` changes.

Totals are kept per thread and merged by ``snapshot()``, so concurrent
pool threads never race on a shared counter.  Raw spans are kept for the
first ``SPANS_PER_NAME`` calls of each name on each thread, which bounds
memory and output on passes with a million crypto calls; a kept span's
parent may be one that was not kept.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

SPANS_PER_NAME = 2000


# --- extra counters, recorded where the work happens ------------------------

def _count_scanned(state, args, kwargs, result) -> None:
    trace = args[0]
    upto = args[2] if len(args) > 2 else kwargs.get("upto")
    state.add_count("trace.physical_path.events_scanned", len(trace) if upto is None else upto)
    state.add_count("trace.physical_path.steps", len(result))


def _count_bytes(state, args, kwargs, result) -> None:
    payload = args[3] if len(args) > 3 else kwargs["payload"]
    state.add_count("network.transmit.bytes", len(payload))


def _count_trials(state, args, kwargs, result) -> None:
    state.add_count("privacy.trials", result.trials)


# (module, attribute, span name, extra-counter hook or None).  A dotted
# attribute names a method on a class.  A function defined in the module is traced
# wherever the library bound it; one the module imported is traced only
# for that module's own calls (``privacy.build_run`` counts world builds).
TARGETS = [
    ("pathtrace.trace", "Trace.append", "trace.append", None),
    ("pathtrace.trace", "parse_trace", "trace.parse_trace", None),
    ("pathtrace.trace", "verdict_for", "trace.verdict_for", None),
    ("pathtrace.trace", "classify_claim", "trace.classify_claim", None),
    ("pathtrace.trace", "physical_path", "trace.physical_path", _count_scanned),
    *[
        ("pathtrace.crypto", fn, f"crypto.{fn}", None)
        for fn in (
            "hash_bytes", "mac", "sign", "verify", "sym_enc", "sym_dec", "xor_stream",
            "elg_encrypt", "ct_pow", "hom_mul", "pk_enc", "pk_dec", "path_poly_eval",
        )
    ],
    ("pathtrace.network", "Network.transmit", "network.transmit", _count_bytes),
    ("pathtrace.network", "Knowledge.observe", "network.knowledge.observe", None),
    ("pathtrace.privacy", "run_game", "privacy.run_game", _count_trials),
    ("pathtrace.privacy", "_build_world", "privacy.world_build", None),
    ("pathtrace.privacy", "_rfchain_record_world", "privacy.world_build", None),
    ("pathtrace.privacy", "build_run", "privacy.build_run", None),
    ("pathtrace.scenario", "parse_scenario", "scenario.parse_scenario", None),
    ("pathtrace.scenario", "_execute_run", "scenario.execute.run", None),
    ("pathtrace.scenario", "_execute_attack", "scenario.execute.attack", None),
    ("pathtrace.scenario", "_execute_privacy", "scenario.execute.privacy", None),
    ("pathtrace.scenario", "run_corpus", "scenario.run_corpus", None),
    ("pathtrace.matrix", "build_matrix", "matrix.build_matrix", None),
    ("pathtrace.matrix", "render_table", "matrix.render", None),
    ("pathtrace.matrix", "render_records", "matrix.render", None),
]


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list] = []  # [span id, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []

    def add_count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._knowledge: list = []

    # --- recording ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _close(self, state: _ThreadState, name: str, frame: list, parent, start: float, end: float) -> None:
        duration = end - start
        if state.stack:
            state.stack[-1][1] += duration
        calls = state.calls[name] = state.calls.get(name, 0) + 1
        state.self_s[name] = state.self_s.get(name, 0.0) + duration - frame[1]
        state.total_s[name] = state.total_s.get(name, 0.0) + duration
        if calls <= SPANS_PER_NAME:
            state.spans.append((frame[0], parent, name, start, end, state.tid))

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        state = self._state()
        parent = state.stack[-1][0] if state.stack else None
        frame = [next(self._ids), 0.0]
        state.stack.append(frame)
        start = perf_counter()
        try:
            yield state
        finally:
            end = perf_counter()
            state.stack.pop()
            self._close(state, name, frame, parent, start, end)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            parent = state.stack[-1][0] if state.stack else None
            frame = [next(tracer._ids), 0.0]
            state.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.stack.pop()
                tracer._close(state, name, frame, parent, start, end)
            if hook is not None:
                hook(state, args, kwargs, result)
            return result

        return traced

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Swap every target for its traced wrapper, wherever the library
        bound it (``from x import f`` makes a second binding)."""
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            wrapped = self.wrap(name, original, hook)
            if owner_name:
                setattr(owner, fn_name, wrapped)
            elif original.__module__ == module_name:
                self._rebind(original, wrapped)
            else:
                # imported from elsewhere: trace the calls this module makes
                setattr(module, fn_name, wrapped)
        self._install_attacks()
        self._install_knowledge()

    def _rebind(self, original, wrapped) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("pathtrace"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def _install_attacks(self) -> None:
        attacks = importlib.import_module("pathtrace.attacks")
        for key, original in list(attacks.ATTACKS.items()):
            wrapped = self.wrap(f"attacks.{key}", original)
            attacks.ATTACKS[key] = wrapped
            self._rebind(original, wrapped)

    def _install_knowledge(self) -> None:
        network = importlib.import_module("pathtrace.network")
        original = network.Knowledge.__init__
        tracer = self

        @functools.wraps(original)
        def init(knowledge, *args, **kwargs):
            original(knowledge, *args, **kwargs)
            with tracer._lock:
                tracer._knowledge.append(knowledge)

        network.Knowledge.__init__ = init

    # --- reading --------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for state in self._states:
                state.calls.clear()
                state.self_s.clear()
                state.total_s.clear()
                state.counts.clear()
                state.spans.clear()
            self._knowledge.clear()

    def snapshot(self) -> dict:
        """Merged totals since the last reset: calls, self and total
        seconds per span name, extra counts, and the raw spans."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        spans: list[tuple] = []
        with self._lock:
            for state in self._states:
                for key, n in state.calls.items():
                    calls[key] = calls.get(key, 0) + n
                for key, s in state.self_s.items():
                    self_s[key] = self_s.get(key, 0.0) + s
                for key, s in state.total_s.items():
                    total_s[key] = total_s.get(key, 0.0) + s
                for key, n in state.counts.items():
                    counts[key] = counts.get(key, 0) + n
                spans.extend(state.spans)
            counts["network.knowledge.atoms"] = sum(len(k) for k in self._knowledge)
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "counts": counts, "spans": spans}
