"""Shared scaffolding for protocol models.

A protocol model binds entities (issuer, readers, tags, possibly a backend
or manager) to a Dolev-Yao network and an event trace.  Running a scenario
means: register paths and set up keys, walk tags along a movement script
(each arrival at a protocol reader runs the scheme's step logic and always
records a Move), then let the scheme's verifier attempt path claims.
Each scheme declares its ``path_rule``, fixed ``verifier`` (if any),
``tag_bits`` and the preconditions of its setup (``check_setup``); the
base registers the paths, refuses a world that breaks either of them
before setup runs, and refuses a foreign claimant.
Schemes put claims on the trace only through ``emit_claim``, and take
bytes they did not make only through ``_receive``, which refuses what
their parse refuses.  ``RunConfig.along`` builds a world from each tag's
path, and ``play`` walks a script; ``run_protocol`` is ``build_run``,
``play`` and ``finalize``.

All verdicts are computed afterwards from the trace alone, so a protocol
cannot grade its own homework.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, TypeVar

from pathtrace import trace as tr
from pathtrace.network import STRATEGIES, AdvModel, Message, Network, TagMemory

DEFAULT_TAG_CAPACITY = 512

T = TypeVar("T")


class VerifierPolicyError(Exception):
    """Raised when an entity that is not allowed to verify attempts a claim."""


class PathRuleError(ValueError):
    """A tag's registered paths break its scheme's ``path_rule``."""

    def __init__(self, protocol: str, tag_token: str, rule: str) -> None:
        super().__init__(f"{protocol} needs {rule} registered path for {tag_token}")
        self.tag = tag_token


class SetupError(ValueError):
    """A registered path breaks a precondition of its scheme's setup;
    ``tag`` and ``path`` name it."""

    def __init__(self, message: str, tag_token: str, path: tuple[str, ...]) -> None:
        super().__init__(message)
        self.tag = tag_token
        self.path = path


@dataclass
class RunConfig:
    """Declarative description of one simulated run."""

    protocol: str
    seed: int = 0
    mode: str = "default"
    adversary: AdvModel = AdvModel.ADV_T
    strategy: str = "null"
    # (token, participant): the participant who operates the reader only describes it
    readers: list[tuple[str, str | None]] = field(default_factory=list)
    transits: list[str] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    valid_paths: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    script: list[tuple[str, ...]] = field(default_factory=list)
    capacities: dict[str, int] = field(default_factory=dict)
    compromise: list[str] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)

    def capacity_for(self, tag_token: str) -> int:
        return self.capacities.get(tag_token, DEFAULT_TAG_CAPACITY)

    @classmethod
    def along(
        cls,
        protocol: str,
        paths: dict[str, tuple[str, ...]],
        readers: list[str] | None = None,
        **settings,
    ) -> RunConfig:
        """A world of the tags in ``paths`` order, each registered on its
        path and sized by the scheme's ``tag_bits`` of the longest path.
        ``readers`` default to the paths' readers in first-visit order,
        the paths taken in turn; ``settings`` are the other fields."""
        if readers is None:
            readers = list(dict.fromkeys(token for path in paths.values() for token in path))
        bits = PROTOCOLS[protocol].tag_bits(max(map(len, paths.values())))
        return cls(
            protocol,
            readers=[(token, None) for token in readers],
            tags=list(paths),
            valid_paths=list(paths.items()),
            capacities=dict.fromkeys(paths, bits),
            **settings,
        )


class Run:
    """Mutable state of one simulation: trace, network, entity directory."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.rng = Random(config.seed)
        self.trace = tr.Trace()
        self.net = Network(config.adversary)
        self.readers = dict.fromkeys(token for token, _ in config.readers)
        self.transits = set(config.transits)
        self.tags = set(config.tags)
        self.step_log: list[str] = []
        self.stalled = False
        for token in config.tags:
            self.net.attach_tag(token, TagMemory(config.capacity_for(token)))

    def declared_path(self, tag_token: str, reader_tokens: Iterable[str]) -> tuple[str, ...]:
        """``reader_tokens`` as a tuple.  KeyError names ``tag_token`` when
        it is not a declared tag, or else the first reader token that is
        neither a declared reader nor a transit."""
        if tag_token not in self.tags:
            raise KeyError(tag_token)
        path = tuple(reader_tokens)
        for token in path:
            if token not in self.readers and token not in self.transits:
                raise KeyError(token)
        return path

    def memory(self, token: str) -> TagMemory:
        """The tag's memory, looked up in the network's own map."""
        return self.net._tags[token]


class ProtocolModel:
    """Base class; concrete schemes override the underscored hooks."""

    name = "abstract"
    architecture = "offline"  # or "online"
    modes: tuple[str, ...] = ("default",)  # accepted ``RunConfig.mode`` values
    param_keys: tuple[str, ...] = ()  # the ``RunConfig.params`` keys setup reads
    path_rule = "any"  # paths per tag: "exactly one", "at least one", "any" or "none"
    verifier: str | None = None  # the only claimant, for a scheme with a fixed one
    # what setup gives each reader of a registered path, in a scheme that
    # keys them per path; None when a path may pass any reader
    path_reader_holds: str | None = None

    def __init__(self, run: Run) -> None:
        self.run = run
        self.config = run.config
        self.rng = run.rng
        self.net = run.net
        self.trace = run.trace
        self.paths_of = self.registered_paths(self.config.tags, self.config.valid_paths)
        self.check_setup(self.config, self.paths_of)
        for tag_token, paths in self.paths_of.items():
            for path in paths:
                self.trace.append(tr.ValidPath(tag_token, run.declared_path(tag_token, path)))

    @classmethod
    def registered_paths(
        cls, tags: Iterable[str], valid_paths: Iterable[tuple[str, tuple[str, ...]]]
    ) -> dict[str, list[tuple[str, ...]]]:
        """Each tag's paths in declared order, from one pass over ``valid_paths``
        (an undeclared tag's are ignored); PathRuleError names a tag that
        breaks ``path_rule``."""
        paths_of: dict[str, list[tuple[str, ...]]] = {t: [] for t in tags}
        if cls.path_rule == "none":
            return paths_of
        for tag_token, path in valid_paths:
            if tag_token in paths_of:
                paths_of[tag_token].append(tuple(path))
        if cls.path_rule != "any":
            for tag_token, paths in paths_of.items():
                if not paths or (cls.path_rule == "exactly one" and len(paths) > 1):
                    raise PathRuleError(cls.name, tag_token, cls.path_rule)
        return paths_of

    @classmethod
    def check_setup(cls, config: RunConfig, paths_of: dict[str, list[tuple[str, ...]]]) -> None:
        """Raise SetupError for a world ``setup`` cannot build; ``paths_of``
        is ``registered_paths`` of its tags.  In a scheme whose readers hold
        their ``path_reader_holds``, every token on a registered path must
        be one of them: ``reader_roles`` maps it to None.  A transit reader
        holds nothing, and a scheme with other preconditions states them
        here."""
        if cls.path_reader_holds is None:
            return
        roles = cls.reader_roles(config)
        for tag_token, paths in paths_of.items():
            for path in paths:
                for token in path:
                    role = roles.get(token, "not a protocol reader")
                    if role is not None:
                        raise SetupError(
                            f"{cls.name} reader {token} on a registered path of {tag_token}"
                            f" is {role} and holds no {cls.path_reader_holds}",
                            tag_token,
                            path,
                        )

    @classmethod
    def reader_roles(cls, config: RunConfig) -> dict[str, str | None]:
        """Each protocol reader mapped to None when it holds its
        ``path_reader_holds``, or else to what it is instead."""
        return dict.fromkeys(token for token, _ in config.readers)

    @classmethod
    def tag_bits(cls, path_length: int) -> int:
        """Nominal tag storage the scheme needs for a length-l path."""
        return DEFAULT_TAG_CAPACITY

    # --- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        """Key material and handler wiring; paths are already registered."""
        raise NotImplementedError

    def visit(self, tag_token: str, reader_token: str) -> None:
        """Tag arrives at a reader.  Always records the Move; protocol step
        logic runs only for protocol readers, not bare transit readers.  An
        undeclared tag or reader raises KeyError and records nothing."""
        self.run.declared_path(tag_token, (reader_token,))
        self.trace.append(tuple.__new__(tr.Move, (tag_token, reader_token)))
        if reader_token in self.run.transits:
            self.run.step_log.append(f"transit {tag_token} {reader_token}")
            return
        ok = self._process_arrival(tag_token, reader_token)
        if not ok:
            self.run.stalled = True
        self.run.step_log.append(f"visit {tag_token} {reader_token} {'ok' if ok else 'failed'}")

    def claim(self, tag_token: str, verifier: str | None = None) -> None:
        """Scheme's verifier attempts a PathClaim for the tag.

        `verifier` overrides the scheme's default claiming entity; one that
        the fixed ``verifier`` or the scheme's own policy forbids raises
        VerifierPolicyError.
        """
        if self.verifier is not None and verifier not in (None, self.verifier):
            raise VerifierPolicyError(f"only {self.verifier} verifies {self.name} claims, not {verifier}")
        ok = self._process_claim(tag_token, verifier)
        self.run.step_log.append(f"claim {tag_token} {'ok' if ok else 'rejected'}")

    # --- hooks ----------------------------------------------------------

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        raise NotImplementedError

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        raise NotImplementedError

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        """Secrets surrendered when this reader is compromised; ``build_run``
        registers it, after ``setup``, for each ``compromisable`` reader."""
        raise NotImplementedError

    def compromisable(self) -> list[str]:
        """Readers whose ``reader_secrets`` ``build_run`` registers: every
        configured reader (a bare transit reader is not one)."""
        return list(self.run.readers)

    # --- helpers --------------------------------------------------------

    def _receive(
        self, arrived: bytes | None, parse: Callable[[bytes], T | None], malformed: str
    ) -> T | None:
        """``parse(arrived)``, or None when the message was dropped or
        ``parse`` refuses it; a refusal is logged as the anomaly ``malformed``."""
        if arrived is None:
            return None
        parsed = parse(arrived)
        if parsed is None:
            self.net.log_anomaly(malformed)
        return parsed

    def emit_claim(self, tag_token: str, path_tokens: Iterable[str], claimant: str) -> None:
        path = self.run.declared_path(tag_token, path_tokens)
        self.trace.append(tr.PathClaim(tag_token, path, claimant))


@dataclass
class RunResult:
    config: RunConfig
    trace: tr.Trace
    verdicts: list[tr.Verdict]
    log: list[Message]
    anomalies: list[str]
    step_log: list[str]
    stalled: bool
    compromised: list[str]

    def claims(self) -> list[tr.PathClaim]:
        return [claim for _, claim in self.trace.claims()]

    def report_lines(self) -> list[str]:
        """Deterministic, line-oriented run report."""
        lines = [
            f"protocol={self.config.protocol}",
            f"mode={self.config.mode}",
            f"seed={self.config.seed}",
            f"adversary={self.config.adversary}",
            f"strategy={self.config.strategy}",
            f"stalled={str(self.stalled).lower()}",
            f"claims={len(self.verdicts)}",
        ]
        if self.compromised:
            lines.append("compromised=" + ",".join(self.compromised))
        for v in self.verdicts:
            lines.append(
                f"verdict claim_index={v.claim_index}"
                f" sound={str(v.sound).lower()}"
                f" complete={str(v.complete).lower()}"
                f" sorted={str(v.sorted).lower()}"
                f" authorized={str(v.authorized).lower()}"
            )
        for a in self.anomalies:
            lines.append(f"anomaly {a}")
        lines.append("trace-begin")
        lines.extend(tr.dump_trace(self.trace).splitlines())
        lines.append("trace-end")
        lines.append("transcript-begin")
        lines.extend(m.line() for m in self.log)
        lines.append("transcript-end")
        return lines


PROTOCOLS: dict[str, type[ProtocolModel]] = {}


def register_protocol(cls: type[ProtocolModel]) -> type[ProtocolModel]:
    PROTOCOLS[cls.name] = cls
    return cls


def check_setting(protocol: str, setting: str, value: str) -> None:
    """Refuse a ``mode`` or a ``param`` key the registered scheme does not
    declare in its ``modes`` or ``param_keys``."""
    scheme = PROTOCOLS[protocol]
    known = scheme.modes if setting == "mode" else scheme.param_keys
    if value not in known:
        listed = ", ".join(known) or "none"
        raise ValueError(f"{protocol} does not know {setting} {value}; its {setting}s are {listed}")


def weak_partial(method: Callable, *args: object) -> Callable:
    """``partial(method, *args)`` holding the method's model weakly.  The
    network keeps what a model registers with it and the model keeps the
    network, so a strong reference back would leave every finished world
    to the cyclic collector.  Whoever reaches the network holds the model.
    The method's function is kept beside a weak reference to the model, so
    a call builds no bound method."""
    func, ref = method.__func__, weakref.ref(method.__self__)
    return lambda *rest: func(ref(), *args, *rest)


def build_run(config: RunConfig) -> tuple[ProtocolModel, Run]:
    """Construct the world, run protocol setup and register each
    compromisable reader's secrets (no movement yet).  A token that names
    two parties (two of its tags, readers and transits, or one of them and
    the scheme's fixed verifier) is refused with a ValueError."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol: {config.protocol}")
    check_setting(config.protocol, "mode", config.mode)
    for key in config.params:
        check_setting(config.protocol, "param", key)
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {config.strategy}")
    # the network routes by bare token: one token names one party
    verifier = PROTOCOLS[config.protocol].verifier
    readers = [token for token, _ in config.readers]
    declared: set[str] = set()
    for role, tokens in (("tag", config.tags), ("reader", readers), ("transit", config.transits)):
        for token in tokens:
            if token in declared:
                raise ValueError(f"{role} {token} is declared twice")
            if token == verifier:
                raise ValueError(f"{role} {token} is the fixed verifier of {config.protocol}")
            declared.add(token)
    run = Run(config)
    protocol = PROTOCOLS[config.protocol](run)
    run.net.strategy = STRATEGIES[config.strategy]
    protocol.setup()
    for token in protocol.compromisable():
        run.net.attach_secrets(token, weak_partial(protocol.reader_secrets, token))
    for reader_token in config.compromise:
        run.net.compromise(reader_token)
    return protocol, run


def finalize(protocol: ProtocolModel, run: Run) -> RunResult:
    """Judge every emitted claim against the trace.  Only ``run`` is read;
    ``protocol`` stays in the signature for the callers that pass it."""
    verdicts = [tr.verdict_for(run.trace, idx) for idx, _ in run.trace.claims()]
    return RunResult(
        config=run.config,
        trace=run.trace,
        verdicts=verdicts,
        log=list(run.net.log),
        anomalies=list(run.net.anomalies),
        step_log=list(run.step_log),
        stalled=run.stalled,
        compromised=list(run.net.compromised),
    )


def play(protocol: ProtocolModel, script: Iterable[tuple[str, ...]]) -> None:
    """Walk a movement script: ``("move", tag, reader)`` visits,
    ``("claim", tag[, verifier])`` claims; any other step is refused."""
    for step in script:
        kind = step[0]
        if kind == "move":
            protocol.visit(step[1], step[2])
        elif kind == "claim":
            protocol.claim(step[1], step[2] if len(step) > 2 else None)
        else:
            raise ValueError(f"unknown script step: {step!r}")


def run_protocol(config: RunConfig) -> RunResult:
    """Execute a full scripted scenario."""
    protocol, run = build_run(config)
    play(protocol, config.script)
    return finalize(protocol, run)
