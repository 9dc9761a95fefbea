"""Inputs, passes and correctness gates of the three benchmark workloads.

Each workload has a ``prepare(seed)`` that builds every input (and every
expected answer) from the seed, and a ``run_pass(state, tracer)`` that
does one timed pass over those inputs and returns a :class:`PassResult`.
Checking outputs happens after the pass's clock has stopped, so gates
never count as work.

* ``scale``  - honest runs of N tags x 4 hops for every protocol, plus
  RF-Chain in patched mode: ``build_run``, all visits, all claims,
  ``finalize``.
* ``audit``  - ``parse_trace`` then ``verdict_for`` and ``classify_claim``
  on every claim, over long seeded multi-tag traces with planted attack
  claims and over a seeded sample of the short criterion-1 sweep.
* ``corpus`` - one in-process ``emit_matrix(corpus_dir())``, the report
  that ``pathtrace matrix`` prints.

Expected answers never come from the code under test: verdicts and labels
come from the frozen oracles in ``tests/oracles.py``, claim counts from the
schemes' definitions, and report bytes from digests committed beside this
file (``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from oracles import (
    enumerate_sequences,
    oracle_authorized,
    oracle_classify,
    oracle_complete,
    oracle_physical,
    oracle_sorted,
    oracle_sound,
)

from pathtrace import trace as tr  # module attributes, so a traced run sees the calls
from pathtrace.matrix import emit_matrix
from pathtrace.protocols import RunConfig, build_run, finalize
from pathtrace.scenario import corpus_dir

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: wall time and machine speed per part, and how many checked
    outputs were wrong.  The run's tally of checks is one too."""

    parts: dict[str, float] = field(default_factory=dict)  # wall seconds
    speeds: dict[str, float] = field(default_factory=dict)  # see reference.py
    readings: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def timed(self, part: str, fn, *args):
        """Run one part of the pass between two readings of the machine's
        speed.  An exception is returned, for the caller to count as a
        wrong output: a crash never aborts the run."""
        if not self.readings:
            self.readings.append(reference.reading())
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            out = exc
        self.parts[part] = perf_counter() - start
        self.readings.append(reference.reading())
        self.speeds[part] = reference.speed(*self.readings[-2:])
        return out

    @property
    def speed(self) -> float:
        """The speed factor of the whole pass, weighted by part time."""
        return sum(t * self.speeds[p] for p, t in self.parts.items()) / sum(self.parts.values())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def merge(self, other: "PassResult") -> None:
        """Add another pass's checks to this tally."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: max(0, 20 - len(self.problems))]


# --- scale -----------------------------------------------------------------

SCALE_TAGS = 100
SCALE_HOPS = 4
SCALE_CANARY = {"seed": 0, "tags": 8}
SCALE_READERS = [
    ("r1", "acme"),
    ("r2", "bolt"),
    ("r3", "crate"),
    ("r4", "dock"),
    ("r5", "eagle"),
    ("r6", "forge"),
]
TAG_CAPACITY_BITS = 8192  # roomy enough for every scheme's 4-hop state
# (label, protocol, mode); the label names the run in metrics and digests
SCALE_RUNS = [
    ("burbridge", "burbridge", "default"),
    ("rfchain", "rfchain", "default"),
    ("rfchain-patched", "rfchain", "patched"),
    ("resc", "resc", "default"),
    ("stepauth", "stepauth", "default"),
    ("ray", "ray", "default"),
    ("tracker", "tracker", "default"),
    ("checker", "checker", "default"),
]


def claims_per_tag(protocol: str, hops: int) -> int:
    """Claims an honest tag yields, by each scheme's definition: Checker
    claims the prefix at every reader and again when asked; StepAuth claims
    on reaching its last reader and again when asked; the rest claim once."""
    if protocol == "checker":
        return hops + 1
    if protocol == "stepauth":
        return 2
    return 1


@dataclass
class ScaleRun:
    label: str
    config: RunConfig
    paths: dict[str, tuple[str, ...]]
    visit_order: list[tuple[str, str]]
    claim_order: list[str]


def scale_run(label: str, protocol: str, mode: str, seed: int, tags: int) -> ScaleRun:
    """An honest world: each tag walks its own 4 distinct readers, visits
    interleave across tags, then every tag is claimed in a seeded order."""
    rng = random.Random(f"{seed}:{label}")
    tokens = [t for t, _ in SCALE_READERS]
    names = [f"t{i}" for i in range(tags)]
    paths = {t: tuple(rng.sample(tokens, SCALE_HOPS)) for t in names}
    readers: list[tuple[str, str | None]] = list(SCALE_READERS)
    params: dict[str, str] = {}
    if protocol == "tracker":
        readers.append(("m", None))  # the manager verifies and sits on no path
        params["manager"] = "m"
    config = RunConfig(
        protocol=protocol,
        seed=seed,
        mode=mode,
        readers=readers,
        tags=names,
        # RF-Chain registers no valid paths, so its claims are never authorized
        valid_paths=[] if protocol == "rfchain" else sorted(paths.items()),
        capacities={t: TAG_CAPACITY_BITS for t in names},
        params=params,
    )
    visit_order = []
    for step in range(SCALE_HOPS):
        order = list(names)
        rng.shuffle(order)
        visit_order += [(t, paths[t][step]) for t in order]
    claim_order = list(names)
    rng.shuffle(claim_order)
    return ScaleRun(label, config, paths, visit_order, claim_order)


@dataclass
class ScaleState:
    tags: int
    runs: list[ScaleRun]
    digests: dict[str, str] = field(default_factory=dict)  # first pass, per run


def prepare_scale(seed: int) -> ScaleState:
    runs = [scale_run(label, p, m, seed, SCALE_TAGS) for label, p, m in SCALE_RUNS]
    return ScaleState(tags=SCALE_TAGS, runs=runs)


def execute_scale_run(run: ScaleRun, tracer=None):
    """build_run, all visits, all claims, finalize; one span per phase.

    Traced, it also counts the ``sym_enc`` calls of the claim phase (RF-Chain
    spends one per ledger record it compares) and the claimed steps."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    prefix = f"protocols.{run.label}"
    with span(prefix + ".setup"):
        protocol, world = build_run(run.config)
    with span(prefix + ".visit"):
        for tag_token, reader_token in run.visit_order:
            protocol.visit(tag_token, reader_token)
    with span(prefix + ".claim") as traced:
        before = traced.calls.get("crypto.sym_enc", 0) if traced else 0
        for tag_token in run.claim_order:
            protocol.claim(tag_token)
    with span(prefix + ".finalize"):
        result = finalize(protocol, world)
    if traced:
        traced.add_count(prefix + ".records_compared", traced.calls.get("crypto.sym_enc", 0) - before)
        traced.add_count(prefix + ".steps_verified", sum(len(c.path) for c in result.claims()))
    return result


def check_scale_result(res: PassResult, run: ScaleRun, result) -> str:
    """Gate one honest run; returns the digest of its report."""
    protocol = run.config.protocol
    res.check(not result.stalled, f"{run.label}: honest run stalled")
    want = claims_per_tag(protocol, SCALE_HOPS) * len(run.config.tags)
    res.check(len(result.verdicts) == want, f"{run.label}: {len(result.verdicts)} claims, want {want}")
    for v in result.verdicts:
        ok = v.sound and v.sorted and v.authorized == (protocol != "rfchain")
        res.check(ok, f"{run.label}: claim {v.claim_index} verdict {v.properties()}")
    return sha256_lines(result.report_lines())


def run_scale_pass(state: ScaleState, tracer=None) -> PassResult:
    res = PassResult()
    outputs = []
    for run in state.runs:
        outputs.append((run, res.timed(run.label, execute_scale_run, run, tracer)))
    for run, result in outputs:
        if isinstance(result, Exception):
            res.check(False, f"{run.label}: raised {result!r}")
            continue
        digest = check_scale_result(res, run, result)
        # the same seed must give the same report on every pass
        first = state.digests.setdefault(run.label, digest)
        res.check(digest == first, f"{run.label}: report differs from the first pass")
    return res


def check_scale_canary(res: PassResult) -> None:
    """Report bytes of a small fixed world against the committed digests."""
    for label, protocol, mode in SCALE_RUNS:
        run = scale_run(label, protocol, mode, SCALE_CANARY["seed"], SCALE_CANARY["tags"])
        try:
            result = execute_scale_run(run)
        except Exception as exc:
            res.check(False, f"canary {label}: raised {exc!r}")
            continue
        digest = check_scale_result(res, run, result)
        want = DIGESTS["scale_canary"][label]
        res.check(digest == want, f"canary {label}: report digest {digest[:16]}, want {want[:16]}")


# --- audit -----------------------------------------------------------------

AUDIT_SIZES = (500, 1000, 2000, 4000)
AUDIT_CLAIM_SHARE = 4  # one tag in four is audited
AUDIT_READERS = [f"r{i}" for i in range(1, 9)]
AUDIT_KINDS = ("honest", "OutOfOrder", "SkipStep", "Reroute", "GhostStep", "UnauthorizedPath")
SWEEP_ALPHABET = "abcd"  # the criterion-1 domain of tests/test_acceptance.py
SWEEP_MAX_LEN = 4
SWEEP_VALID = [("a", "b", "c"), ("b", "a")]
SWEEP_SAMPLE = 3000


@dataclass
class Expected:
    """Oracle answer for one claim: the four properties and the label set."""

    props: tuple[bool, bool, bool, bool]
    labels: frozenset[str]


def oracle_answer(visits, claimed, valid) -> Expected:
    phys = oracle_physical(tuple(visits))
    props = (
        oracle_sound(phys, claimed),
        oracle_complete(phys, claimed),
        oracle_sorted(phys, claimed),
        oracle_authorized(valid, claimed),
    )
    return Expected(props, oracle_classify(tuple(visits), tuple(claimed), valid))


def _plant(kind: str, rng: random.Random):
    """Valid paths, visits and claim of one tag, shaped so that the planted
    attack label is among the ones the definition assigns."""
    vp = rng.sample(AUDIT_READERS, 4)
    valid = [vp]
    if rng.random() < 0.5:
        valid.append(rng.sample(AUDIT_READERS[:6], 3))
    visits, claim = list(vp), list(vp)
    if kind == "OutOfOrder":
        i = rng.randrange(3)
        claim[i], claim[i + 1] = claim[i + 1], claim[i]
    elif kind == "SkipStep":
        del claim[rng.randrange(1, 3)]
    elif kind == "Reroute":
        visits.insert(rng.randrange(1, 4), rng.choice(("x1", "x2", "x3")))
    elif kind == "GhostStep":
        del visits[rng.randrange(4)]
    elif kind == "UnauthorizedPath":
        claim = visits = [vp[0]] + rng.sample([r for r in AUDIT_READERS if r not in vp], 2)
        valid = [vp]
    return valid, visits, claim


@dataclass
class AuditTrace:
    events: int
    text: str
    expected: list[Expected]  # one per claim, in trace order


def make_audit_trace(size: int, rng: random.Random) -> AuditTrace:
    """A multi-tag trace of about ``size`` events: every tag registers its
    paths, walks, and one tag in AUDIT_CLAIM_SHARE is then claimed.  Tags
    interleave at random, keeping each tag's own events in order."""
    per_tag: list[list[tuple[str, ...]]] = []
    truth: dict[str, Expected] = {}
    events = 0
    i = 0
    while events < size:
        tag_token = f"t{i}"
        audited = i % AUDIT_CLAIM_SHARE == 0
        kind = AUDIT_KINDS[(i // AUDIT_CLAIM_SHARE) % len(AUDIT_KINDS)] if audited else "honest"
        valid, visits, claim = _plant(kind, rng)
        rows = [("VALIDPATH", tag_token, *p) for p in valid]
        rows += [("MOVE", tag_token, r) for r in visits]
        if audited:
            rows.append(("CLAIM", tag_token, "v", *claim))
            expected = oracle_answer(visits, claim, valid)
            if kind != "honest" and kind not in expected.labels:
                raise AssertionError(f"generator planted {kind} but the oracle says {expected.labels}")
            truth[tag_token] = expected
        per_tag.append(rows)
        events += len(rows)
        i += 1
    cursors = [0] * len(per_tag)
    live = list(range(len(per_tag)))
    lines: list[str] = []
    expected_in_order: list[Expected] = []
    while live:
        k = rng.randrange(len(live))
        t = live[k]
        row = per_tag[t][cursors[t]]
        lines.append(" ".join(row))
        if row[0] == "CLAIM":
            expected_in_order.append(truth[row[1]])
        cursors[t] += 1
        if cursors[t] == len(per_tag[t]):
            live[k] = live[-1]
            live.pop()
    return AuditTrace(len(lines), "\n".join(lines) + "\n", expected_in_order)


def sweep_case_text(visits, claimed) -> str:
    rows = [" ".join(("VALIDPATH", "t", *vp)) for vp in SWEEP_VALID]
    rows += [f"MOVE t {r}" for r in visits]
    rows.append(" ".join(("CLAIM", "t", "v", *claimed)))
    return "\n".join(rows) + "\n"


@dataclass
class AuditState:
    long: dict[int, AuditTrace]
    short_texts: list[str]
    short_expected: list[Expected]


def prepare_audit(seed: int) -> AuditState:
    rng = random.Random(f"{seed}:audit")
    long = {size: make_audit_trace(size, rng) for size in AUDIT_SIZES}
    sequences = list(enumerate_sequences(SWEEP_ALPHABET, SWEEP_MAX_LEN))
    claims = [s for s in sequences if s]  # a dumped claim names at least one reader
    state = AuditState(long, [], [])
    for _ in range(SWEEP_SAMPLE):
        visits, claimed = rng.choice(sequences), rng.choice(claims)
        state.short_texts.append(sweep_case_text(visits, claimed))
        state.short_expected.append(oracle_answer(visits, claimed, SWEEP_VALID))
    return state


def audit_text(text: str) -> list[tuple[tuple[bool, bool, bool, bool], frozenset[str]]]:
    """What an auditor does with one dumped trace: parse, then judge and
    label every claim."""
    trace = tr.parse_trace(text)
    out = []
    for idx, _claim in trace.claims():
        v = tr.verdict_for(trace, idx)
        labels = tr.classify_claim(trace, idx)
        out.append(((v.sound, v.complete, v.sorted, v.authorized), frozenset(l.value for l in labels)))
    return out


def _check_answers(res: PassResult, where: str, got, expected: list[Expected]) -> None:
    if isinstance(got, Exception):
        for _ in expected:
            res.check(False, f"{where}: raised {got!r}")
        return
    res.check(len(got) == len(expected), f"{where}: {len(got)} claims, want {len(expected)}")
    for n, ((props, labels), want) in enumerate(zip(got, expected)):
        res.check(
            props == want.props and labels == want.labels,
            f"{where} claim {n}: got {props} {sorted(labels)}, want {want.props} {sorted(want.labels)}",
        )


def _audit_texts(texts: list[str]) -> list:
    out = []
    for text in texts:
        try:
            out.append(audit_text(text))
        except Exception as exc:  # a crash is a wrong answer for every claim
            out.append(exc)
    return out


def run_audit_pass(state: AuditState, tracer=None) -> PassResult:
    res = PassResult()
    long_out = {size: res.timed(f"long.{size}", audit_text, t.text) for size, t in state.long.items()}
    short_out = res.timed("short", _audit_texts, state.short_texts)
    for size, trace in state.long.items():
        _check_answers(res, f"long {size}", long_out[size], trace.expected)
    for n, (got, want) in enumerate(zip(short_out, state.short_expected)):
        _check_answers(res, f"sweep case {n}", got, [want])
    return res


# --- corpus ----------------------------------------------------------------

@dataclass
class CorpusState:
    directory: Path
    scenarios: int


def prepare_corpus(seed: int) -> CorpusState:
    # the bundled corpus is fixed; the seed has nothing to vary
    directory = corpus_dir()
    return CorpusState(directory, len(list(directory.glob("*.scn"))))


def run_corpus_pass(state: CorpusState, tracer=None) -> PassResult:
    res = PassResult()
    out = res.timed("matrix", emit_matrix, state.directory)
    if isinstance(out, Exception):
        res.check(False, f"emit_matrix raised {out!r}")
        return res
    code, lines = out
    res.check(code == 0, f"emit_matrix exit {code}")
    digest = sha256_lines(lines)
    want = DIGESTS["corpus_matrix"]
    res.check(digest == want, f"matrix report digest {digest[:16]}, want {want[:16]}")
    rows = [line for line in lines if line.startswith("scenario ")]
    res.check(len(rows) == state.scenarios, f"{len(rows)} scenarios reported, want {state.scenarios}")
    for row in rows:
        res.check(row.endswith(" exit=0"), f"scenario failed: {row}")
    return res


WORKLOADS = {
    "scale": (prepare_scale, run_scale_pass),
    "audit": (prepare_audit, run_audit_pass),
    "corpus": (prepare_corpus, run_corpus_pass),
}
