"""Growth gate: the Python calls per unit of work do not grow with size.

A wall-clock sweep cannot settle a 10 % question on a shared host, but the
number of Python function calls is deterministic.  Each test counts the
``sys.setprofile`` "call" events of the same mix of work at two sizes and
asserts that the count per unit at the larger size is at most 1.01 times
that at the smaller.  No test reads the clock.

Only work that makes a Python call per unit shows up here: a scan done in
C (a slice, a set test) does not.  Making the judge that ``Trace.append``
runs on a claim filter every earlier event through a predicate function
fails both tests.
"""

from __future__ import annotations

import random
import sys

import pytest

from pathtrace import trace as tr
from pathtrace.protocols import RunConfig, build_run, finalize
from pathtrace.trace import Move, PathClaim, Trace, ValidPath

from pins import MULTI_TAG_RUNS, with_manager

GROWTH = 1.01


def count_calls(work):
    """The Python-level calls that ``work()`` makes, and its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    return calls, result


# (visits, valid path, claim): an honest claim and one of each attack label
CLAIM_SHAPES = [
    ("r1 r2 r3", "r1 r2 r3", "r1 r2 r3"),
    ("r1 r2 r3", "r1 r3 r2", "r1 r3 r2"),  # OutOfOrder
    ("r1 r2 r3", "r1 r2 r3", "r1 r3"),  # SkipStep
    ("r1 r4 r2 r3", "r1 r2 r3", "r1 r2 r3"),  # Reroute
    ("r1 r2", "r1 r2 r3", "r1 r2 r3"),  # GhostStep
    ("r1 r4", "r1 r2 r3", "r1 r4"),  # UnauthorizedPath
]
BYSTANDERS = 3  # unclaimed tags that walk beside each claimed one


def audit_dump(rounds: int) -> str:
    """The dump of ``rounds`` copies of ``CLAIM_SHAPES``, each claimed tag
    beside ``BYSTANDERS`` walking ones, the tags' events interleaved at
    random."""
    rng = random.Random(rounds)
    streams = []
    for r in range(rounds):
        for s, (visits, valid, claim) in enumerate(CLAIM_SHAPES):
            name = f"t{r}.{s}"
            streams.append(
                [ValidPath(name, tuple(valid.split()))]
                + [Move(name, reader) for reader in visits.split()]
                + [PathClaim(name, tuple(claim.split()), "v")]
            )
            for b in range(BYSTANDERS):
                walk = rng.sample(["r1", "r2", "r3", "r4", "r5"], 4)
                streams.append([Move(f"{name}.{b}", reader) for reader in walk])
    trace = Trace()
    while streams:
        stream = streams[rng.randrange(len(streams))]
        trace.append(stream.pop(0))
        if not stream:
            streams.remove(stream)
    return tr.dump_trace(trace)


def calls_per_event(text: str) -> float:
    """Calls per event of what an auditor does with a dump: parse it, each
    claim judged as it is appended, then ask every claim's verdict and
    labels."""

    def audit():
        trace = tr.parse_trace(text)
        for i, _ in trace.claims():
            tr.verdict_for(trace, i)
            tr.classify_claim(trace, i)
        return trace

    calls, trace = count_calls(audit)
    return calls / len(trace)


def test_judging_a_claim_costs_the_same_on_a_longer_trace():
    small, large = audit_dump(5), audit_dump(40)
    assert 450 <= small.count("\n") <= 550 and 3600 <= large.count("\n") <= 4400
    assert calls_per_event(large) <= GROWTH * calls_per_event(small)


READERS = ["r1", "r2", "r3", "r4", "r5", "r6"]
HOPS = 4


def honest_run_calls(protocol: str, mode: str, tags: int) -> int:
    """Calls of one honest run of ``tags`` tags, each on its own ``HOPS``
    distinct readers: build the world, make every visit (the tags' visits
    interleaved) and every claim, and judge the claims."""
    rng = random.Random(f"{protocol}:{mode}")
    paths = {f"t{i}": tuple(rng.sample(READERS, HOPS)) for i in range(tags)}
    config = with_manager(RunConfig.along(protocol, paths, READERS, mode=mode, seed=3))
    visits = []
    for step in range(HOPS):
        order = list(paths)
        rng.shuffle(order)
        visits += [(t, paths[t][step]) for t in order]
    claims = list(paths)
    rng.shuffle(claims)

    def run():
        model, world = build_run(config)
        for tag_token, reader_token in visits:
            model.visit(tag_token, reader_token)
        for tag_token in claims:
            model.claim(tag_token)
        return finalize(model, world)

    calls, result = count_calls(run)
    assert not result.stalled and all(v.sound and v.sorted for v in result.verdicts)
    return calls


# the seven schemes and patched RF-Chain
@pytest.mark.parametrize("protocol,mode", MULTI_TAG_RUNS, ids=[f"{p}-{m}" for p, m in MULTI_TAG_RUNS])
def test_an_honest_run_costs_the_same_per_tag_with_more_tags(protocol, mode):
    small = honest_run_calls(protocol, mode, 25) / 25
    large = honest_run_calls(protocol, mode, 100) / 100
    assert large <= GROWTH * small
