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

The same gate holds for a network message, counted over request round
trips, and for a round of a privacy game.

Memory is counted too, with ``tracemalloc``: what a trace keeps
per claim does not grow with the path its tag has walked.
"""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from pathtrace import trace as tr
from pathtrace.network import Network
from pathtrace.privacy import GameKind, PrivacyGame, run_game
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


def calls_per_message(round_trips: int) -> float:
    """Calls per logged message of ``round_trips`` requests to one handler
    under the null strategy."""
    net = Network()
    net.register_handler("t", lambda payload, sender: payload)

    def talk():
        for i in range(round_trips):
            net.request("r", "t", i.to_bytes(4, "big"))

    calls, _ = count_calls(talk)
    assert len(net.log) == 2 * round_trips
    return calls / len(net.log)


def test_a_message_costs_the_same_on_a_longer_log():
    assert calls_per_message(4000) <= GROWTH * calls_per_message(500)


def calls_per_round(trials: int) -> float:
    """Calls per round of rounds ``trials + 1`` to ``2 * trials`` of one
    privacy game over a pool of 4 worlds.  A game's rounds are those of a
    shorter game of the same seed and then more, so the difference of the
    two games' calls is what the later rounds cost, with every pool world
    already built."""

    def calls(rounds: int) -> int:
        game = PrivacyGame(GameKind.TAG, "checker", "full-transcript", trials=rounds, seed=7, worlds=4)
        count, result = count_calls(lambda: run_game(game))
        assert result.trials == rounds
        return count

    return (calls(2 * trials) - calls(trials)) / trials


def test_a_privacy_round_costs_the_same_in_a_longer_game():
    assert calls_per_round(4000) <= GROWTH * calls_per_round(500)


CLAIMS = 200


def kept_per_claim(steps: int) -> float:
    """Bytes a trace keeps per claim, over ``CLAIMS`` identical claims of
    one tag that has one ValidPath and ``steps`` distinct Moves."""
    trace = Trace([ValidPath("t", ("r0",)), *(Move("t", f"r{i}") for i in range(steps))])
    claim = PathClaim("t", ("r0",), "v")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(CLAIMS):
            trace.append(claim)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / CLAIMS


def test_a_claim_keeps_the_same_memory_on_a_longer_path():
    short, long = kept_per_claim(10), kept_per_claim(1000)
    assert max(short, long) <= 1.5 * min(short, long)
