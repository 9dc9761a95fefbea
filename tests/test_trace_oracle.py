"""Checker-versus-oracle agreement on exhaustive small domains.

The full-size sweep (alphabet of 4, lengths up to 4) lives in the acceptance
suite; this file keeps a faster sweep plus targeted ordering cases so that
regressions surface close to the code.
"""

from __future__ import annotations

import random

from oracles import (
    enumerate_sequences,
    oracle_authorized,
    oracle_classify,
    oracle_complete,
    oracle_physical,
    oracle_sorted,
    oracle_sound,
)

from pathtrace.trace import (
    Move,
    PathClaim,
    Trace,
    ValidPath,
    backend,
    check_authorized,
    check_complete,
    check_sorted,
    check_sound,
    classify_claim,
    dump_trace,
    parse_trace,
    physical_path,
    reader,
    tag,
    verdict_for,
)

T1 = tag("t")
B1 = backend("v")

VALID = [("a", "b", "c"), ("b", "a")]


def build_case(visits, claimed):
    t = Trace()
    for vp in VALID:
        t.append(ValidPath(T1, tuple(reader(r) for r in vp)))
    for r in visits:
        t.append(Move(T1, reader(r)))
    idx = t.append(PathClaim(T1, tuple(reader(r) for r in claimed), B1))
    return t, idx


def test_physical_path_matches_recursive_definition():
    for visits in enumerate_sequences("abc", 5):
        t = Trace(Move(T1, reader(r)) for r in visits)
        got = physical_path(t, T1)
        assert got == oracle_physical(visits), visits


def test_checkers_agree_with_oracles_small():
    count = 0
    for visits in enumerate_sequences("abc", 3):
        expected_phys = oracle_physical(visits)
        for claimed in enumerate_sequences("abc", 3):
            t, idx = build_case(visits, claimed)
            assert bool(check_sound(t, idx)) == oracle_sound(expected_phys, claimed)
            assert bool(check_complete(t, idx)) == oracle_complete(expected_phys, claimed)
            assert bool(check_sorted(t, idx)) == oracle_sorted(expected_phys, claimed)
            assert bool(check_authorized(t, idx)) == oracle_authorized(VALID, claimed)
            count += 1
    assert count == 40 * 40


def test_classifier_agrees_with_oracle_small():
    for visits in enumerate_sequences("abc", 3):
        for claimed in enumerate_sequences("abc", 3):
            t, idx = build_case(visits, claimed)
            got = frozenset(label.value for label in classify_claim(t, idx))
            assert got == oracle_classify(visits, claimed, VALID), (visits, claimed)


def test_judgment_ignores_later_appends():
    """A claim judged, then followed by more Moves and ValidPaths of its
    tag, is judged the same again, as the oracles judge its prefix."""
    for visits in enumerate_sequences("abc", 3):
        for claimed in enumerate_sequences("abc", 2):
            t, idx = build_case(visits, claimed)
            first = (verdict_for(t, idx), classify_claim(t, idx))
            for r in ("c", "a", "d"):
                t.append(Move(T1, reader(r)))
            t.append(ValidPath(T1, tuple(reader(r) for r in claimed)))
            assert (verdict_for(t, idx), classify_claim(t, idx)) == first
            phys = oracle_physical(visits)
            assert first[0].properties() == {
                "sound": oracle_sound(phys, claimed),
                "complete": oracle_complete(phys, claimed),
                "sorted": oracle_sorted(phys, claimed),
                "authorized": oracle_authorized(VALID, claimed),
            }, (visits, claimed)
            labels = frozenset(label.value for label in first[1])
            assert labels == oracle_classify(visits, claimed, VALID), (visits, claimed)


def test_oracle_sorted_self_check():
    # the two subsequence algorithms must differ in mechanism yet agree
    assert oracle_sorted("abcab", "aca")
    assert not oracle_sorted("abc", "acb")
    assert oracle_sorted("abc", "")
    assert not oracle_sorted("", "a")


# --- interleaved multi-tag traces ------------------------------------------

MULTI_TAGS = ("t0", "t1", "t2", "idle")  # "idle" is claimed but never moves


def random_events(rng: random.Random) -> list:
    """Interleaved events for several tags: revisits and repeated readers
    come from the small alphabet and from sticky moves; claims and valid
    paths land anywhere, including before a tag's first Move or ValidPath.
    A claim copies the head of the tag's visits or of its last valid path,
    or is random, so that every property is seen holding and failing; a
    claim may name no reader."""
    events = []
    visited: dict[str, list[str]] = {name: [] for name in MULTI_TAGS}
    registered: dict[str, list[str]] = {name: [] for name in MULTI_TAGS}
    for _ in range(rng.randint(1, 30)):
        name = rng.choice(MULTI_TAGS)
        roll = rng.random()
        if roll < 0.5 and name != "idle":
            sticky = visited[name] and rng.random() < 0.3
            r = visited[name][-1] if sticky else rng.choice("abcd")
            visited[name].append(r)
            events.append(Move(tag(name), reader(r)))
        elif roll < 0.7:
            registered[name] = [rng.choice("abcd") for _ in range(rng.randint(1, 4))]
            events.append(ValidPath(tag(name), tuple(reader(r) for r in registered[name])))
        else:
            source = rng.choice([visited[name], registered[name], []])
            claimed = source[: rng.randint(0, 4)] or [rng.choice("abcd") for _ in range(rng.randint(0, 4))]
            events.append(PathClaim(tag(name), tuple(reader(r) for r in claimed), B1))
    return events


def three_builds(events: list) -> list[Trace]:
    """The same events as a Trace built by constructor, by append, and by
    a round trip through the dump format."""
    appended = Trace()
    for e in events:
        appended.append(e)
    return [Trace(events), appended, parse_trace(dump_trace(appended))]


def test_multi_tag_traces_agree_with_oracles():
    rng = random.Random(20240611)
    outcomes: set[tuple[str, bool]] = set()
    early_claims = empty_claims = 0
    for _ in range(400):
        events = random_events(rng)
        for t in three_builds(events):
            for name in MULTI_TAGS:
                visits = [e.reader for e in events if isinstance(e, Move) and e.tag == name]
                got = physical_path(t, tag(name))
                assert got == oracle_physical(visits), (events, name)
            for idx, e in enumerate(events):
                before = events[:idx]
                visits = [m.reader for m in before if isinstance(m, Move) and m.tag == e.tag]
                phys = oracle_physical(visits)
                got = physical_path(t, e.tag, idx)
                assert got == phys, (events, idx)
                if not isinstance(e, PathClaim):
                    continue
                valid = [v.path for v in before if isinstance(v, ValidPath) and v.tag == e.tag]
                claimed = e.path
                checks = {
                    "sound": check_sound(t, idx),
                    "complete": check_complete(t, idx),
                    "sorted": check_sorted(t, idx),
                    "authorized": check_authorized(t, idx),
                }
                expected = {
                    "sound": oracle_sound(phys, claimed),
                    "complete": oracle_complete(phys, claimed),
                    "sorted": oracle_sorted(phys, claimed),
                    "authorized": oracle_authorized(valid, claimed),
                }
                assert {k: bool(v) for k, v in checks.items()} == expected, (events, idx)
                verdict = verdict_for(t, idx)
                assert verdict.properties() == expected, (events, idx)
                first_failure = next((k for k, v in checks.items() if not v), None)
                witness = None if first_failure is None else f"{first_failure}: {checks[first_failure].witness}"
                assert verdict.witness == witness, (events, idx)
                labels = frozenset(label.value for label in classify_claim(t, idx))
                assert labels == oracle_classify(visits, claimed, valid), (events, idx)
                outcomes.update(expected.items())
                early_claims += not visits or not valid
                empty_claims += not claimed
    assert len(outcomes) == 8, outcomes
    # the sample reaches claims made before the tag's first Move or ValidPath
    assert early_claims > 100
    assert empty_claims > 50
