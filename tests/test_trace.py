"""Unit tests for the event-trace model and the four path properties."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from pathtrace import trace as tr
from pathtrace.protocols import RunConfig, build_run, finalize
from pathtrace.trace import (
    AttackLabel,
    Move,
    PathClaim,
    Trace,
    TraceParseError,
    ValidPath,
    backend,
    classify,
    collapse,
    dump_trace,
    parse_trace,
    physical_path,
    reader,
    tag,
    verdict_for,
)

T1 = tag("t1")
R = {name: reader(name) for name in ("r1", "r2", "r3", "r4", "rx")}
B1 = backend("b1")


def moves(tagid, *names):
    return [Move(tagid, R[n]) for n in names]


def path(*names):
    return tuple(R[n] for n in names)


class TestPhysicalPath:
    def test_consecutive_repeats_collapse(self):
        t = Trace(moves(T1, "r1", "r1", "r2", "r1"))
        assert physical_path(t, T1) == path("r1", "r2", "r1")

    def test_empty_without_moves(self):
        t = Trace([ValidPath(T1, path("r1"))])
        assert physical_path(t, T1) == ()

    def test_upto_restricts_window(self):
        t = Trace(moves(T1, "r1", "r2", "r3"))
        assert physical_path(t, T1, upto=2) == path("r1", "r2")
        assert physical_path(t, T1, upto=0) == ()
        assert physical_path(t, T1, upto=10) == path("r1", "r2", "r3")

    def test_negative_upto_raises(self):
        t = Trace(moves(T1, "r1", "r2", "r3"))
        with pytest.raises(ValueError, match="non-negative"):
            physical_path(t, T1, upto=-1)

    def test_non_event_refused_before_it_is_stored(self):
        t = Trace(moves(T1, "r1"))
        with pytest.raises(TypeError, match="not a trace event"):
            t.append(("MOVE", "t1", "r2"))
        assert len(t) == 1 and physical_path(t, T1) == path("r1")

    def test_plain_tuple_of_identifiers_refused(self):
        # equal to Move(T1, r2), but not one: append picks its branch by class
        t = Trace(moves(T1, "r1"))
        with pytest.raises(TypeError, match="not a trace event"):
            t.append((T1, R["r2"]))
        assert len(t) == 1 and physical_path(t, T1) == path("r1")
        assert list(t.claims()) == []

    def test_other_tags_ignored(self):
        t2 = tag("t2")
        t = Trace(moves(T1, "r1") + [Move(t2, R["r2"])] + moves(T1, "r3"))
        assert physical_path(t, T1) == path("r1", "r3")

    def test_collapse_only_adjacent(self):
        assert collapse(path("r1", "r1", "r1")) == path("r1")
        assert collapse(path("r1", "r2", "r2", "r1")) == path("r1", "r2", "r1")
        assert collapse(()) == ()


class TestChecks:
    def make(self, visited, claimed, valid=()):
        t = Trace()
        for vp in valid:
            t.append(ValidPath(T1, path(*vp)))
        for e in moves(T1, *visited):
            t.append(e)
        idx = t.append(PathClaim(T1, path(*claimed), B1))
        return t, idx

    def test_sound_subset(self):
        t, i = self.make(["r1", "r2", "r3"], ["r1", "r3"])
        assert tr.check_sound(t, i)

    def test_sound_rejects_unvisited(self):
        t, i = self.make(["r1", "r2"], ["r1", "rx"])
        res = tr.check_sound(t, i)
        assert not res
        assert "rx" in res.witness

    def test_sound_ignores_order(self):
        t, i = self.make(["r1", "r2"], ["r2", "r1"])
        assert tr.check_sound(t, i)

    def test_complete_set_equality(self):
        t, i = self.make(["r1", "r2", "r1"], ["r2", "r1"])
        assert tr.check_complete(t, i)

    def test_complete_rejects_missing(self):
        t, i = self.make(["r1", "r2", "r3"], ["r1", "r3"])
        res = tr.check_complete(t, i)
        assert not res
        assert "r2" in res.witness

    def test_sorted_subsequence(self):
        t, i = self.make(["r1", "r2", "r3"], ["r1", "r3"])
        assert tr.check_sorted(t, i)

    def test_sorted_rejects_swap(self):
        t, i = self.make(["r1", "r2", "r3"], ["r1", "r3", "r2"])
        assert not tr.check_sorted(t, i)

    def test_sorted_respects_revisits(self):
        t, i = self.make(["r1", "r2", "r1"], ["r2", "r1"])
        assert tr.check_sorted(t, i)

    def test_authorized_prefix(self):
        t, i = self.make(["r1", "r2"], ["r1", "r2"], valid=[("r1", "r2", "r3")])
        assert tr.check_authorized(t, i)

    def test_authorized_rejects_longer_claim(self):
        t, i = self.make(["r1", "r2"], ["r1", "r2", "r3", "r4"], valid=[("r1", "r2", "r3")])
        assert not tr.check_authorized(t, i)

    def test_authorized_rejects_non_prefix(self):
        t, i = self.make(["r2"], ["r2"], valid=[("r1", "r2", "r3")])
        assert not tr.check_authorized(t, i)

    def test_authorized_needs_earlier_validpath(self):
        t = Trace(moves(T1, "r1"))
        i = t.append(PathClaim(T1, path("r1"), B1))
        t.append(ValidPath(T1, path("r1", "r2")))
        assert not tr.check_authorized(t, i)

    def test_claims_judged_against_prefix(self):
        # moves after the claim do not count toward its physical path
        t = Trace(moves(T1, "r1"))
        i = t.append(PathClaim(T1, path("r1", "r2"), B1))
        t.append(Move(T1, R["r2"]))
        assert not tr.check_sound(t, i)

    def test_verdict_example(self):
        t, i = self.make(["r1", "r2", "r3"], ["r1", "r3"], valid=[("r1", "r3")])
        v = verdict_for(t, i)
        assert (v.sound, v.complete, v.sorted, v.authorized) == (True, False, True, True)
        assert v.witness.startswith("complete:")

    @pytest.mark.parametrize(
        "visited,valid,claimed,witnesses,verdict",
        [
            # a reader never visited also breaks completeness and order
            (
                ["r1", "r2"], [("r1", "rx")], ["r1", "rx"],
                ["claimed reader rx never visited", "claimed reader rx never visited",
                 "claimed step 1 (rx) out of physical order", None],
                "sound: claimed reader rx never visited",
            ),
            (
                ["r1", "r2", "r3"], [("r1", "r3")], ["r1", "r3"],
                [None, "visited reader r2 absent from claim", None, None],
                "complete: visited reader r2 absent from claim",
            ),
            (
                ["r1", "r2"], [("r2", "r1")], ["r2", "r1"],
                [None, None, "claimed step 1 (r1) out of physical order", None],
                "sorted: claimed step 1 (r1) out of physical order",
            ),
            (
                ["r1", "r2"], [("r1", "r3")], ["r1", "r2"],
                [None, None, None, "no earlier ValidPath has the claim as a prefix"],
                "authorized: no earlier ValidPath has the claim as a prefix",
            ),
            (
                ["r1", "r2", "r3"], [("r1", "r2", "r3")], ["r2", "rx", "r1"],
                ["claimed reader rx never visited", "claimed reader rx never visited",
                 "claimed step 1 (rx) out of physical order",
                 "no earlier ValidPath has the claim as a prefix"],
                "sound: claimed reader rx never visited",
            ),
            (
                [], [], ["r1"],
                ["claimed reader r1 never visited", "claimed reader r1 never visited",
                 "claimed step 0 (r1) out of physical order",
                 "no earlier ValidPath has the claim as a prefix"],
                "sound: claimed reader r1 never visited",
            ),
            (["r1", "r2", "r1"], [("r1", "r2", "r1")], ["r1", "r2", "r1"], [None] * 4, None),
        ],
        ids=["unsound", "incomplete", "unsorted", "unauthorized", "all-four", "never-moved",
             "honest"],
    )
    def test_every_check_witness(self, visited, valid, claimed, witnesses, verdict):
        t, i = self.make(visited, claimed, valid)
        checks = [tr.check_sound, tr.check_complete, tr.check_sorted, tr.check_authorized]
        assert [check(t, i) for check in checks] == [(w is None, w) for w in witnesses]
        assert verdict_for(t, i).witness == verdict

    @pytest.mark.parametrize("valid,claimed", [(list, tuple), (tuple, list)])
    def test_paths_given_as_lists_are_judged_as_tuples(self, valid, claimed):
        t = Trace([ValidPath(T1, valid(path("r1", "r2"))), *moves(T1, "r1", "r2")])
        i = t.append(PathClaim(T1, claimed(path("r1", "r2")), B1))
        assert verdict_for(t, i).witness is None
        assert tr.classify_claim(t, i) == frozenset()

    def test_verdict_on_non_claim_raises(self):
        t = Trace(moves(T1, "r1"))
        with pytest.raises(ValueError) as info:
            verdict_for(t, 0)
        assert str(info.value) == "event 0 is not a PathClaim: Move(tag='t1', reader='r1')"

    @pytest.mark.parametrize(
        "judge",
        [
            verdict_for,
            tr.classify_claim,
            tr.check_sound,
            tr.check_complete,
            tr.check_sorted,
            tr.check_authorized,
        ],
    )
    def test_negative_claim_index_raises(self, judge):
        # index -1 names the final event, a claim, yet is refused
        t, _ = self.make(["r1"], ["r1"], valid=[("r1",)])
        with pytest.raises(ValueError, match="non-negative"):
            judge(t, -1)


    @pytest.mark.parametrize(
        "judge",
        [
            verdict_for,
            tr.classify_claim,
            tr.check_sound,
            tr.check_complete,
            tr.check_sorted,
            tr.check_authorized,
        ],
    )
    @pytest.mark.parametrize("past", [0, 1, 7])
    def test_claim_index_past_the_end_raises(self, judge, past):
        t, _ = self.make(["r1"], ["r1"], valid=[("r1",)])
        with pytest.raises(ValueError) as info:
            judge(t, len(t) + past)
        assert str(info.value) == (
            f"claim index {len(t) + past} is past the end of a trace of {len(t)} events"
        )


def seeded_traces(seed: int, count: int):
    """Multi-tag traces with revisits and repeated Moves, claims that repeat
    readers, and a tag that is registered and claimed but never moves."""
    rng = random.Random(seed)
    tags = [tag(name) for name in ("t1", "t2", "t3", "still")]
    readers = [R[name] for name in ("r1", "r2", "r3", "r4")]
    for _ in range(count):
        t = Trace()
        for _ in range(rng.randrange(1, 40)):
            tagid = rng.choice(tags)
            kind = rng.randrange(5)
            if kind < 2 and tagid is not tags[-1]:
                t.append(Move(tagid, rng.choice(readers)))
            elif kind == 2:
                t.append(ValidPath(tagid, tuple(rng.choices(readers, k=rng.randrange(1, 5)))))
            else:
                t.append(PathClaim(tagid, tuple(rng.choices(readers, k=rng.randrange(1, 5))), B1))
        yield t


def moved_before(t: Trace, tagid, upto: int):
    return [e.reader for e in t.events[:upto] if isinstance(e, Move) and e.tag == tagid]


def valid_before(t: Trace, tagid, upto: int):
    return [e.path for e in t.events[:upto] if isinstance(e, ValidPath) and e.tag == tagid]


class TestTagIndex:
    """The per-tag index kept on append answers as a rescan of the trace would."""

    def test_physical_path_is_the_collapsed_prefix(self):
        for t in seeded_traces(21, 150):
            for tagid in [*t.tags(), tag("never")]:
                assert physical_path(t, tagid) == collapse(moved_before(t, tagid, len(t)))
                for upto in range(len(t) + 3):
                    assert physical_path(t, tagid, upto) == collapse(moved_before(t, tagid, upto))

    def test_verdict_reports_the_first_failing_check(self):
        checks = [
            ("sound", tr.check_sound),
            ("complete", tr.check_complete),
            ("sorted", tr.check_sorted),
            ("authorized", tr.check_authorized),
        ]
        for t in seeded_traces(22, 300):
            for idx, _claim in t.claims():
                v = verdict_for(t, idx)
                results = [(name, check(t, idx)) for name, check in checks]
                assert v.claim_index == idx
                assert v.properties() == {name: res.ok for name, res in results}
                failed = [f"{name}: {res.witness}" for name, res in results if not res.ok]
                assert v.witness == (failed[0] if failed else None)
                assert all(res.witness is None for _, res in results if res.ok)

    def test_classify_claim_is_classify_of_the_collapsed_path(self):
        for t in seeded_traces(23, 300):
            for idx, claim in t.claims():
                want = classify(
                    collapse(moved_before(t, claim.tag, idx)),
                    claim.path,
                    valid_before(t, claim.tag, idx),
                )
                assert tr.classify_claim(t, idx) == want


class TestEvaluateSystem:
    def test_counterexample_located(self):
        good = Trace(moves(T1, "r1") + [ValidPath(T1, path("r1"))])
        # claim precedes the ValidPath registration in trace 1
        bad = Trace(moves(T1, "r1"))
        bad.append(PathClaim(T1, path("r1"), B1))
        good.append(PathClaim(T1, path("r1"), B1))
        sv = tr.evaluate_system([good, bad])
        assert sv.holds["sound"] and sv.holds["sorted"] and sv.holds["complete"]
        assert not sv.holds["authorized"]
        assert sv.counterexamples["authorized"] == (1, 1)


class TestClassify:
    def test_out_of_order(self):
        labels = classify(path("r1", "r2", "r3"), path("r1", "r3", "r2"), [path("r1", "r3", "r2")])
        assert labels == {AttackLabel.OUT_OF_ORDER}

    def test_skip_step(self):
        labels = classify(
            path("r1", "r2", "r3"),
            path("r1", "r3"),
            [path("r1", "r2", "r3"), path("r1", "r3")],
        )
        assert labels == {AttackLabel.SKIP_STEP}

    def test_reroute(self):
        labels = classify(path("r1", "r2", "rx", "r3"), path("r1", "r2", "r3"), [path("r1", "r2", "r3")])
        assert labels == {AttackLabel.REROUTE}

    def test_ghost_step(self):
        labels = classify(path("r1", "r2", "r3"), path("r1", "r2", "rx", "r3"), [path("r1", "r2", "rx", "r3")])
        assert labels == {AttackLabel.GHOST_STEP}

    def test_unauthorized_path(self):
        labels = classify(path("r1", "r4"), path("r1", "r4"), [path("r1", "r2", "r3")])
        assert labels == {AttackLabel.UNAUTHORIZED_PATH}

    def test_honest_claim_unlabelled(self):
        labels = classify(path("r1", "r2", "r3"), path("r1", "r2", "r3"), [path("r1", "r2", "r3")])
        assert labels == frozenset()

    def test_physical_input_collapses(self):
        labels = classify(
            path("r1", "r1", "r2", "r2", "r3"), path("r1", "r2", "r3"), [path("r1", "r2", "r3")]
        )
        assert labels == frozenset()


class TestSerialization:
    def test_format_event_refuses_a_non_event(self):
        with pytest.raises(TypeError, match="^not a trace event: \\('MOVE', 't1', 'r1'\\)$"):
            tr.format_event(("MOVE", "t1", "r1"))

    def test_round_trip(self):
        t = Trace()
        t.append(ValidPath(T1, path("r1", "r2")))
        t.append(Move(T1, R["r1"]))
        t.append(Move(T1, R["r2"]))
        t.append(PathClaim(T1, path("r1", "r2"), B1))
        text = dump_trace(t)
        assert text.splitlines() == [
            "VALIDPATH t1 r1 r2",
            "MOVE t1 r1",
            "MOVE t1 r2",
            "CLAIM t1 b1 r1 r2",
        ]
        back = parse_trace(text)
        assert back.events == t.events

    def test_claimant_token_read_as_written(self):
        t = parse_trace("MOVE t1 r1\nCLAIM t1 r1 r1\nCLAIM t1 verifier r1\n")
        assert [c.claimant for _, c in t.claims()] == ["r1", "verifier"]

    def test_claimant_named_as_reader_only_later(self):
        t = parse_trace("MOVE t1 r1\nCLAIM t1 r2 r1\nMOVE t1 r2\n")
        (_, claim), = t.claims()
        assert claim.claimant == reader("r2")
        # as a reader of a later VALIDPATH or CLAIM too; the appends each
        # claim was parsed between still index it
        t = parse_trace(
            "MOVE t1 r1\nCLAIM t1 r2 r1\nCLAIM t1 r3 r1\nVALIDPATH t1 r1 r2\nCLAIM t1 b1 r3\n"
        )
        assert [(i, c.claimant) for i, c in t.claims()] == [(1, R["r2"]), (2, R["r3"]), (4, B1)]
        assert t.events[1] == PathClaim(T1, path("r1"), R["r2"])
        assert physical_path(t, T1, 2) == path("r1")
        assert verdict_for(t, 1) == tr.Verdict(
            1, True, True, True, False, "authorized: no earlier ValidPath has the claim as a prefix"
        )

    def test_comments_and_blank_lines_skipped(self):
        t = parse_trace("# header\n\nMOVE t1 r1\n   \n  # indented\nCLAIM t1 b1 r1\n")
        assert t.events == (Move(T1, R["r1"]), PathClaim(T1, path("r1"), B1))

    def test_commented_out_events_skipped(self):
        t = parse_trace("#MOVE t1 r9\nMOVE t1 r1\n#claim t1 b1 r9\n\t#VALIDPATH t1 r9\nCLAIM t1 b1 r1\n")
        assert t.events == (Move(T1, R["r1"]), PathClaim(T1, path("r1"), B1))
        assert [i for i, _ in t.claims()] == [1]

    def test_parsed_events_are_plain_records(self):
        # built as bare tuples, they are the named tuples append indexes
        t = parse_trace("VALIDPATH t1 r1 r2\nMOVE t1 r1\nCLAIM t1 b1 r1\nMOVE t1 r2\n")
        assert [type(e) for e in t] == [ValidPath, Move, PathClaim, Move]
        assert t[2].claimant == B1 and t[2].path == path("r1") and t[1].reader == R["r1"]
        assert t[0] == ValidPath(T1, path("r1", "r2"))
        assert physical_path(t, T1) == path("r1", "r2")
        assert [i for i, _ in t.claims()] == [2]
        assert verdict_for(t, 2) == tr.Verdict(2, True, True, True, True)

    def test_lower_case_keywords(self):
        t = parse_trace("validpath t1 r1 r2\nmove t1 r1\nMove t1 r2\nclaim t1 b1 r1 r2\n")
        assert dump_trace(t) == "VALIDPATH t1 r1 r2\nMOVE t1 r1\nMOVE t1 r2\nCLAIM t1 b1 r1 r2\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("MOVE t1\n", "line 1: MOVE wants <tag> <reader>"),
            ("# c\n\nMOVE t1 r1\nCLAIM t1 b1 r1\nvalidpath t1\n",
             "line 5: VALIDPATH wants <tag> <r1> ..."),
            ("MOVE t1 r1\n\nCLAIM t1\nTELEPORT t1 r1\n",
             "line 3: CLAIM wants <tag> <claimant> <r1> ..."),
            ("MOVE t1 r1\n\nCLAIM t1 b1\nTELEPORT t1 r1\n", "line 4: unknown event TELEPORT"),
            ("MOVE t1 r1\n  teleport t1 r1\nMOVE t1\n", "line 2: unknown event TELEPORT"),
            ("# a\n#MOVE t1 r1\n\n  # b\nMOVE t1 r1\nTeleport t1 r1\n",
             "line 6: unknown event TELEPORT"),
            ("#\nMOVE# t1 r1\n", "line 2: unknown event MOVE#"),
        ],
    )
    def test_parse_error_names_first_bad_line(self, text, message):
        with pytest.raises(TraceParseError) as info:
            parse_trace(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "line",
        ["MOVE t1", "VALIDPATH t1", "CLAIM t1", "TELEPORT t1 r1"],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(TraceParseError):
            parse_trace(line)

    def test_claim_naming_no_reader_parses(self):
        t = parse_trace("MOVE t1 r1\nCLAIM t1 b1\nclaim t1 b1 r1\n")
        assert t.events[1] == PathClaim(T1, (), B1)
        assert [i for i, _ in t.claims()] == [1, 2]
        assert verdict_for(t, 1) == tr.Verdict(
            1, True, False, True, False, "complete: visited reader r1 absent from claim"
        )

    def test_a_run_claiming_before_any_visit_round_trips(self):
        model, world = build_run(RunConfig.along("rfchain", {"t1": ("r1", "r2")}))
        model.claim("t1")
        result = finalize(model, world)
        text = dump_trace(result.trace)
        assert text == "CLAIM t1 bc\n"
        back = parse_trace(text)
        assert back.events == result.trace.events == (PathClaim(T1, (), "bc"),)
        assert [verdict_for(back, i) for i, _ in back.claims()] == result.verdicts
        assert tr.classify_claim(back, 0) == tr.classify_claim(result.trace, 0)

    def test_random_round_trips(self):
        rng = random.Random(7)
        names = ["r1", "r2", "r3", "r4"]
        for _ in range(200):
            t = Trace()
            for _ in range(rng.randrange(1, 8)):
                kind = rng.randrange(3)
                if kind == 0:
                    t.append(Move(T1, R[rng.choice(names)]))
                elif kind == 1:
                    t.append(ValidPath(T1, tuple(R[n] for n in rng.sample(names, 2))))
                else:
                    t.append(PathClaim(T1, tuple(R[n] for n in rng.sample(names, 2)), B1))
            assert parse_trace(dump_trace(t)).events == t.events

    def test_seeded_multi_tag_dumps_round_trip(self):
        rng = random.Random(17)
        tags = ["t1", "t2", "t3"]
        readers = ["r1", "r2", "r3", "r4", "r5"]
        for _ in range(100):
            lines = []
            for _ in range(rng.randrange(1, 30)):
                t = rng.choice(tags)
                kind = rng.randrange(3)
                if kind == 0:
                    lines.append(f"MOVE {t} {rng.choice(readers)}")
                elif kind == 1:
                    lines.append(" ".join(["VALIDPATH", t, *rng.sample(readers, 3)]))
                else:
                    claimant = rng.choice(["v", "b1", *readers])
                    lines.append(" ".join(["CLAIM", t, claimant, *rng.sample(readers, 2)]))
            text = "".join(line + "\n" for line in lines)
            assert dump_trace(parse_trace(text)) == text


class TestInvariants:
    def test_physical_path_never_adjacent_equal(self):
        rng = random.Random(11)
        names = list(R.values())
        for _ in range(500):
            visits = [rng.choice(names) for _ in range(rng.randrange(9))]
            p = collapse(visits)
            assert all(a != b for a, b in zip(p, p[1:]))
            assert collapse(p) == p  # idempotent

    def test_sorted_implies_sound(self):
        rng = random.Random(13)
        names = ["r1", "r2", "r3"]
        for _ in range(500):
            visited = [rng.choice(names) for _ in range(rng.randrange(5))]
            claimed = [rng.choice(names) for _ in range(rng.randrange(4))]
            t = Trace([Move(T1, R[n]) for n in visited])
            i = t.append(PathClaim(T1, tuple(R[n] for n in claimed), B1))
            v = verdict_for(t, i)
            if v.sorted:
                assert v.sound

    def test_identifier_rejects_whitespace(self):
        with pytest.raises(ValueError):
            tag("bad token")
        with pytest.raises(ValueError):
            reader("")


class TestRecords:
    """Events, check results and verdicts are named tuples with the fields,
    defaults and reprs they had as frozen dataclasses."""

    RECORDS = [
        (Move(T1, R["r1"]), "reader"),
        (ValidPath(T1, path("r1")), "path"),
        (PathClaim(T1, path("r1"), B1), "claimant"),
        (tr.CheckResult(True), "witness"),
        (tr.Verdict(0, True, True, True, True), "sorted"),
    ]

    @pytest.mark.parametrize("record,name", RECORDS, ids=lambda x: type(x).__name__)
    def test_fields_cannot_be_assigned(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy] + [
            lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copies_keep_every_field(self, clone):
        for event in (Move(T1, R["r1"]), ValidPath(T1, path("r1", "r2")), PathClaim(T1, path("r1"), B1)):
            back = clone(event)
            assert type(back) is type(event)
            assert back == event and hash(back) == hash(event) and repr(back) == repr(event)
            with pytest.raises(AttributeError):
                back.tag = "t2"

    def test_move_repr(self):
        assert repr(Move(T1, R["r1"])) == "Move(tag='t1', reader='r1')"

    def test_verdict_repr(self):
        t = Trace(moves(T1, "r1", "r2") + [PathClaim(T1, path("r1"), B1)])
        assert repr(verdict_for(t, 2)) == (
            "Verdict(claim_index=2, sound=True, complete=False, sorted=True, authorized=False, "
            "witness='complete: visited reader r2 absent from claim')"
        )
        assert repr(tr.Verdict(0, True, True, True, True)) == (
            "Verdict(claim_index=0, sound=True, complete=True, sorted=True, authorized=True, "
            "witness=None)"
        )

    def test_check_result_truth_is_ok(self):
        assert bool(tr.CheckResult(False, "w")) is False
        assert bool(tr.CheckResult(True)) is True
        assert tr.CheckResult(True).witness is None


class TestJudgedOnAppend:
    """A claim is judged once, when it is appended: every verdict, check
    and label of it asked later reads that judgement, and later Moves and
    ValidPaths do not change it."""

    JUDGES = [
        verdict_for, tr.classify_claim,
        tr.check_sound, tr.check_complete, tr.check_sorted, tr.check_authorized,
    ]

    def test_judge_runs_once_per_claim_at_append(self, monkeypatch):
        calls = []
        original = tr._judge

        def counted(*args):
            calls.append(args[:3])
            return original(*args)

        monkeypatch.setattr(tr, "_judge", counted)
        t = Trace([ValidPath(T1, path("r1", "r2")), *moves(T1, "r1", "r3")])
        assert calls == []
        t.append(PathClaim(T1, path("r2", "r1"), B1))
        assert calls == [(path("r1", "r3"), {"r1", "r3"}, path("r2", "r1"))]
        t.append(PathClaim(T1, path("r1"), B1))
        assert len(calls) == 2
        for judge in self.JUDGES * 2:
            judge(t, 3)
            judge(t, 4)
        assert len(calls) == 2

    def test_later_events_leave_the_judgement_unchanged(self):
        t = Trace([ValidPath(T1, path("r1", "r2")), *moves(T1, "r1", "r3")])
        t.append(PathClaim(T1, path("r2", "r1"), B1))
        before = [judge(t, 3) for judge in self.JUDGES]
        for event in [*moves(T1, "r2", "r1", "r4"), ValidPath(T1, path("r2", "r1")),
                      ValidPath(T1, path("r4"))]:
            t.append(event)
            assert [judge(t, 3) for judge in self.JUDGES] == before
        assert before[0] == tr.Verdict(
            3, False, False, False, False, "sound: claimed reader r2 never visited"
        )

    def test_labels_are_shared_sets(self):
        t = Trace([ValidPath(T1, path("r1", "r2")), *moves(T1, "r1", "r3")])
        t.append(PathClaim(T1, path("r2", "r1"), B1))
        t.append(PathClaim(T1, path("r2", "r1"), B1))
        assert tr.classify_claim(t, 3) is tr.classify_claim(t, 4)
        assert any(tr.classify_claim(t, 3) is labels for labels in tr._LABEL_SETS)


class TestIdentifier:
    @pytest.mark.parametrize("make", [reader, tag, backend])
    def test_constructors_return_the_token(self, make):
        ident = make("a")
        assert type(ident) is str
        assert ident == "a" and hash(ident) == hash("a")

    @pytest.mark.parametrize("make", [reader, tag, backend])
    def test_bad_token_raises_on_every_call(self, make):
        for _ in range(2):
            with pytest.raises(ValueError, match="non-empty token"):
                make("bad token")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_parsed_trace_copies_judge_the_same(self, clone):
        text = "VALIDPATH t1 r1 r2\nMOVE t1 r1\nMOVE t1 r3\nCLAIM t1 r3 r3 r1\nCLAIM t1 v r1\n"
        t = parse_trace(text)
        verdicts = [verdict_for(t, i) for i, _ in t.claims()]  # resolved before the copy
        back = clone(t)
        assert back.events == t.events and dump_trace(back) == text
        assert [verdict_for(back, i) for i, _ in back.claims()] == verdicts
        assert [tr.classify_claim(back, i) for i, _ in back.claims()] == [
            tr.classify_claim(t, i) for i, _ in t.claims()
        ]
        assert [c.claimant for _, c in back.claims()] == ["r3", "v"]
        back.append(Move(T1, R["r2"]))
        assert physical_path(back, T1) == path("r1", "r3", "r2")

    def test_scenario_facts_print_an_identifier_as_its_token(self):
        from pathtrace.scenario import _stringify

        assert _stringify(reader("a")) == "a"
        assert _stringify([reader("a"), tag("t1")]) == "a,t1"
