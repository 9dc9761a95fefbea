"""End-to-end acceptance gate.

Eight numbered criteria cover the whole library: checker/oracle
equivalence, the attack-pattern table, the solution matrix, the five
attack reproductions, storage formulas, the collision-rate bound, the
privacy-game margins, and corpus determinism.  Each test prints one

    [acceptance] criterion N: PASS/FAIL

line directly to the terminal (bypassing capture) before asserting, so
a plain pytest run always shows the tally.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import permutations
from time import monotonic

from oracles import (
    enumerate_sequences,
    oracle_authorized,
    oracle_classify,
    oracle_complete,
    oracle_physical,
    oracle_sorted,
    oracle_sound,
)

from pathtrace import stats
from pathtrace.attacks import (
    attack_burbridge_bypass,
    attack_ray_impersonation,
    attack_ray_out_of_order,
    attack_resc_key_disclosure,
    attack_rfchain_linking,
    tracker_collision_rate,
)
from pathtrace.matrix import MatrixRow, build_matrix, emit_matrix
from pathtrace.network import AdvModel
from pathtrace.privacy import GameKind, PrivacyGame, run_game
from pathtrace.protocols import PROTOCOLS, resc, stepauth
from pathtrace.scenario import corpus_dir, run_corpus
from pathtrace.trace import (
    AttackLabel,
    Move,
    PathClaim,
    Trace,
    ValidPath,
    backend,
    check_authorized,
    check_complete,
    check_sorted,
    check_sound,
    classify,
    classify_claim,
    reader,
    tag,
)


@contextmanager
def criterion(capsys, number):
    """Collect problems; print the verdict line even when code raises."""
    problems: list[str] = []
    try:
        yield problems
    except BaseException:
        _verdict(capsys, number, False)
        raise
    _verdict(capsys, number, not problems)
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _verdict(capsys, number, passed):
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'}")


def path(*names):
    return tuple(reader(n) for n in names)


# --- 1: checkers and classifier vs. brute-force oracles --------------------

SWEEP_ALPHABET = "abcd"
SWEEP_MAX_LEN = 4
SWEEP_VALID = [("a", "b", "c"), ("b", "a")]


def test_criterion_1_checker_oracle_equivalence(capsys):
    t1, b1 = tag("t"), backend("v")
    start = monotonic()
    cases = 0
    with criterion(capsys, 1) as problems:
        for visits in enumerate_sequences(SWEEP_ALPHABET, SWEEP_MAX_LEN):
            phys = oracle_physical(visits)
            for claimed in enumerate_sequences(SWEEP_ALPHABET, SWEEP_MAX_LEN):
                trace = Trace()
                for vp in SWEEP_VALID:
                    trace.append(ValidPath(t1, path(*vp)))
                for r in visits:
                    trace.append(Move(t1, reader(r)))
                idx = trace.append(PathClaim(t1, path(*claimed), b1))
                agree = (
                    bool(check_sound(trace, idx)) == oracle_sound(phys, claimed)
                    and bool(check_complete(trace, idx)) == oracle_complete(phys, claimed)
                    and bool(check_sorted(trace, idx)) == oracle_sorted(phys, claimed)
                    and bool(check_authorized(trace, idx))
                    == oracle_authorized(SWEEP_VALID, claimed)
                    and frozenset(l.value for l in classify_claim(trace, idx))
                    == oracle_classify(visits, claimed, SWEEP_VALID)
                )
                cases += 1
                if not agree:
                    problems.append(f"disagreement at {visits!r}/{claimed!r}")
                    if len(problems) > 5:
                        return
        elapsed = monotonic() - start
        if cases != 341 * 341:
            problems.append(f"swept {cases} cases, wanted {341 * 341}")
        if elapsed >= 60:
            problems.append(f"sweep took {elapsed:.1f}s, budget 60s")


# --- 2: the four attack-pattern rows plus the unauthorized case ------------

def test_criterion_2_attack_pattern_table(capsys):
    rows = [
        ("r1 r2 r3", "r1 r3 r2", ["r1 r3 r2"], AttackLabel.OUT_OF_ORDER),
        ("r1 r2 r3", "r1 r3", ["r1 r2 r3", "r1 r3"], AttackLabel.SKIP_STEP),
        ("r1 r2 rx r3", "r1 r2 r3", ["r1 r2 r3"], AttackLabel.REROUTE),
        ("r1 r2 r3", "r1 r2 rx r3", ["r1 r2 rx r3"], AttackLabel.GHOST_STEP),
        ("r1 r4", "r1 r4", ["r1 r2 r3"], AttackLabel.UNAUTHORIZED_PATH),
    ]
    with criterion(capsys, 2) as problems:
        for physical, claimed, valid, label in rows:
            got = classify(
                path(*physical.split()),
                path(*claimed.split()),
                [path(*vp.split()) for vp in valid],
            )
            if got != {label}:
                problems.append(f"{claimed!r}: got {sorted(l.value for l in got)}")


# --- 3: the solution matrix from the bundled corpus ------------------------

EXPECTED_MATRIX = [
    MatrixRow("burbridge", "Offline", "AdvT[4]", "X", "AdvT[1]", "X", (1, 4)),
    MatrixRow("rfchain", "Online", "AdvT[2]", "X", "X", "AdvT[1]", (1, 2)),
    MatrixRow("resc", "Online", "AdvT[1]", "X", "AdvR", "X", (1,)),
    MatrixRow("stepauth", "Offline", "AdvR", "X", "AdvR", "AdvR", ()),
    MatrixRow("ray", "Offline", "AdvT[1]", "X", "AdvT[1]", "X", (1,)),
    MatrixRow("tracker", "Offline", "AdvT[1]", "X", "AdvT", "AdvT", (1,)),
    MatrixRow("checker", "Offline", "AdvT", "X", "AdvR", "AdvR", ()),
]


def test_criterion_3_solution_matrix(capsys):
    with criterion(capsys, 3) as problems:
        rows, warnings = build_matrix(run_corpus(corpus_dir()))
        problems.extend(warnings)
        got = {row.protocol: row for row in rows}
        for expected in EXPECTED_MATRIX:
            row = got.get(expected.protocol)
            if row != expected:
                problems.append(f"{expected.protocol}: {row!r} != {expected!r}")
        if len(rows) != len(EXPECTED_MATRIX):
            problems.append(f"{len(rows)} rows, wanted {len(EXPECTED_MATRIX)}")


# --- 4: the five attack reproductions --------------------------------------

def test_criterion_4_attack_reproductions(capsys):
    start = monotonic()
    with criterion(capsys, 4) as problems:
        # every ledger record of the target linked, none of the decoys
        out = attack_rfchain_linking(seed=0, decoys=10)
        targets = set(out.evidence["target_records"])
        if not (out.succeeded and targets and set(out.evidence["linked"]) == targets):
            problems.append("record linking missed target records")
        if out.evidence["false_positives"]:
            problems.append(f"linking false positives: {out.evidence['false_positives']}")
        again = attack_rfchain_linking(seed=0, decoys=10)

        def strip(o):
            return {k: v for k, v in o.evidence.items() if k != "run"}

        if strip(out) != strip(again):
            problems.append("linking not deterministic under fixed seed")

        # every permutation of a length-3 journey accepted step by step
        for order in permutations(range(3)):
            out = attack_ray_out_of_order(seed=0, order=order)
            if not all(out.evidence["accepted"]):
                problems.append(f"permutation {order} rejected")
            if order != (0, 1, 2):
                if not (out.succeeded and out.violated_property == "sorted"):
                    problems.append(f"permutation {order} did not violate ordering")
                if "OutOfOrder" not in out.evidence["labels"]:
                    problems.append(f"permutation {order} missing OutOfOrder label")

        # one observed challenge lets every remaining reader be impersonated
        out = attack_ray_impersonation(seed=0)
        if not (out.succeeded and all(out.evidence["accepted"])):
            problems.append("impersonation deposits rejected")
        if len(out.evidence["impersonated"]) != 3 or not out.evidence["claim_unsound"]:
            problems.append("impersonation did not cover the remaining readers")
        if "GhostStep" not in out.evidence["labels"]:
            problems.append("impersonation missing GhostStep label")

        # authorized-yet-unsound bypass, stopped by per-tag keys
        out = attack_burbridge_bypass(seed=3)
        if not (out.succeeded and out.evidence["claim_authorized"]):
            problems.append("bypass claim not accepted as authorized")
        if out.violated_property != "sound" or "GhostStep" not in out.evidence["labels"]:
            problems.append("bypass claim not flagged unsound")
        if attack_burbridge_bypass(seed=3, mode="per_tag").succeeded:
            problems.append("bypass still succeeds with per-tag keys")

        # disclosed session keys let ghost deposits through under AdvR
        out = attack_resc_key_disclosure(seed=0)
        if not out.succeeded or "GhostStep" not in out.evidence["labels"]:
            problems.append("key disclosure produced no ghost step")
        if out.run.config.adversary is not AdvModel.ADV_R:
            problems.append("key disclosure did not run under AdvR")

        elapsed = monotonic() - start
        if elapsed >= 120:
            problems.append(f"attack suite took {elapsed:.1f}s, budget 120s")


# --- 5: storage formulas ---------------------------------------------------

def test_criterion_5_storage_formulas(capsys):
    with criterion(capsys, 5) as problems:
        for length in range(1, 11):
            got = stepauth.secret_size_bits(length)
            want = 1024 + 896 * (length - 1)
            if got != want:
                problems.append(f"stepauth l={length}: {got} != {want}")
        for length in range(1, 9):
            got = resc.storage_bits(length)
            want = length * (128 + 20 + 23 + 512)
            if got != want:
                problems.append(f"resc n={length}: {got} != {want}")


# --- 6: evaluation-collision rate ------------------------------------------

def test_criterion_6_collision_rate(capsys):
    start = monotonic()
    with criterion(capsys, 6) as problems:
        for q in (251, 1009):
            collisions, pairs = tracker_collision_rate(q, 100_000, seed=0)
            lo, hi = stats.binomial_acceptance(pairs, 1 / q)
            if not lo <= collisions <= hi:
                problems.append(f"q={q}: {collisions} outside [{lo}, {hi}]")
        elapsed = monotonic() - start
        if elapsed >= 60:
            problems.append(f"collision sweep took {elapsed:.1f}s, budget 60s")


# --- 7: privacy-game margins -----------------------------------------------

def test_criterion_7_privacy_margins(capsys):
    with criterion(capsys, 7) as problems:
        for protocol in sorted(PROTOCOLS):
            result = run_game(
                PrivacyGame(
                    kind=GameKind.TAG,
                    protocol=protocol,
                    distinguisher="random",
                    trials=10_000,
                    seed=5,
                )
            )
            if result.advantage >= 0.05:
                problems.append(f"{protocol} baseline {result.advantage:.4f} >= 0.05")

        linking = run_game(
            PrivacyGame(
                kind=GameKind.TAG,
                protocol="rfchain",
                distinguisher="record-linking",
                trials=200,
                seed=7,
            )
        )
        if linking.advantage < 0.99:
            problems.append(f"record linking {linking.advantage:.4f} < 0.99")

        transcripts = [
            PrivacyGame(
                kind=GameKind.TAG,
                protocol="stepauth",
                distinguisher="full-transcript",
                trials=500,
                seed=7,
                adversary=AdvModel.ADV_R,
            ),
            PrivacyGame(
                kind=GameKind.STEP,
                protocol="tracker",
                distinguisher="shared-atom",
                trials=500,
                seed=7,
            ),
        ]
        for game in transcripts:
            result = run_game(game)
            if result.advantage > 0.1:
                problems.append(
                    f"{game.protocol} transcript {result.advantage:.4f} > 0.1"
                )


# --- 8: corpus determinism -------------------------------------------------

def test_criterion_8_corpus_determinism(capsys, tmp_path):
    with criterion(capsys, 8) as problems:
        first = emit_matrix(corpus_dir())
        second = emit_matrix(corpus_dir())
        if first != second:
            problems.append("matrix reports differ between runs")
        if first[0] != 0:
            problems.append(f"corpus run exited {first[0]}")
        for name, (_, lines) in (("one.txt", first), ("two.txt", second)):
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        if (tmp_path / "one.txt").read_bytes() != (tmp_path / "two.txt").read_bytes():
            problems.append("report files not byte-identical")
