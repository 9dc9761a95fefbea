"""Attack reproductions: each documented weakness fires deterministically,
each hardened configuration shuts it down across many seeds, and every
successful outcome re-verifies from its own evidence."""

from __future__ import annotations

from itertools import permutations
from random import Random

import pytest

from pathtrace import crypto
from pathtrace import trace as tr
from pathtrace.attacks import (
    ATTACKS,
    BoundedSearchError,
    _insider_link,
    attack,
    attack_burbridge_bypass,
    attack_ray_impersonation,
    attack_ray_out_of_order,
    attack_resc_key_disclosure,
    attack_rfchain_linking,
    attack_tracker_order_search,
    link_record,
    probe_rfchain_length_extension,
    randbelow,
    tracker_collision_rate,
)
from pathtrace.network import STRATEGIES, AdvModel, CapabilityError
from pathtrace.protocols.base import build_run
from pathtrace.protocols.rfchain import step_input
from pathtrace.stats import binomial_acceptance
from pathtrace.trace import AttackLabel, classify_claim


def ledger_truth(outcome):
    """(tag, step) of each ledger record, from a replay of the outcome's
    run; runs are deterministic, so the replay adds the same records."""
    cfg = outcome.run.config
    protocol, _ = build_run(cfg)
    for step in cfg.script:
        if step[0] == "move":
            protocol.visit(step[1], step[2])
    return protocol.ledger_truth


def test_drop_to_tags_strategy_registered():
    assert "drop_to_tags" in STRATEGIES


class TestRfChainLinking:
    def test_links_every_target_record_without_false_positives(self):
        for seed in (0, 1, 2):
            o = attack_rfchain_linking(seed=seed, decoys=10)
            assert o.succeeded and o.violated_property == "privacy"
            assert o.evidence["records"] == 33  # 3 hops x (target + 10 decoys)
            assert len(o.evidence["target_records"]) == 3
            assert sorted(o.evidence["linked"]) == o.evidence["target_records"]
            assert o.evidence["false_positives"] == []

    def test_linked_steps_match_ledger_ground_truth(self):
        o = attack_rfchain_linking(seed=5)
        truth = ledger_truth(o)
        assert o.evidence["linked"]
        for position, step in o.evidence["linked"].items():
            assert truth[position] == ("t0", step)

    def test_patched_mode_defeats_linking_across_seeds(self):
        for seed in range(100):
            o = attack_rfchain_linking(seed=seed, mode="patched", decoys=3)
            assert not o.succeeded and o.violated_property is None
            assert o.evidence["linked"] == {}

    def test_insider_relinks_patched_records(self):
        # compromised system secrets recompute the per-step keys directly
        o = attack_rfchain_linking(seed=4, mode="patched", insider=True)
        assert o.succeeded
        assert sorted(o.evidence["linked"]) == o.evidence["target_records"]
        assert o.evidence["false_positives"] == []
        assert "r1" in o.run.compromised

    def test_same_seed_reproduces_bit_identical_outcome(self):
        a = attack_rfchain_linking(seed=9)
        b = attack_rfchain_linking(seed=9)
        assert a.evidence["linked"] == b.evidence["linked"]
        assert a.summary_lines() == b.summary_lines()
        assert a.run.report_lines() == b.run.report_lines()


class TestRfChainLinkingAlgebra:
    """The linking steps on hand-built records: a step key k makes the
    payload ``xor_stream(level, k)`` and the pseudo-identity
    ``sym_enc(k, identity)``."""

    IDENTITY = b"epc-t1"
    KEY = crypto.hash_bytes(b"step key")
    LEVEL = crypto.hash_bytes(b"level") * 2

    def record(self):
        payload = crypto.xor_stream(self.LEVEL, self.KEY)
        return crypto.sym_enc(self.KEY, self.IDENTITY), payload

    def test_levels_and_payloads_under_32_bytes_are_skipped(self):
        pseudo, payload = self.record()
        assert link_record(pseudo, payload, self.IDENTITY, [self.LEVEL]) == 1
        assert link_record(pseudo, payload, self.IDENTITY, [self.LEVEL[:16], self.LEVEL]) == 2
        assert link_record(pseudo, payload[:16], self.IDENTITY, [self.LEVEL]) is None

    def test_insider_refuses_a_patched_payload_that_does_not_split(self):
        secrets = {"f": b"f", "pwd": b"pwd", "r": b"r"}
        key = crypto.hash_bytes(step_input(self.IDENTITY, b"f", b"pwd", b"r", 2))
        pseudo, payload = crypto.sym_enc(key, self.IDENTITY), b"\x00"
        assert crypto.split_fields(payload, 2) is None
        assert _insider_link(pseudo, payload, self.IDENTITY, secrets, "default", 3) == 2
        assert _insider_link(pseudo, payload, self.IDENTITY, secrets, "patched", 3) is None


class TestRfChainLengthExtension:
    def test_extension_computes_but_no_record_is_forged(self):
        o = probe_rfchain_length_extension(seed=2)
        assert not o.succeeded and o.violated_property is None
        assert o.evidence["extension_matches"]
        assert o.evidence["forged_key_differs"]
        assert not o.evidence["forged_record_accepted"]


class TestRayOutOfOrder:
    def test_all_six_permutations_accepted_by_the_protocol(self):
        for perm in permutations(range(3)):
            o = attack_ray_out_of_order(seed=3, order=perm)
            run = o.run
            assert all(o.evidence["accepted"]), perm
            assert len(run.verdicts) == 1, perm  # owner announced the claim
            v = run.verdicts[0]
            if perm == (0, 1, 2):
                assert not o.succeeded and v.sorted
            else:
                assert o.succeeded and o.violated_property == "sorted"
                assert not v.sorted and v.sound
                assert AttackLabel.OUT_OF_ORDER in set(
                    label
                    for idx, _ in run.trace.claims()
                    for label in classify_claim(run.trace, idx)
                )

    def test_moves_record_the_true_journey(self):
        o = attack_ray_out_of_order(seed=1, order=(2, 0, 1))
        run = o.run
        tag_id = run.trace.tags()[0]
        physical = tr.physical_path(run.trace, tag_id)
        assert physical == ("r1", "r2", "r3")
        assert [r for r in o.evidence["claimed"]] == ["r3", "r1", "r2"]

    def test_single_step_path_has_no_surface(self):
        o = attack_ray_out_of_order(seed=0, path_len=1)
        assert not o.succeeded
        assert "no permutation" in o.evidence["reason"]

    def test_swap_succeeds_across_seeds(self):
        for seed in range(5):
            assert attack_ray_out_of_order(seed=seed).succeeded


class TestRayImpersonation:
    def test_one_observation_yields_every_other_reader(self):
        for seed in (0, 1, 2):
            o = attack_ray_impersonation(seed=seed)
            assert o.succeeded and o.violated_property == "sound"
            assert o.evidence["observed_reader"] == "r2"
            assert o.evidence["impersonated"] == ["r1", "r3", "r4"]
            assert all(o.evidence["accepted"])
            assert o.evidence["claim_unsound"]
            assert "GhostStep" in o.evidence["labels"]

    def test_prf_variant_falls_to_the_same_derivation(self):
        o = attack_ray_impersonation(seed=4, mode="prf")
        assert o.succeeded and o.evidence["claim_unsound"]

    def test_without_observation_nothing_can_be_derived(self):
        for seed in range(100):
            o = attack_ray_impersonation(seed=seed, observe=False)
            assert not o.succeeded
            assert "observed" in o.evidence["reason"]


class TestBurbridgeBypass:
    def test_claim_is_authorized_yet_unsound(self):
        o = attack_burbridge_bypass(seed=3)
        assert o.succeeded and o.violated_property == "sound"
        v = o.run.verdicts[-1]
        assert v.authorized and not v.sound
        assert o.evidence["labels"] == ["GhostStep"]

    def test_per_tag_keys_stop_the_resigning_across_seeds(self):
        for seed in range(100):
            o = attack_burbridge_bypass(seed=seed, mode="per_tag")
            assert not o.succeeded
            run = o.run
            assert run.stalled and not run.verdicts

    def test_advt_cannot_compromise_readers(self):
        with pytest.raises(CapabilityError):
            attack_burbridge_bypass(seed=1, adversary=AdvModel.ADV_T)


class TestRescKeyDisclosure:
    def test_ghost_deposits_after_partial_journey(self):
        for honest in (1, 2):
            o = attack_resc_key_disclosure(seed=0, honest_steps=honest)
            assert o.succeeded and o.violated_property == "sound"
            assert all(o.evidence["deposited"])
            assert o.evidence["ghost_slots"] == list(range(honest + 1, 5))
            assert "GhostStep" in o.evidence["labels"]
            assert o.run.config.adversary is AdvModel.ADV_R

    def test_read_after_step_one_reaches_reader_three(self):
        o = attack_resc_key_disclosure(seed=2, honest_steps=1)
        assert 3 in o.evidence["ghost_slots"] and o.succeeded

    def test_completed_journey_leaves_no_unused_keys(self):
        for seed in range(100):
            o = attack_resc_key_disclosure(seed=seed, honest_steps=4)
            assert not o.succeeded
            assert "complete" in o.evidence["reason"]

    def test_honest_steps_beyond_the_path_are_refused(self):
        with pytest.raises(ValueError, match="honest_steps must lie within the path"):
            attack_resc_key_disclosure(seed=0, honest_steps=5)


class TestTrackerOrderSearch:
    def test_equal_coefficients_force_the_adjacent_swap(self):
        o = attack_tracker_order_search(seed=0, trials=200, equal=True)
        assert o.succeeded and o.violated_property == "sorted"
        # the swap of the two shared-coefficient readers collides always
        assert o.evidence["adjacent_accepted"] >= 200
        assert o.evidence["witnesses"]
        assert all(w["perm"] != (0, 1, 2) for w in o.evidence["witnesses"])

    def test_distinct_coefficients_leave_a_residual_rate_near_1_over_q(self):
        q = 1009
        o = attack_tracker_order_search(seed=1, q=q, trials=20_000)
        checks = o.evidence["adjacent_checks"]
        lo, hi = binomial_acceptance(checks, 1.0 / q)
        assert lo <= o.evidence["adjacent_accepted"] <= hi
        lo_ci, hi_ci = o.evidence["rate_ci"]
        assert lo_ci <= o.evidence["rate"] <= hi_ci

    def test_search_bounds_are_enforced(self):
        with pytest.raises(BoundedSearchError):
            attack_tracker_order_search(q=2003)
        with pytest.raises(BoundedSearchError):
            attack_tracker_order_search(n_readers=5)
        with pytest.raises(BoundedSearchError):
            attack_tracker_order_search(length=5)

    def test_single_step_path_has_no_surface(self):
        o = attack_tracker_order_search(seed=0, length=1, n_readers=2)
        assert not o.succeeded
        assert "no permutation" in o.evidence["reason"]


class TestTrackerCollisionRate:
    def test_distinct_path_pairs_collide_at_about_1_over_q(self):
        for q in (251, 1009):
            collisions, pairs = tracker_collision_rate(q, 20_000, seed=0)
            lo, hi = binomial_acceptance(pairs, 1.0 / q)
            assert lo <= collisions <= hi, (q, collisions, lo, hi)

    def test_sampling_is_deterministic(self):
        assert tracker_collision_rate(251, 5_000, seed=7) == tracker_collision_rate(
            251, 5_000, seed=7
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 250, 1008, 2**61 - 1, 2**64 + 13])
    def test_randbelow_draws_what_randrange_draws(self, n):
        # randbelow rests on CPython's Random._randbelow; pin it on the
        # running interpreter, for randrange(n) and randrange(1, n + 1)
        for seed in range(3):
            ours, theirs = Random(seed), Random(seed)
            below = randbelow(ours)
            draws = [below(n) for _ in range(200)] + [1 + below(n) for _ in range(200)]
            expected = [theirs.randrange(n) for _ in range(200)]
            expected += [theirs.randrange(1, n + 1) for _ in range(200)]
            assert draws == expected
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("q,seed", [(251, 3), (1009, 0), (7, 1)])
    def test_collision_count_equals_randrange_and_path_poly_eval(self, q, seed):
        # the sampler as first written, with randrange and path_poly_eval
        rng = Random(seed)
        collisions = 0
        for _ in range(3_000):
            x0 = rng.randrange(1, q)
            a0 = rng.randrange(1, q)
            coeffs = [rng.randrange(1, q) for _ in range(8)]
            first = [rng.randrange(8) for _ in range(4)]
            second = [rng.randrange(8) for _ in range(4)]
            while second == first:
                second = [rng.randrange(8) for _ in range(4)]
            v1 = crypto.path_poly_eval(q, a0, [coeffs[r] for r in first], x0)
            v2 = crypto.path_poly_eval(q, a0, [coeffs[r] for r in second], x0)
            collisions += v1 == v2
        assert tracker_collision_rate(q, 3_000, seed=seed) == (collisions, 3_000)


class TestEvidenceReverification:
    """A succeeded outcome must reproduce its violation from the carried
    trace alone, with no trust in the attack code's own verdict."""

    def test_soundness_violations_recompute_from_the_trace(self):
        for outcome in (
            attack_ray_impersonation(seed=6),
            attack_burbridge_bypass(seed=6),
            attack_resc_key_disclosure(seed=6),
        ):
            assert outcome.succeeded
            trace = outcome.run.trace
            claims = list(trace.claims())
            assert claims
            assert any(not tr.verdict_for(trace, idx).sound for idx, _ in claims)

    def test_sorted_violation_recomputes_from_the_trace(self):
        outcome = attack_ray_out_of_order(seed=6, order=(1, 2, 0))
        trace = outcome.run.trace
        assert any(not tr.verdict_for(trace, idx).sorted for idx, _ in trace.claims())

    def test_privacy_violation_recomputes_from_ledger_truth(self):
        outcome = attack_rfchain_linking(seed=6)
        truth = ledger_truth(outcome)
        expected = {
            position: step
            for position, (token, step) in enumerate(truth)
            if token == "t0"
        }
        assert outcome.evidence["linked"] == expected


class TestRegistration:
    def test_keyword_types_come_from_defaults_or_the_declaration(self):
        spec = ATTACKS["ray-out-of-order"].spec
        assert spec.types["order"] is tuple and spec.types["path_len"] is int
        assert spec.drives_run and not ATTACKS["tracker-order-search"].spec.drives_run

    def test_none_default_without_a_declared_type_is_refused(self):
        with pytest.raises(TypeError, match="state the type of order"):
            attack("untyped", scheme="ray", violates="sorted")(lambda seed=0, order=None: None)
        assert "untyped" not in ATTACKS

    def test_check_runs_on_direct_calls_with_defaults_filled_in(self):
        with pytest.raises(ValueError, match=r"order must permute 0\.\.3: \(1, 0, 2\)"):
            attack_ray_out_of_order(seed=0, order=(1, 0, 2), path_len=4)
