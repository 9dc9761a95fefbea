"""Unlinkability game engine tests.

Headline numbers (random baselines under 0.05, the RF-Chain record
linker above 0.99, StepAuth/Tracker transcript distinguishers under
0.1, Ray's xor-structure near 1) are pinned here at the same game
configurations the acceptance run uses.
"""

import pytest

from pathtrace import crypto
from pathtrace.network import AdvModel
from pathtrace.privacy import (
    DISTINGUISHERS,
    MAX_WORLDS,
    GameKind,
    GameResult,
    PrivacyGame,
    UnsupportedGameError,
    run_game,
)
from pathtrace.privacy import _atoms, _rfchain_record_world, _step_world, _tag_world
from pathtrace.protocols.checker import Checker
from pathtrace.protocols.ray import Ray
from pathtrace.stats import wilson_interval

ALL_PROTOCOLS = ["tracker", "checker", "stepauth", "rfchain", "ray", "resc", "burbridge"]


class TestGameValidation:
    def test_unknown_protocol_is_an_input_error(self):
        with pytest.raises(ValueError, match="unknown protocol 'nosuch'"):
            run_game(PrivacyGame(kind=GameKind.TAG, protocol="nosuch"))

    def test_unknown_distinguisher_refused(self):
        with pytest.raises(ValueError, match="unknown distinguisher 'nosuch'"):
            run_game(
                PrivacyGame(kind=GameKind.TAG, protocol="tracker", distinguisher="nosuch")
            )

    def test_record_games_are_rfchain_only(self):
        for name in ("record-linking", "record-algebra"):
            with pytest.raises(UnsupportedGameError):
                run_game(
                    PrivacyGame(kind=GameKind.TAG, protocol="checker", distinguisher=name)
                )

    def test_xor_structure_is_ray_only(self):
        with pytest.raises(UnsupportedGameError):
            run_game(
                PrivacyGame(
                    kind=GameKind.STEP, protocol="tracker", distinguisher="xor-structure"
                )
            )

    def test_xor_structure_plays_step_game_only(self):
        with pytest.raises(UnsupportedGameError, match="step-unlinkability only"):
            run_game(
                PrivacyGame(kind=GameKind.TAG, protocol="ray", distinguisher="xor-structure")
            )

    @pytest.mark.parametrize("name", ["record-linking", "record-algebra"])
    def test_record_games_play_tag_game_only(self, name):
        with pytest.raises(UnsupportedGameError, match="tag-unlinkability only"):
            run_game(PrivacyGame(kind=GameKind.STEP, protocol="rfchain", distinguisher=name))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_game(PrivacyGame(kind=GameKind.TAG, protocol="tracker", trials=0))
        with pytest.raises(ValueError):
            run_game(PrivacyGame(kind=GameKind.TAG, protocol="tracker", worlds=0))

    def test_world_pool_bounded(self):
        with pytest.raises(ValueError, match=f"world pool must be at most {MAX_WORLDS}"):
            run_game(PrivacyGame(kind=GameKind.TAG, protocol="tracker", worlds=MAX_WORLDS + 1))
        game = PrivacyGame(kind=GameKind.TAG, protocol="tracker", trials=1, worlds=MAX_WORLDS)
        assert run_game(game).trials == 1

    def test_distinguisher_registry(self):
        assert set(DISTINGUISHERS) == {
            "random",
            "shared-atom",
            "full-transcript",
            "xor-structure",
            "record-linking",
            "record-algebra",
        }


class TestGameResult:
    def test_advantage_and_ci(self):
        game = PrivacyGame(kind=GameKind.TAG, protocol="tracker")
        result = GameResult(game=game, trials=100, wins=75)
        assert result.advantage == pytest.approx(0.5)
        assert result.ci == wilson_interval(75, 100)

    def test_report_lines(self):
        game = PrivacyGame(
            kind=GameKind.STEP, protocol="ray", distinguisher="xor-structure", seed=9
        )
        result = GameResult(game=game, trials=200, wins=200)
        lines = result.report_lines()
        assert "protocol=ray" in lines
        assert "game=step-unlinkability" in lines
        assert "distinguisher=xor-structure" in lines
        assert "trials=200" in lines
        assert "wins=200" in lines
        assert "advantage=1.000000" in lines
        assert any(line.startswith("winrate_ci=") for line in lines)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        games = [
            PrivacyGame(
                kind=GameKind.TAG,
                protocol="rfchain",
                distinguisher="record-linking",
                trials=150,
                seed=42,
            ),
            PrivacyGame(
                kind=GameKind.STEP,
                protocol="ray",
                distinguisher="xor-structure",
                trials=120,
                seed=42,
            ),
            PrivacyGame(kind=GameKind.TAG, protocol="stepauth", trials=300, seed=3),
        ]
        for game in games:
            first = run_game(game)
            second = run_game(game)
            assert first == second
            assert first.report_lines() == second.report_lines()

    def test_seed_changes_outcome(self):
        wins = {
            run_game(
                PrivacyGame(kind=GameKind.TAG, protocol="tracker", trials=200, seed=seed)
            ).wins
            for seed in range(5)
        }
        assert len(wins) > 1


class TestBaselines:
    def test_random_guess_converges_everywhere(self):
        for protocol in ALL_PROTOCOLS:
            game = PrivacyGame(
                kind=GameKind.TAG, protocol=protocol, distinguisher="random",
                trials=2000, seed=5,
            )
            result = run_game(game)
            assert result.advantage < 0.05, (protocol, result.advantage)

    def test_step_game_baseline(self):
        for protocol in ("ray", "tracker"):
            game = PrivacyGame(
                kind=GameKind.STEP, protocol=protocol, distinguisher="random",
                trials=1000, seed=5, worlds=8,
            )
            result = run_game(game)
            assert result.advantage < 0.06, (protocol, result.advantage)


class TestRfChainRecordGames:
    def test_linking_breaks_default_mode(self):
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="rfchain", distinguisher="record-linking",
            trials=200, seed=7,
        )
        result = run_game(game)
        assert result.advantage >= 0.99
        assert result.wins == 200

    def test_linking_collapses_in_patched_mode(self):
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="rfchain", distinguisher="record-linking",
            trials=200, seed=7, mode="patched",
        )
        result = run_game(game)
        assert result.advantage <= 0.2

    def test_ledger_only_algebra_holds(self):
        # without a tag read there is no chain level to anchor the linking
        # algebra on, which is the privacy scope the scheme argues for
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="rfchain", distinguisher="record-algebra",
            trials=500, seed=7,
        )
        result = run_game(game)
        assert result.advantage <= 0.1


class TestTranscriptHolds:
    def test_stepauth_full_transcript_adv_r(self):
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="stepauth", distinguisher="full-transcript",
            trials=500, seed=7, adversary=AdvModel.ADV_R,
        )
        result = run_game(game)
        assert result.advantage <= 0.1

    def test_checker_full_transcript_adv_r(self):
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="checker", distinguisher="full-transcript",
            trials=500, seed=7, adversary=AdvModel.ADV_R,
        )
        result = run_game(game)
        assert result.advantage <= 0.1

    def test_tracker_ciphertext_transcripts_hold(self):
        tag_game = PrivacyGame(
            kind=GameKind.TAG, protocol="tracker", distinguisher="shared-atom",
            trials=500, seed=7,
        )
        step_game = PrivacyGame(
            kind=GameKind.STEP, protocol="tracker", distinguisher="shared-atom",
            trials=500, seed=7,
        )
        assert run_game(tag_game).advantage <= 0.1
        assert run_game(step_game).advantage <= 0.1


class TestRayXorStructure:
    def test_step_unlinkability_breaks(self):
        game = PrivacyGame(
            kind=GameKind.STEP, protocol="ray", distinguisher="xor-structure",
            trials=300, seed=7,
        )
        result = run_game(game)
        assert result.advantage >= 0.9

    def test_distinguisher_decides_worlds_directly(self):
        guess = DISTINGUISHERS["xor-structure"]
        game = PrivacyGame(kind=GameKind.STEP, protocol="ray")
        steps = (0, 1, 2)
        for seed in range(10):
            for shared in (True, False):
                world = _step_world(game, 1000 + seed, shared)
                t1 = world.window("ta", steps)
                t2 = world.window("tb", steps)
                assert guess(world.view, t1, t2) is shared, (seed, shared)


class TestChallengeWorlds:
    def test_tag_world_shape(self):
        game = PrivacyGame(kind=GameKind.TAG, protocol="checker")
        world = _tag_world(game, 99)
        assert world.tags == ["ta", "tb"]
        assert world.paths["ta"] == world.paths["tb"]
        for step in range(4):
            a = world.transcripts[("ta", step)]
            b = world.transcripts[("tb", step)]
            assert a and b
            assert len(a) == len(b)  # matched paths leave no shape channel

    def test_adv_r_world_carries_compromised_secrets(self):
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="stepauth", adversary=AdvModel.ADV_R
        )
        world = _tag_world(game, 99)
        assert world.view["secrets"]
        plain = _tag_world(PrivacyGame(kind=GameKind.TAG, protocol="stepauth"), 99)
        assert "secrets" not in plain.view

    def test_step_world_overlap_matches_arm(self):
        game = PrivacyGame(kind=GameKind.STEP, protocol="ray")
        for seed in range(10):
            shared = _step_world(game, seed, True)
            disjoint = _step_world(game, seed, False)
            sp = set(shared.paths["ta"]) & set(shared.paths["tb"])
            dp = set(disjoint.paths["ta"]) & set(disjoint.paths["tb"])
            assert sp, seed
            assert not dp, seed
            assert shared.paths["ta"] != shared.paths["tb"]

    def test_stalled_world_is_refused(self, monkeypatch):
        monkeypatch.setattr(Checker, "_process_arrival", lambda self, tag, reader: False)
        game = PrivacyGame(kind=GameKind.TAG, protocol="checker")
        with pytest.raises(RuntimeError, match="^challenge world for checker stalled$"):
            _tag_world(game, 99)

    def test_rfchain_record_world(self):
        game = PrivacyGame(kind=GameKind.TAG, protocol="rfchain")
        world = _rfchain_record_world(game, 55)
        truth = world.truth
        ledger = world.ledger
        assert len(ledger) == len(truth) == 6
        assert [t for t, _ in truth].count("ta") == 3
        parts = crypto.split_length_prefixed(world.view["snapshot"])
        fields = {parts[i].decode(): parts[i + 1] for i in range(0, len(parts), 2)}
        assert fields["id"] == b"epc-ta"


class TestDistinguisherAnswers:
    """Each distinguisher on windows built by hand: None where it cannot
    decide, True where the windows confirm one tag."""

    def test_xor_structure_is_undecided_without_a_32_byte_value(self):
        guess = DISTINGUISHERS["xor-structure"]
        view = {"pids": {t: Ray.pid(t) for t in ("r1", "r2", "r3")}}
        value = Ray.pid("r1")
        assert guess(view, (value,), (value,)) is True
        assert guess(view, (b"short",), (value,)) is None
        assert guess(view, (value,), (b"short",)) is None

    def test_record_linking_is_undecided_without_a_snapshot(self):
        record = (b"p" * 48, b"q" * 48)
        assert DISTINGUISHERS["record-linking"]({}, record, record) is None

    def test_record_algebra_links_equal_pseudo_identities(self):
        guess = DISTINGUISHERS["record-algebra"]
        assert guess({}, (b"p" * 48, b"short"), (b"p" * 48, b"other")) is True
        assert guess({}, (b"p" * 48, b"short"), (b"q" * 48, b"other")) is None

    def test_record_algebra_links_a_pair_whose_xor_key_confirms(self):
        guess = DISTINGUISHERS["record-algebra"]
        key = crypto.hash_bytes(b"step key")
        payload2 = crypto.hash_bytes(b"second payload") * 2
        payload1 = crypto.xor_bytes(payload2[:32], key) + payload2[32:]
        pseudo1 = crypto.sym_enc(key, payload2[:16])
        assert guess({}, (pseudo1, payload1), (b"q" * 48, payload2)) is True
        assert guess({}, (b"p" * 48, payload1), (b"q" * 48, payload2)) is None


class TestAdversaryView:
    @pytest.mark.parametrize(
        "kind,protocol,distinguisher,adversary,keys",
        [
            (GameKind.TAG, "stepauth", "full-transcript", AdvModel.ADV_R, {"secrets"}),
            (GameKind.TAG, "stepauth", "shared-atom", AdvModel.ADV_T, set()),
            (GameKind.STEP, "ray", "xor-structure", AdvModel.ADV_T, {"pids"}),
            (GameKind.TAG, "rfchain", "record-linking", AdvModel.ADV_T, {"snapshot"}),
            (GameKind.TAG, "rfchain", "record-algebra", AdvModel.ADV_T, set()),
        ],
        ids=["secrets", "nothing", "pids", "snapshot", "ledger-only"],
    )
    def test_distinguisher_sees_only_the_adversary_view(
        self, monkeypatch, kind, protocol, distinguisher, adversary, keys
    ):
        seen = set()
        real = DISTINGUISHERS[distinguisher]

        def spy(view, t1, t2):
            seen.add(frozenset(view))
            return real(view, t1, t2)

        monkeypatch.setitem(DISTINGUISHERS, distinguisher, spy)
        game = PrivacyGame(
            kind=kind, protocol=protocol, distinguisher=distinguisher,
            trials=40, seed=3, adversary=adversary, worlds=4,
        )
        run_game(game)
        assert seen == {frozenset(keys)}


class TestDistinguisherMemo:
    """A game asks its distinguisher once per world and window pair."""

    def _spy(self, monkeypatch, name):
        calls = []
        real = DISTINGUISHERS[name]

        def spy(view, t1, t2):
            calls.append((id(view), t1, t2))  # one view object per world
            return real(view, t1, t2)

        monkeypatch.setitem(DISTINGUISHERS, name, spy)
        return calls

    def test_one_call_per_distinct_window_pair(self, monkeypatch):
        calls = self._spy(monkeypatch, "full-transcript")
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="stepauth", distinguisher="full-transcript",
            trials=500, seed=2, adversary=AdvModel.ADV_R,
        )
        run_game(game)
        assert len(calls) == len(set(calls))
        # 32 worlds, one first window each and two possible second windows
        assert len(calls) <= 2 * game.worlds < game.trials // 5

    def test_memo_lives_for_one_game(self, monkeypatch):
        calls = self._spy(monkeypatch, "shared-atom")
        game = PrivacyGame(
            kind=GameKind.TAG, protocol="tracker", distinguisher="shared-atom",
            trials=200, seed=4, worlds=8,
        )
        first = run_game(game)
        per_game = len(calls)
        assert run_game(game) == first
        assert len(calls) == 2 * per_game


class TestAtomDecomposition:
    def test_short_framing_atoms_ignored(self):
        assert _atoms((b"ok", b"HELLO", b"END")) == set()

    def test_signature_fields_recursed(self):
        from random import Random

        sk, _ = crypto.new_signing_keypair("signer", Random(0))
        blob = crypto.sign(sk, b"message-payload").to_bytes()
        atoms = _atoms((blob,))
        assert b"message-payload" in atoms
        assert blob in atoms

    def test_length_prefixed_parts_recursed(self):
        blob = crypto.concat_length_prefixed(b"first-part!", b"second-part")
        atoms = _atoms((blob,))
        assert {blob, b"first-part!", b"second-part"} <= atoms
