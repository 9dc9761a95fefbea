"""Unlinkability game engine tests.

Headline numbers (random baselines under 0.05, the RF-Chain record
linker above 0.99, StepAuth/Tracker transcript distinguishers under
0.1, Ray's xor-structure near 1) are pinned here at the same game
configurations the acceptance run uses.
"""

import hashlib

import pytest

from pathtrace import crypto
from pathtrace.network import AdvModel
from pathtrace.privacy import (
    DISTINGUISHERS,
    MAX_WORLDS,
    ChallengeWorld,
    GameKind,
    GameResult,
    PrivacyGame,
    UnsupportedGameError,
    run_game,
)
from pathtrace.privacy import _atoms, _rfchain_record_world, _step_world, _tag_world
from pathtrace.protocols import PROTOCOLS
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


# Every (protocol, declared mode, game kind, distinguisher, adversary) game
# at 120 trials, 8 worlds and seed 3: the SHA-256 of its report for the 132
# that play, the exception type for the 108 that are refused.
GAME_PINS = {
    "burbridge/default/step-unlinkability/full-transcript/AdvR": "85ae9c163a2ee7dd01ce85d8025213bc239a5b118fe433600167223f7dc72040",
    "burbridge/default/step-unlinkability/full-transcript/AdvT": "6918a7bd9274adbd3ef4fea6044935ecb9bea8fef6c56cdb343cf1e70a8ccae7",
    "burbridge/default/step-unlinkability/random/AdvR": "5f3a2c19f50510a36b385c314e7b5442732c48e7139ae751e0dde64a5e19db23",
    "burbridge/default/step-unlinkability/random/AdvT": "7502db64b55b61c0549cbb40b6ab72f1372455524aa69e2eb0b58692533e22da",
    "burbridge/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "burbridge/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "burbridge/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "burbridge/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "burbridge/default/step-unlinkability/shared-atom/AdvR": "67672b7ee27610265615d7fdf0306260b5a30cf9db739eec19b50faea3eb31f8",
    "burbridge/default/step-unlinkability/shared-atom/AdvT": "d7c97fdbe6b1b2dbd048bcb2d26c410a94b3ec4361cf6be9da673330ec10cb69",
    "burbridge/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "burbridge/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/full-transcript/AdvR": "917323d116b3ad1faddcbfd4b5aed956e10d604d377f061a3daebd719fdae5d9",
    "burbridge/default/tag-unlinkability/full-transcript/AdvT": "d82260dbb1df7489e3670ea987954f125e76edfd61b24b7f63e28369c0d227ee",
    "burbridge/default/tag-unlinkability/random/AdvR": "384e90481b4dc4cf41b63ad975d2a79364062d08e43e39c9acd240370a300435",
    "burbridge/default/tag-unlinkability/random/AdvT": "81540f0270ba507e5f1db1187bdbbc0ae272d30639a88e62ca5ff0dbc14292aa",
    "burbridge/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/shared-atom/AdvR": "ab08f225f3dc5dc8ffa65c5b520198842e714aaadc3acc3f67a53cee91c8a7cb",
    "burbridge/default/tag-unlinkability/shared-atom/AdvT": "41900e0d127d5e51489e05e91a9d9ccb41543d9bc2473477738ce44430126470",
    "burbridge/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "burbridge/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/full-transcript/AdvR": "56d672340e137c18c24221d3fe893433d3f86c82ebbe42cd10fb5a3e954c35ee",
    "burbridge/per_tag/step-unlinkability/full-transcript/AdvT": "13b908bc1343f00b3ec8014e7554693b51f63235c6c9d8f2865623b9e83a8baa",
    "burbridge/per_tag/step-unlinkability/random/AdvR": "fd96cea94ed28fcb3c0e70705d7ad8ae04bd017b06b1262a7ca10b7328446a3b",
    "burbridge/per_tag/step-unlinkability/random/AdvT": "28b28322e661341bc38ada559e4523122409ad2f42945f99d375887d1867eea6",
    "burbridge/per_tag/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/shared-atom/AdvR": "7b883499cbe19c39ec35ae63043b65e65cfa7062a9482e71d7617039dedef4b6",
    "burbridge/per_tag/step-unlinkability/shared-atom/AdvT": "8c1061e5ab25cab3411fe67b3fd76337c1f00ec17c588f943748d28ec64fefa8",
    "burbridge/per_tag/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/full-transcript/AdvR": "c6cc2366b7b2a9af34895168e5e382d4190df5e22118c7d292ccfb7e6702a973",
    "burbridge/per_tag/tag-unlinkability/full-transcript/AdvT": "15e68d2f51abc21d0da520709ff91a6b20ab82027c322dfee8e8b5bedd6372d5",
    "burbridge/per_tag/tag-unlinkability/random/AdvR": "68a0820aa7b3c2704aec5b0ab5318d932bc4c2e667073d4c6d0f9ea17f50fe26",
    "burbridge/per_tag/tag-unlinkability/random/AdvT": "ff7673569e2753add66ff9c44d8998e2e9a38a43423e21701adc71270dee71b7",
    "burbridge/per_tag/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/shared-atom/AdvR": "d46559043ce54aeb018d4212a4cd8b4d763c74ed305773982684f652642f6723",
    "burbridge/per_tag/tag-unlinkability/shared-atom/AdvT": "c366a8a4d23316ca26713961bb25c2733b13aa51c5eaed9a94ef62fe834c80c9",
    "burbridge/per_tag/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "burbridge/per_tag/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "checker/default/step-unlinkability/full-transcript/AdvR": "d180f7259792d5038f4fb41bd7647f61c830745eb21ddf2b6bef420213fd5fcd",
    "checker/default/step-unlinkability/full-transcript/AdvT": "df9b2ad7b57215a2f812b7bfa070fa09e292ec84da36f6be26818437eb92e7e4",
    "checker/default/step-unlinkability/random/AdvR": "bd273b154752482a3dadbdcbcd41558c26d519801b6ea5de8bc37077abc3340e",
    "checker/default/step-unlinkability/random/AdvT": "1ca4696f59c5892449103b6bbbed2b164425c2494a9ab9dbc02fdd194c9ac32e",
    "checker/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "checker/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "checker/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "checker/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "checker/default/step-unlinkability/shared-atom/AdvR": "6aab93be3c5a96c735e7f07568d2ad14788985107fb72cceb6ba291bd6fc3b37",
    "checker/default/step-unlinkability/shared-atom/AdvT": "b0ac1cb5e4f2371f0544a4c06faf5db99b54a6420b9f9e7857ea336590b0a69f",
    "checker/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "checker/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "checker/default/tag-unlinkability/full-transcript/AdvR": "06fe80dd4bf6f97009a82fc1acd772801eee9a5df363b01b98c5a5e52f63b342",
    "checker/default/tag-unlinkability/full-transcript/AdvT": "1033d0702af6ea95beb77d84ac7e2f1f5311d74d58e3ca1c86e4ef6d63b49fd2",
    "checker/default/tag-unlinkability/random/AdvR": "7501c109a893fbd0b44cce277d411f6ba19215c49fe8b867be7e856a4473c1c3",
    "checker/default/tag-unlinkability/random/AdvT": "73b3073eacbc24a536c53115c3ae5bbeec75c99d939d336d5ebd47fe06f89bf6",
    "checker/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "checker/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "checker/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "checker/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "checker/default/tag-unlinkability/shared-atom/AdvR": "858a6627b9a56abe6801dbc5774363a21fd6432ecdcdc961de3fcf93c5dc3b06",
    "checker/default/tag-unlinkability/shared-atom/AdvT": "3c6e37c615cc9527cc0e0597a3b6f2d16eb7c140bfd3f09cb27e9511040496dc",
    "checker/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "checker/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "ray/default/step-unlinkability/full-transcript/AdvR": "62c236758ee34a5028f008732dffbdcab8ec9e69a4083d786279efc72b218a21",
    "ray/default/step-unlinkability/full-transcript/AdvT": "7191c9e37fcd001bb9dafd97fd3e978bf98412226d9d6f8463c505e74b0229a3",
    "ray/default/step-unlinkability/random/AdvR": "c9d2c80132269e6c6676c899234e62694ba1ffcb74c7924884715a2e687c4f54",
    "ray/default/step-unlinkability/random/AdvT": "f468b18ef1ea1cf48f43e5b4480733adb5824612d24fbe318c7f676d9eed1b55",
    "ray/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "ray/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "ray/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "ray/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "ray/default/step-unlinkability/shared-atom/AdvR": "8509205e68adf0881cad222579d20aa3dbe51ae45f27015c6465de540daa8295",
    "ray/default/step-unlinkability/shared-atom/AdvT": "0c5a395010264853653a12cdf4b790ad6b834c28930165dd03de713f6cd8abcb",
    "ray/default/step-unlinkability/xor-structure/AdvR": "59106d63f06b6dab2c1375fc0676508777c0f07f2c88aad9892f1b0c6271e16f",
    "ray/default/step-unlinkability/xor-structure/AdvT": "79b4319270d15c01b5b1a5278aab1824c92109e9de710d3c2e222d6785964ca2",
    "ray/default/tag-unlinkability/full-transcript/AdvR": "29c4d051d29f313bc9b6ab9f1ff4afe95d7d34a86d1ab4dd11bc62423e065af2",
    "ray/default/tag-unlinkability/full-transcript/AdvT": "63e60c7456cad36b23ce8a33b1a062012a3449093793c210b739dbd59636a087",
    "ray/default/tag-unlinkability/random/AdvR": "072bd1b32ee9aa0fe0b6f542cc6bca615b9843ce9f2d4896e607f6a4549886ad",
    "ray/default/tag-unlinkability/random/AdvT": "0c89a0bae4d3d0995cc767cc6d8a9f7704472e0f5b6e4b2e32fd98fc123f9fe3",
    "ray/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "ray/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "ray/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "ray/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "ray/default/tag-unlinkability/shared-atom/AdvR": "b0431c9d093deae8cbf2b027db9acefe1b4bf9f8cb2227da1ad857aaae434d91",
    "ray/default/tag-unlinkability/shared-atom/AdvT": "efd9365942cc675849db2d59a569be50ae848db98e4485152cf01598b89a8a06",
    "ray/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "ray/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "ray/prf/step-unlinkability/full-transcript/AdvR": "a321eb28252c2e7ea6701ebf507531b67ab73c3a270abc74f0d47d437c5cc786",
    "ray/prf/step-unlinkability/full-transcript/AdvT": "db79125f37a712adc0a9b34b1e882b8c4cab97879cb3994bbc8ae311fce406ec",
    "ray/prf/step-unlinkability/random/AdvR": "23e6640bff7621c4efce9e5621506846e99ab13c2203f8a48fe5bc4b8439ebdf",
    "ray/prf/step-unlinkability/random/AdvT": "672d92278075901c4b52622b36ba456430422a51f98e4fd4ec1baef13e1b4a68",
    "ray/prf/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "ray/prf/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "ray/prf/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "ray/prf/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "ray/prf/step-unlinkability/shared-atom/AdvR": "c1e1a083fe5b9c0382dc4da425f310bdc0e406d9812d5d39963f71534f02ee81",
    "ray/prf/step-unlinkability/shared-atom/AdvT": "ad20c7c91a07238b373423cfa96ab22a561b8f1d2d7eb3ee16b78c8091c41675",
    "ray/prf/step-unlinkability/xor-structure/AdvR": "f61c2c98d18925d098d3b6eb53c3f4dd9a7909dfdea7c01fcce0f9a70f8bbf14",
    "ray/prf/step-unlinkability/xor-structure/AdvT": "765eff18ba05ddc456251e3a17ae60a44f242a7433b638e9967e406e7395bb4e",
    "ray/prf/tag-unlinkability/full-transcript/AdvR": "d2fed17d9ea00dadd8c8b1a44ddf7bff50d3e29374e8b2eb1b69b285489405f8",
    "ray/prf/tag-unlinkability/full-transcript/AdvT": "de04267b950f44ff84a8632e1f154dd74ab11f8663fe490ed62b355be76f63bd",
    "ray/prf/tag-unlinkability/random/AdvR": "316fd3244274b9b44c32a26efdca75e3b493bf36d3945c229cec243aeaca05b4",
    "ray/prf/tag-unlinkability/random/AdvT": "571d087317ade7a89f805e2fe39495f3569111a6aa3907242530e81fddb5ac83",
    "ray/prf/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "ray/prf/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "ray/prf/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "ray/prf/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "ray/prf/tag-unlinkability/shared-atom/AdvR": "dde39a9ffb2cf94a4f285161ac2efdc4995e19fffd59ab5b9b9113a8cc13080d",
    "ray/prf/tag-unlinkability/shared-atom/AdvT": "f287130222e235a4e446bb49bc781b25a1653d1236a479df087c6c1edb1b4f5e",
    "ray/prf/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "ray/prf/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "resc/default/step-unlinkability/full-transcript/AdvR": "3d893fac4d7dec6b6edbcebe5053fc7f56e1f11669411f4b105d9fc59a05e634",
    "resc/default/step-unlinkability/full-transcript/AdvT": "6a24826bde336d154d4870bf5ec43f132d300f91ce76a0a61d580fab973966b9",
    "resc/default/step-unlinkability/random/AdvR": "e987399218dbce26101ea94aa42e5779d4700891b79d3b99996218df9b91413d",
    "resc/default/step-unlinkability/random/AdvT": "d7172e1e8d9fdef70c7bde8cf9d2e395dbc6ab6c56a56f69d0509b8f17f10222",
    "resc/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "resc/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "resc/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "resc/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "resc/default/step-unlinkability/shared-atom/AdvR": "c3b76673b9fd0249d209ec56b74179b4941cf41714232fbfdb02b15c05efff37",
    "resc/default/step-unlinkability/shared-atom/AdvT": "b18372796931f306ece69d8c48fbdf742565cca7033fdc71fc3950fe6b622c9e",
    "resc/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "resc/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "resc/default/tag-unlinkability/full-transcript/AdvR": "c1c52179601831681c038ee71ea399c5c94200f454382c41777b2ca4b5513dda",
    "resc/default/tag-unlinkability/full-transcript/AdvT": "0299a66d45837d0480ceb8422b6fe7eb841d4b849c791154314cd7ec77caec43",
    "resc/default/tag-unlinkability/random/AdvR": "21a0bdebec712d37d7b4752b3631c3d07cefbda464d92ce59f0b146760614c4e",
    "resc/default/tag-unlinkability/random/AdvT": "fc03477c29f2f0aacf9c2c6f795994cdca5ccf85861ddcdd5a15776a1e70ce4d",
    "resc/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "resc/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "resc/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "resc/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "resc/default/tag-unlinkability/shared-atom/AdvR": "b1ca89dca52ed9b522a0e3ca7d9b4f9863ad12cafb853cfa13cc3d1022c8f580",
    "resc/default/tag-unlinkability/shared-atom/AdvT": "6a7a5f13f1af3434fd393dbbf2bb11e6b91f65803505ff5f896a391b4c3125ca",
    "resc/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "resc/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/full-transcript/AdvR": "1a4a13bda3509ce55b47e5d06118d5e5b64160583e829328ce0bb81a4e4b8e3f",
    "rfchain/default/step-unlinkability/full-transcript/AdvT": "a6cd3549e205ac13a8fc4bf72ffe9b4f631d77f48774eba4ab7650285c281f04",
    "rfchain/default/step-unlinkability/random/AdvR": "e4c2932a4ddf75c10ab237a89a8502f37ef745ed49473b121a90ae535e91c917",
    "rfchain/default/step-unlinkability/random/AdvT": "5bff109829de9cf2aec058fd36847253e3ed4b189702379319a2da9db0cd2ff5",
    "rfchain/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/shared-atom/AdvR": "ac7ff2763e30552ffba07d81da1d7c990bf41e0270beb902a1000a593dc88a79",
    "rfchain/default/step-unlinkability/shared-atom/AdvT": "1e518389bc33f546b01bbf7e286e5bba354f855574082d78be21bec2315c5794",
    "rfchain/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "rfchain/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "rfchain/default/tag-unlinkability/full-transcript/AdvR": "1fb6f6b43b1ecf5a83e5076dc4eb9c6a397aebf9a0c2f6995cf117c3f01ff2f9",
    "rfchain/default/tag-unlinkability/full-transcript/AdvT": "cfb1029d1888e9908a7432c400bdb31a6bfd81c0c685f3922c5de948fe651a16",
    "rfchain/default/tag-unlinkability/random/AdvR": "44e5d99db7f811268a6e53fa29f37780565e25dc53b0d4eb3158b95aac187993",
    "rfchain/default/tag-unlinkability/random/AdvT": "aa7fcb1e2b2d528ad2a5f105270c0d928ef5aae50a6c25d70f859a0e166619f0",
    "rfchain/default/tag-unlinkability/record-algebra/AdvR": "e419fa6a6bf0da92edab0271919f47241efcf6d0e7d65773c36199026607ec17",
    "rfchain/default/tag-unlinkability/record-algebra/AdvT": "dbc3fbf4f4f1ba838726a32ec8fcb72289378395c07fb8528734db4f1cafee6e",
    "rfchain/default/tag-unlinkability/record-linking/AdvR": "9109b96039afa7a83cdcd82baadf0e28cca9428aa7c8c5b36280f5f6ad6f1bfa",
    "rfchain/default/tag-unlinkability/record-linking/AdvT": "8c18c47a612df212b3e50fde27871819131be3e664416ca9536ef8238a800439",
    "rfchain/default/tag-unlinkability/shared-atom/AdvR": "2b285e53ee732fdabfea70c73606c512cfaea488bdc3665d27a19f8642d350bd",
    "rfchain/default/tag-unlinkability/shared-atom/AdvT": "7d572dd0ca46c372eaa84050a72ac789b1aa7832923c7ad3ccf45bfc3c1a4b85",
    "rfchain/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "rfchain/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/full-transcript/AdvR": "0d274c8f10da05ef98f585dd0f0a2e268869087e7d659a85a87f2a668b7f64c9",
    "rfchain/patched/step-unlinkability/full-transcript/AdvT": "a28912c0c2793b0db79fa41e36980a335d55030c720447f09bc56552840e5529",
    "rfchain/patched/step-unlinkability/random/AdvR": "bee25d05f818eea75690b0281c5610711f435d54fcf918d2bc4caafbd1f727ae",
    "rfchain/patched/step-unlinkability/random/AdvT": "66d7679c22785bc6f27ef7c893dc964a0f67b14e6017bd32a1721d0b3fee344f",
    "rfchain/patched/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/shared-atom/AdvR": "110ad8acbeffec2d82ccdcf60aa6018619f87fb721a31a0d31470009ebe3fbd0",
    "rfchain/patched/step-unlinkability/shared-atom/AdvT": "e83c983a366f1ddbba992ca2df0413dd9d29734c19303f8a848e79304a4ad85c",
    "rfchain/patched/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "rfchain/patched/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "rfchain/patched/tag-unlinkability/full-transcript/AdvR": "4effbfbb56c9c10a5c2df159abfb1f139fa9e40c70368585f680b4f41ac87612",
    "rfchain/patched/tag-unlinkability/full-transcript/AdvT": "87b17f55fae43afdfa025742af16b2f87561177f229e628e7c72fbd107560c6a",
    "rfchain/patched/tag-unlinkability/random/AdvR": "5789f2c58ff227f12ed49b22fec8f434bfa026b01ee442ddc5762d648cdfe46e",
    "rfchain/patched/tag-unlinkability/random/AdvT": "6762e0d1faa6874a143df5e02ce14cdd0478b8299fc78caecaea46cb692ac173",
    "rfchain/patched/tag-unlinkability/record-algebra/AdvR": "ef54bba2c0afdb49af5b4792aa517af317bd7aee2c05d1dfb9d17238eb0982e2",
    "rfchain/patched/tag-unlinkability/record-algebra/AdvT": "edbd445c9a0dc4023d7acfc8077857df4a3716af6e6a0914a6e53d3df33fcfed",
    "rfchain/patched/tag-unlinkability/record-linking/AdvR": "eda219d0ed185bc762a730447768b7a525adfd508a1857b6e82ccdf98e275915",
    "rfchain/patched/tag-unlinkability/record-linking/AdvT": "2d88bf809663a427546fc908f7d1d1a1d645e1e1d7e7b6945b2540f1c5261e5a",
    "rfchain/patched/tag-unlinkability/shared-atom/AdvR": "566e84e7aadf08093922777868b08407f60d173203ac883dd83ce61b75ed2370",
    "rfchain/patched/tag-unlinkability/shared-atom/AdvT": "b996f6286ad7a172aadbe22ff8c854bfeacb80e77e4c82afae2ba1a5be961313",
    "rfchain/patched/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "rfchain/patched/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/full-transcript/AdvR": "381bc368c01aef7d7544c08601a046d0c4c636a13a390ade342f6fad3ccc5e0c",
    "stepauth/default/step-unlinkability/full-transcript/AdvT": "01b1ba3d45ea5681fcbbd663dd94fdd541a0fb09c5a04218676a278bfebcc60d",
    "stepauth/default/step-unlinkability/random/AdvR": "238dfdb7608268ddcbfcd595ba6684acdaaf955d57b422d04988d15b0166b656",
    "stepauth/default/step-unlinkability/random/AdvT": "03a8872d99fe3b444a8792501510fb6211a99da4e9975f4578f715bf7acd9e44",
    "stepauth/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/shared-atom/AdvR": "f51c88a1f90be186881880c24919cd50db0ffef6ce54874f02433060ba7c6d52",
    "stepauth/default/step-unlinkability/shared-atom/AdvT": "efa18dab3d96a58a7bf8108e6e01d38161d3d4ef0ab6399cb869332fabb11ec6",
    "stepauth/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "stepauth/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/full-transcript/AdvR": "75b09725c47f84b31f4d20579950288a533e29d8ceea2315570a323d5d5ca2a1",
    "stepauth/default/tag-unlinkability/full-transcript/AdvT": "39aeebbd1738feb07d3d7ed260043169bae0d104527935a5113f7ace912e5384",
    "stepauth/default/tag-unlinkability/random/AdvR": "d592e1b3e02eba2cd585964a72ad170f5586d4cb65e434a86df7e5c7867d205e",
    "stepauth/default/tag-unlinkability/random/AdvT": "7497f313fda892bff0a199c1dfe2720df833a4557b9bccad91596f2b23f6221c",
    "stepauth/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/shared-atom/AdvR": "f6371e8814c6a64fd6da6d83a7a527e15d7002b097ce2597d6bbb7b4b3003e03",
    "stepauth/default/tag-unlinkability/shared-atom/AdvT": "a0732b22bb828be79b92236cc48e995fcd9d00be11fc0608851b74f72828d56b",
    "stepauth/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "stepauth/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "tracker/default/step-unlinkability/full-transcript/AdvR": "bf8f1bbb95c7117912b98fa398567129d7854b2b65c0c36168558079d112cd91",
    "tracker/default/step-unlinkability/full-transcript/AdvT": "a65ddac8c2214bbe82049b961e08715339e7ca2173b692c7f8207ba933b71906",
    "tracker/default/step-unlinkability/random/AdvR": "a98777d4086ef2dd40fb98a7e7eacf451994f21e39c3e5a44510f2e7768c6770",
    "tracker/default/step-unlinkability/random/AdvT": "34f8ed49ebf8da65c1e9bcbeaf858dedde0a147f06052e91edf006fe3b4338bf",
    "tracker/default/step-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "tracker/default/step-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "tracker/default/step-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "tracker/default/step-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "tracker/default/step-unlinkability/shared-atom/AdvR": "5c36fe24f338366b2a56880736f57186c1a1e7912e604ecac5ff45c848d7ebe8",
    "tracker/default/step-unlinkability/shared-atom/AdvT": "599ab30b2701ac07d82556e91d80c82d9c681eef8eaa938dc85f12395eca425d",
    "tracker/default/step-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "tracker/default/step-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/full-transcript/AdvR": "7a1ccb06c2ff1a8d2399f7c19afae76df17777db99206d2ff8d457d12b839884",
    "tracker/default/tag-unlinkability/full-transcript/AdvT": "25c1d3f8af0ab5b2bee6e7204bc24be0675d8402756add2df516a508d4d82da0",
    "tracker/default/tag-unlinkability/random/AdvR": "e77d5d161e8e918ad305b1170cebf27f003bd6329d3a77d2bc0431c2088e751c",
    "tracker/default/tag-unlinkability/random/AdvT": "d2c301ee0d30a14ff3687b7afc0b0bed625c5b785e66e4a361f4f73f4e713b5b",
    "tracker/default/tag-unlinkability/record-algebra/AdvR": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/record-algebra/AdvT": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/record-linking/AdvR": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/record-linking/AdvT": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/shared-atom/AdvR": "fed523b89b2f6ae771a380eb3880a791a31bae800b83b43dbd614bb486c42999",
    "tracker/default/tag-unlinkability/shared-atom/AdvT": "287ef95934bff75394fb269f3b2f8d1e1ba53897ab4599b209a2e236f9db573e",
    "tracker/default/tag-unlinkability/xor-structure/AdvR": "UnsupportedGameError",
    "tracker/default/tag-unlinkability/xor-structure/AdvT": "UnsupportedGameError",
}


def _pinned_game(key: str) -> PrivacyGame:
    protocol, mode, kind, distinguisher, adversary = key.split("/")
    return PrivacyGame(
        kind=GameKind(kind), protocol=protocol, distinguisher=distinguisher,
        trials=120, seed=3, mode=mode, adversary=AdvModel(adversary), worlds=8,
    )


class TestPinnedGames:
    def test_every_game_is_pinned(self):
        keys = [
            f"{protocol}/{mode}/{kind}/{distinguisher}/{adversary}"
            for protocol in PROTOCOLS
            for mode in PROTOCOLS[protocol].modes
            for kind in GameKind
            for distinguisher in DISTINGUISHERS
            for adversary in AdvModel
        ]
        assert sorted(keys) == sorted(GAME_PINS)

    @pytest.mark.parametrize("key", sorted(GAME_PINS))
    def test_game_bytes_pinned(self, key):
        try:
            result = run_game(_pinned_game(key))
        except Exception as exc:
            got = type(exc).__name__
        else:
            got = hashlib.sha256("\n".join(result.report_lines()).encode()).hexdigest()
        assert got == GAME_PINS[key]
