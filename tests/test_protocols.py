"""End-to-end tests of the seven protocol models.

Honest scripted runs must come out sound and sorted, stay incomplete when
the journey includes a bare transit waypoint, and be authorized whenever
the scheme registers paths.  The adversarial cases mirror each scheme's
documented weakness or rejection behavior.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import weakref

import pytest

from pathtrace import crypto
from pathtrace.network import STRATEGIES, AdvModel, CapabilityError, TagCapacityError, read_snapshot
from pathtrace import trace as tr
from pathtrace.protocols import (
    DEFAULT_TAG_CAPACITY,
    PROTOCOLS,
    RunConfig,
    VerifierPolicyError,
    build_run,
    finalize,
    play,
    run_protocol,
)
from pathtrace.protocols import base as base_mod
from pathtrace.protocols import checker as checker_mod
from pathtrace.protocols import rfchain as rfchain_mod
from pathtrace.protocols import tracker as tracker_mod
from pathtrace.protocols.base import SetupError
from pathtrace.protocols.resc import SLOT_BITS, Resc, storage_bits
from pathtrace.protocols.stepauth import secret_size_bits
from pathtrace.scenario import corpus_dir, run_scenario
from pathtrace.trace import AttackLabel, classify_claim

import pins
from pins import MULTI_TAG_RUNS, honest_config, multi_tag_config, with_manager

ALL_PROTOCOLS = ["tracker", "checker", "stepauth", "rfchain", "ray", "resc", "burbridge"]


class TestModes:
    @pytest.mark.parametrize(
        "protocol,modes",
        [
            ("tracker", ("default",)),
            ("ray", ("default", "prf")),
            ("rfchain", ("default", "patched")),
            ("burbridge", ("default", "per_tag")),
        ],
    )
    def test_declared_modes_build_and_others_are_refused(self, protocol, modes):
        for mode in modes:
            cfg = honest_config(protocol)
            cfg.mode = mode
            build_run(cfg)
        cfg = honest_config(protocol)
        cfg.mode = "bogus"
        with pytest.raises(ValueError) as err:
            build_run(cfg)
        assert str(err.value) == (
            f"{protocol} does not know mode bogus; its modes are {', '.join(modes)}"
        )


class TestParamKeys:
    @pytest.mark.parametrize(
        "protocol,key,message",
        [
            ("ray", "co", "ray does not know param co; its params are none"),
            ("burbridge", "scc", "burbridge does not know param scc; its params are none"),
            ("resc", "db", "resc does not know param db; its params are none"),
            ("rfchain", "verifier", "rfchain does not know param verifier; its params are none"),
            ("checker", "group", "checker does not know param group; its params are none"),
            ("tracker", "group", "tracker does not know param group; its params are manager, equal"),
        ],
    )
    def test_unread_key_refused(self, protocol, key, message):
        cfg = honest_config(protocol)
        cfg.params[key] = "x"
        with pytest.raises(ValueError) as err:
            build_run(cfg)
        assert str(err.value) == message


class TestBuildRunRefusals:
    def test_unknown_protocol_refused(self):
        cfg = honest_config("ray")
        cfg.protocol = "nosuch"
        with pytest.raises(ValueError, match="^unknown protocol: nosuch$"):
            build_run(cfg)

    def test_unknown_strategy_refused_before_the_run_is_built(self, monkeypatch):
        monkeypatch.setattr(base_mod, "Run", lambda config: pytest.fail("Run built"))
        cfg = honest_config("ray")
        cfg.strategy = "nosuch"
        with pytest.raises(ValueError, match="^unknown strategy: nosuch$"):
            build_run(cfg)


class TestDuplicateTags:
    def test_tag_named_twice_refused(self):
        # once set up, RF-Chain would hand t1's identity to the backend twice
        cfg = RunConfig(protocol="rfchain", readers=[("r1", None)], tags=["t1", "t1"])
        with pytest.raises(ValueError, match="^tag t1 is declared twice$"):
            build_run(cfg)

    @pytest.mark.parametrize(
        "protocol,field,value,message",
        [
            ("tracker", "tags", ["t1", "r2"], "reader r2 is declared twice"),
            ("checker", "transits", ["t1"], "transit t1 is declared twice"),
            ("tracker", "transits", ["w", "r1"], "transit r1 is declared twice"),
            ("ray", "tags", ["t1", "co"], "tag co is the fixed verifier of ray"),
            ("burbridge", "readers", [("scc", None)], "reader scc is the fixed verifier of burbridge"),
            ("resc", "transits", ["db"], "transit db is the fixed verifier of resc"),
        ],
    )
    def test_token_naming_two_parties_refused(self, protocol, field, value, message):
        # the network routes by bare token: a message to either party would
        # reach the other's handler
        cfg = honest_config(protocol)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_run(cfg)


class TestCompromisableReaders:
    """Under AdvR every configured reader that holds a secret surrenders
    exactly ``reader_secrets``; Tracker's manager, which holds no
    coefficient, and a bare transit reader have nothing registered."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_build_run_registers_reader_secrets(self, protocol):
        cfg = honest_config(protocol)
        cfg.adversary = AdvModel.ADV_R
        model, run = build_run(cfg)
        manager = cfg.params.get("manager")
        holders = [token for token, _ in cfg.readers if token != manager]
        for token in holders:
            assert run.net.compromise(token) == model.reader_secrets(token)
        assert run.net.compromised == holders
        for token in ["w"] + ([manager] if manager else []):
            with pytest.raises(
                CapabilityError, match=f"^no compromisable secrets registered for {token}$"
            ):
                run.net.compromise(token)


class TestWorldLifetime:
    """The network holds its model weakly, so a finished world is freed by
    reference counting alone, without the cyclic collector."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_run_dies_with_the_world(self, protocol):
        cfg = honest_config(protocol)
        cfg.adversary = AdvModel.ADV_R
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model, run = build_run(cfg)
            assert run.net.compromise("r1") == model.reader_secrets("r1")
            play(model, cfg.script)
            result = finalize(model, run)
            alive = weakref.ref(run)
            del model, run
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
        assert result.verdicts[-1].sound


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestDeclarations:
    """The path rule, the fixed claimant and the tag storage each scheme
    declares on its class, as the base applies them."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_foreign_verifier_refused(self, protocol):
        cfg = honest_config(protocol)
        cfg.script[-1] = ("claim", "t1", "ghost")
        with pytest.raises(VerifierPolicyError, match="ghost"):
            run_protocol(cfg)

    @pytest.mark.parametrize("protocol", ["ray", "stepauth", "resc"])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_tag_bits_fits_an_honest_journey_exactly(self, protocol, length):
        readers = [(f"r{i}", None) for i in range(1, length + 1)]
        path = tuple(t for t, _ in readers)
        bits = PROTOCOLS[protocol].tag_bits(length)
        cfg = RunConfig(
            protocol=protocol,
            seed=length,
            readers=readers,
            tags=["t1"],
            valid_paths=[("t1", path)],
            script=[("move", "t1", t) for t in path] + [("claim", "t1")],
            capacities={"t1": bits},
        )
        result = run_protocol(cfg)
        assert not result.stalled
        assert result.verdicts and all(v.sound and v.sorted for v in result.verdicts)
        cfg.capacities = {"t1": bits - 1}
        with pytest.raises(TagCapacityError):
            run_protocol(cfg)

    def test_default_tag_bits(self):
        for protocol in ("tracker", "checker", "burbridge"):
            assert PROTOCOLS[protocol].tag_bits(9) == DEFAULT_TAG_CAPACITY
        assert PROTOCOLS["rfchain"].tag_bits(9) == 1024

    def test_rfchain_registers_no_given_path(self):
        cfg = honest_config("rfchain")
        cfg.valid_paths = [("t1", ("r1", "r2", "r3"))]
        result = run_protocol(cfg)
        assert not any(isinstance(e, tr.ValidPath) for e in result.trace)
        assert result.verdicts and not any(v.authorized for v in result.verdicts)
        assert result.report_lines() == run_protocol(honest_config("rfchain")).report_lines()

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_path_of_an_undeclared_tag_ignored(self, protocol):
        cfg = honest_config(protocol)
        cfg.valid_paths = [("t9", ("r1", "r2")), *cfg.valid_paths, ("t9", ("r2",))]
        result = run_protocol(cfg)
        assert all(e.tag == tr.tag("t1") for e in result.trace)
        assert result.report_lines() == run_protocol(honest_config(protocol)).report_lines()

    @pytest.mark.parametrize(
        "protocol,paths,message",
        [
            ("ray", [], "ray needs exactly one registered path for t1"),
            ("stepauth", [("r1",), ("r2",)], "stepauth needs exactly one registered path for t1"),
            ("resc", [], "resc needs exactly one registered path for t1"),
            ("burbridge", [], "burbridge needs at least one registered path for t1"),
        ],
    )
    def test_path_rule_refused(self, protocol, paths, message):
        cfg = honest_config(protocol)
        cfg.valid_paths = [("t1", p) for p in paths]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_run(cfg)

    def test_registration_walks_valid_paths_once(self):
        tags = [f"t{i}" for i in range(2000)]
        valid = CountingList((t, ("r1", "r2")) for t in tags)
        cfg = RunConfig(
            protocol="burbridge",
            readers=[("r1", None), ("r2", None)],
            tags=tags,
            valid_paths=valid,
        )
        model, run = build_run(cfg)
        assert valid.iterations == 1
        assert len(model.paths_of) == 2000
        assert sum(isinstance(e, tr.ValidPath) for e in run.trace) == 2000

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_a_readers_participant_takes_no_part(self, protocol):
        plain = run_protocol(honest_config(protocol))
        cfg = honest_config(protocol)
        cfg.readers = [(token, f"p-{token}") for token, _ in cfg.readers]
        assert run_protocol(cfg).report_lines() == plain.report_lines()

    @pytest.mark.parametrize(
        "step,token", [(("move", "t1", "zz"), "zz"), (("move", "tz", "r1"), "tz")], ids=["reader", "tag"]
    )
    def test_a_move_naming_an_undeclared_token_raises_key_error(self, step, token):
        model, run = build_run(RunConfig.along("ray", {"t1": ("r1", "r2")}))
        before = run.trace.events
        with pytest.raises(KeyError, match=token):
            play(model, [step])
        assert run.trace.events == before

    def test_a_claim_through_an_undeclared_reader_raises_key_error(self):
        model, run = build_run(RunConfig.along("ray", {"t1": ("r1", "r2")}))
        with pytest.raises(KeyError, match="zz"):
            model.emit_claim("t1", ("r1", "zz"), model.verifier)
        assert not list(run.trace.claims())

    def test_a_path_through_an_undeclared_reader_raises_key_error(self):
        cfg = RunConfig(
            protocol="burbridge",
            readers=[("r1", None), ("r2", None)],
            tags=["t1"],
            valid_paths=[("t1", ("r1", "zz"))],
        )
        with pytest.raises(KeyError, match="zz"):
            build_run(cfg)


class TestHonestRuns:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_sound_and_sorted(self, protocol):
        for seed in (1, 2, 3):
            res = run_protocol(honest_config(protocol, seed))
            assert not res.stalled
            assert res.verdicts, f"{protocol} made no claim"
            for v in res.verdicts:
                assert v.sound and v.sorted, (protocol, seed, v)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_transit_keeps_claims_incomplete(self, protocol):
        res = run_protocol(honest_config(protocol))
        assert not res.verdicts[-1].complete
        assert not all(v.complete for v in res.verdicts)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_authorization(self, protocol):
        res = run_protocol(honest_config(protocol))
        if protocol == "rfchain":  # registers no paths at all
            assert not any(v.authorized for v in res.verdicts)
        else:
            assert all(v.authorized for v in res.verdicts)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_honest_claims_classify_clean_without_transit(self, protocol):
        cfg = honest_config(protocol)
        cfg.transits = []
        cfg.script = [s for s in cfg.script if s[:3] != ("move", "t1", "w")]
        res = run_protocol(cfg)
        for idx, _ in res.trace.claims():
            labels = classify_claim(res.trace, idx)
            if protocol == "rfchain":
                assert labels == {AttackLabel.UNAUTHORIZED_PATH}
            else:
                assert labels == frozenset(), (protocol, labels)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_transit_waypoint_reads_as_reroute(self, protocol):
        # the taxonomy cannot tell a benign waypoint from a detour: any
        # visited reader outside every registered path flags a reroute
        res = run_protocol(honest_config(protocol))
        idx = list(res.trace.claims())[-1][0]
        assert AttackLabel.REROUTE in classify_claim(res.trace, idx)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_same_seed_reports_identical(self, protocol):
        first = run_protocol(honest_config(protocol, seed=11))
        second = run_protocol(honest_config(protocol, seed=11))
        assert first.report_lines() == second.report_lines()

    @pytest.mark.parametrize("protocol,mode", MULTI_TAG_RUNS)
    def test_multi_tag_run_judges_every_claim(self, protocol, mode):
        res = run_protocol(multi_tag_config(protocol, mode))
        assert not res.stalled
        assert len(res.verdicts) == {"checker": 12, "stepauth": 6}.get(protocol, 3)


class TestNamedStrategies:
    """Each name in ``STRATEGIES`` decides every untrusted message of every
    scheme's honest run, and trusted links bypass it."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_strategy_decides_each_untrusted_message(self, protocol, strategy):
        cfg = honest_config(protocol)
        cfg.strategy = strategy
        _, run = build_run(cfg)
        assert run.net.strategy is STRATEGIES[strategy]
        res = run_protocol(cfg)
        assert f"strategy={strategy}" in res.report_lines()
        for m in res.log:
            if m.action == "trusted":
                continue
            dropped = strategy == "drop_all" or (strategy == "drop_to_tags" and m.receiver in cfg.tags)
            assert m.action == ("dropped" if dropped else "delivered"), (m, strategy)
        # every scheme needs each of its messages, so any drop stalls the run
        assert res.stalled == (strategy != "null")


BUILDER_PATHS = {"t1": ("r1", "r2", "r3"), "t2": ("r4", "r2")}
BUILDER_SCRIPT = [
    ("move", "t1", "r1"),
    ("move", "t2", "r4"),
    ("move", "t1", "r2"),
    ("move", "t2", "r2"),
    ("move", "t1", "r3"),
    ("claim", "t1"),
    ("claim", "t2"),
]


def honest_world(protocol: str, paths) -> RunConfig:
    """``RunConfig.along``, with Tracker's manager on no path."""
    return with_manager(RunConfig.along(protocol, paths))


# (protocol, visits) whose own snapshot exceeds tag_bits(3), with its bits
OWN_SNAPSHOT_REFUSED = {
    ("burbridge", 0): 608,
    **{("burbridge", n): 600 for n in (1, 2, 3)},
    **{("ray", n): 864 for n in range(4)},
    ("stepauth", 0): 4088,
    ("rfchain", 2): 1152,
    ("rfchain", 3): 1576,
}


class TestWorldBuilder:
    @pytest.mark.parametrize("protocol", ["tracker", "checker", "stepauth", "ray", "resc"])
    def test_transit_on_a_registered_path_is_a_setup_error(self, protocol):
        # these schemes key each reader of a path, and a transit holds no key
        cfg = RunConfig.along(
            protocol, {"t1": ("r1", "x1", "r2")}, ["r1", "r2", "m"], transits=["x1"]
        )
        fragment = f"{protocol} reader x1 on a registered path of t1 is not a protocol reader"
        with pytest.raises(SetupError, match=fragment):
            build_run(cfg)

    @pytest.mark.parametrize("protocol", ["burbridge", "rfchain"])
    def test_transit_on_a_registered_path_builds_without_path_keys(self, protocol):
        # no precondition refuses the world; the run itself decides
        cfg = RunConfig.along(protocol, {"t1": ("r1", "x1", "r2")}, ["r1", "r2"], transits=["x1"])
        model, run = build_run(cfg)
        play(model, [("move", "t1", "r1"), ("move", "t1", "x1"), ("move", "t1", "r2"), ("claim", "t1")])
        assert len(finalize(model, run).step_log) == 4

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_honest_play_claims_as_expected(self, protocol):
        model, run = build_run(honest_world(protocol, BUILDER_PATHS))
        play(model, BUILDER_SCRIPT)
        res = finalize(model, run)
        assert not res.stalled and not res.anomalies
        # Checker claims each prefix on arrival, StepAuth each finished
        # journey; then every scheme claims once per claim step
        expected = {"checker": 5 + 2, "stepauth": 2 + 2}.get(protocol, 2)
        assert len(res.verdicts) == expected
        for v in res.verdicts:
            assert v.sound and v.complete and v.sorted
            assert v.authorized is (protocol != "rfchain")

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_tags_sized_for_the_longest_path(self, protocol):
        cfg = RunConfig.along(protocol, BUILDER_PATHS, seed=4)
        assert cfg.tags == ["t1", "t2"] and cfg.seed == 4
        assert cfg.readers == [("r1", None), ("r2", None), ("r3", None), ("r4", None)]
        assert cfg.valid_paths == list(BUILDER_PATHS.items())
        bits = PROTOCOLS[protocol].tag_bits(3)
        assert [cfg.capacity_for(t) for t in cfg.tags] == [bits, bits]

    def test_readers_in_first_visit_order(self):
        cfg = RunConfig.along("ray", {"t1": ("r3", "r1"), "t2": ("r2", "r3", "r4")})
        assert [t for t, _ in cfg.readers] == ["r3", "r1", "r2", "r4"]
        cfg = RunConfig.along("ray", {"t1": ("r3", "r1")}, ["r1", "r2", "r3"])
        assert [t for t, _ in cfg.readers] == ["r1", "r2", "r3"]

    def test_rfchain_registers_no_path(self):
        model, run = build_run(RunConfig.along("rfchain", BUILDER_PATHS))
        assert not any(isinstance(e, tr.ValidPath) for e in run.trace)

    def test_play_refuses_an_unknown_step(self):
        model, _ = build_run(honest_world("ray", BUILDER_PATHS))
        with pytest.raises(ValueError, match="unknown script step"):
            play(model, [("move", "t1", "r1"), ("teleport", "t1", "r3")])

    @pytest.mark.parametrize("visits", range(4))
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_clone_write_of_own_snapshot(self, protocol, visits):
        # a tag's own image, written back after 0-3 visits of r1 r2 r3, fits
        # exactly when its field values fit the scheme's tag_bits(3); the
        # refused cases carry their snapshot's bits
        model, run = build_run(honest_world(protocol, {"t1": ("r1", "r2", "r3")}))
        play(model, [("move", "t1", r) for r in ("r1", "r2", "r3")[:visits]])
        snapshot = run.net.read_tag("t1")
        bits = OWN_SNAPSHOT_REFUSED.get((protocol, visits))
        if bits is not None:
            with pytest.raises(TagCapacityError, match=f"^{bits} bits exceed"):
                run.net.write_tag("t1", snapshot)
        else:
            run.net.write_tag("t1", snapshot)
            assert run.memory("t1").snapshot() == snapshot


def truncating(sender: str, receiver: str):
    """Strategy that cuts the last byte off every sender->receiver message."""

    def strategy(env, net):
        if (env.sender, env.receiver) == (sender, receiver):
            return env.payload[:-1]
        return env.payload

    return strategy


class TestMalformedPathState:
    """The shared ElGamal tag state of Tracker and Checker rejects a
    corrupted state (tag->reader) or update (reader->tag) and says which."""

    @pytest.mark.parametrize(
        "protocol,sender,receiver,anomaly",
        [
            ("tracker", "t1", "r2", "tracker r2 got malformed state from t1"),
            ("tracker", "r2", "t1", "tracker t1 got malformed update from r2"),
            ("checker", "t1", "r2", "checker r2 got malformed state from t1"),
            ("checker", "r2", "t1", "checker t1 got malformed update from r2"),
        ],
    )
    def test_visit_stalls(self, protocol, sender, receiver, anomaly):
        model, run = build_run(honest_config(protocol))
        model.visit("t1", "r1")
        run.net.strategy = truncating(sender, receiver)
        model.visit("t1", "r2")
        res = finalize(model, run)
        assert res.stalled
        assert res.anomalies == [anomaly]
        assert res.step_log[-1] == "visit t1 r2 failed"

    @pytest.mark.parametrize(
        "protocol,verifier,anomaly",
        [
            ("tracker", "m", "tracker manager got malformed state"),
            ("checker", "r3", "checker r3 got malformed state from t1"),
        ],
    )
    def test_claim_rejected(self, protocol, verifier, anomaly):
        model, run = build_run(honest_config(protocol))
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        claims_before = len(list(run.trace.claims()))
        run.net.strategy = truncating("t1", verifier)
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == [anomaly]
        assert res.step_log[-1] == "claim t1 rejected"
        assert len(res.verdicts) == claims_before


    @pytest.mark.parametrize("protocol", ["tracker", "checker"])
    @pytest.mark.parametrize("field", ["c1", "c2"])
    def test_zero_component_stalls(self, protocol, field):
        # 0 is no group element: decrypting it would invert 0 mod p
        model, run = build_run(honest_config(protocol))
        model.visit("t1", "r1")
        run.memory("t1").store(field, crypto.int_to_bytes(0) + crypto.int_to_bytes(5))
        model.visit("t1", "r2")
        res = finalize(model, run)
        assert res.stalled
        assert res.anomalies == [f"{protocol} r2 got malformed state from t1"]
        assert res.step_log[-1] == "visit t1 r2 failed"


def mutant(kind, payload, rng):
    """One malformed stand-in for ``payload``."""
    if kind == "empty":
        return b""
    if kind == "ff":
        return b"\xff"
    if kind == "random":
        return rng.randbytes(len(payload))
    if kind == "truncated":
        return payload[:-1]
    if kind == "appended":
        return payload + b"\x00"
    return bytes([payload[0] ^ 0xFF]) + payload[1:] if payload else payload  # "flipped"


def replacing(target, kind, rng):
    """Strategy that replaces the ``target``-th untrusted message (from 0)
    by its ``kind`` mutant and delivers every other one."""
    seen = itertools.count()

    def strategy(env, net):
        return mutant(kind, env.payload, rng) if next(seen) == target else env.payload

    return strategy


def run_script(model, run, script):
    play(model, script)
    return finalize(model, run)


class TestAdversarialInput:
    """Bytes a scheme did not make are refused, never a traceback: a
    malformed message anywhere in a run, and a tag memory the adversary
    rewrote to another layout."""

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize(
        "kind", ["empty", "ff", "random", "truncated", "appended", "flipped"]
    )
    def test_each_message_replaced(self, protocol, kind):
        honest = run_protocol(honest_config(protocol))
        untrusted = sum(m.action == "delivered" for m in honest.log)
        assert untrusted >= 6
        for target in range(untrusted):
            cfg = honest_config(protocol)
            model, run = build_run(cfg)
            run.net.strategy = replacing(target, kind, random.Random(target))
            res = run_script(model, run, cfg.script)
            assert [m.action for m in res.log].count("modified") == 1, target

    # what refuses the visit after the rewrite: the layout each scheme reads
    # first, now empty or b"\xff"
    REFUSAL = {
        "tracker": "tracker r2 got malformed state from t1",
        "checker": "checker r2 got malformed state from t1",
        "stepauth": "stepauth r2 rejects t1: bad issuer signature",
        "rfchain": "rfchain r2 rejects t1: chain signature invalid",
        "ray": "ray t1 refused the challenge of r2",
        "resc": "resc t1 refused the deposit of r2 for slot 0",
        "burbridge": "burbridge r2: document of t1 does not vouch for r1",
    }

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("kind", ["junk", "foreign", "own-ff"])
    def test_rewritten_tag_stalls_the_next_visit(self, protocol, kind):
        cfg = honest_config(protocol)
        model, run = build_run(cfg)
        model.visit("t1", "r1")
        names = run.memory("t1").names()
        blob = {
            "junk": bytes(range(255, 239, -1)),
            "foreign": crypto.concat_length_prefixed(b"alien", b"\x01", b"other", b"\x02"),
            "own-ff": crypto.concat_length_prefixed(
                *(part for name in names for part in (name.encode(), b"\xff"))
            ),
        }[kind]
        run.net.write_tag("t1", blob)
        model.visit("t1", "r2")
        res = run_script(model, run, [("claim", "t1")])
        assert res.stalled
        assert res.step_log == ["visit t1 r1 ok", "visit t1 r2 failed", "claim t1 rejected"]
        refusal = self.REFUSAL[protocol]
        if (protocol, kind) == ("resc", "own-ff"):
            refusal = "resc r2: t1 has no open slot"  # the pointer reads as slot 255
        assert res.anomalies[0] == refusal
        assert len(res.anomalies) == 2  # and the claim is refused with its own


def reference_read_state(model, blob):
    """The path-polynomial state parse as a split of the length-prefixed
    fields: one 16-byte field per name in STATE, components in 1..p-1."""
    try:
        parts = crypto.split_length_prefixed(blob)
    except crypto.CryptoError:
        return None
    if len(parts) != len(model.STATE) or any(len(part) != 16 for part in parts):
        return None
    state = tuple(
        crypto.Ciphertext(model.params, crypto.bytes_to_int(part[:8]), crypto.bytes_to_int(part[8:]))
        for part in parts
    )
    if not all(0 < v < model.params.p for ct in state for v in (ct.c1, ct.c2)):
        return None
    return state


def state_mutants(blob, p, rng):
    """(kind, blob): seeded mutants of an honest path-polynomial state."""
    width = 20  # a length prefix and two 8-byte components
    fields = len(blob) // width
    for _ in range(40):
        yield "truncated", blob[: rng.randrange(len(blob))]
        yield "extended", blob + rng.randbytes(rng.randrange(1, 30))
        at = rng.randrange(fields) * width
        prefix = rng.choice([0, 8, 15, 17, 20, 36, rng.randrange(2**32)])
        yield "wrong-prefix", blob[:at] + prefix.to_bytes(4, "big") + blob[at + 4 :]
        extra = crypto.concat_length_prefixed(rng.randbytes(rng.choice([0, 8, 16, 24])))
        yield "extra-field", blob + extra
        at = rng.randrange(2 * fields)
        start = at // 2 * width + 4 + at % 2 * 8
        for value in (0, p, p + rng.randrange(1, 2**20), 2**64 - 1):
            yield "bad-component", blob[:start] + value.to_bytes(8, "big") + blob[start + 8 :]


def pow_spy(calls):
    """The builtin pow, recording the arguments of every call in ``calls``."""

    def spy(*args):
        calls.append(args)
        return pow(*args)

    return spy


class TestPathPolyState:
    """The in-place parse and the fold of the shared Tracker/Checker
    state."""

    @pytest.mark.parametrize("protocol", ["tracker", "checker"])
    def test_read_state_agrees_with_split_on_mutants(self, protocol):
        model, run = build_run(honest_config(protocol))
        model.visit("t1", "r1")
        blob = model._state_blob("t1")
        assert model._read_state(blob) == reference_read_state(model, blob) is not None
        rng = random.Random(41)
        refused = set()
        for kind, mutant in state_mutants(blob, model.params.p, rng):
            parsed = model._read_state(mutant)
            assert parsed == reference_read_state(model, mutant), (kind, mutant.hex())
            if parsed is None:
                refused.add(kind)
        assert refused == {"truncated", "extended", "wrong-prefix", "extra-field", "bad-component"}

    @pytest.mark.parametrize("protocol", ["tracker", "checker"])
    def test_fold_makes_no_builtin_pow_call(self, protocol, monkeypatch):
        model, run = build_run(honest_config(protocol))
        model.visit("t1", "r1")  # r1 writes a state the model knows the logs of
        calls = []
        monkeypatch.setattr(crypto, "pow", pow_spy(calls), raising=False)
        assert model._reader_step("t1", "r2") is not None
        assert calls == []


def forget_states(monkeypatch):
    """Switch remembering off: the model keeps no state it wrote, so every
    state a reader receives takes the generic path."""
    monkeypatch.setattr(tracker_mod.PathPolyModel, "_remember", lambda self, tag, state: None)


def counting(monkeypatch, name):
    """Count the calls of ``crypto.<name>`` (the generic path's primitives)."""
    calls = []
    original = getattr(crypto, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(crypto, name, spy)
    return calls


class TestKnownStates:
    """A state the model wrote is folded, rerandomized and decrypted from
    its components' logs; any other state through the group operations.
    Both paths give the same bytes."""

    @pytest.mark.parametrize("protocol", ["tracker", "checker"])
    def test_logs_give_the_elements_of_the_generic_operations(self, protocol):
        model, run = build_run(honest_config(protocol))
        params, gpow = model.params, crypto.gpow
        x0, coeff = model.x0, model.coeffs["r1"]
        rng = random.Random(5)
        for _ in range(50):
            l1, l2, m1, m2, e = (rng.randrange(params.q) for _ in range(5))
            acc = crypto.Ciphertext(params, gpow(params, l1), gpow(params, l2))
            base = crypto.Ciphertext(params, gpow(params, m1), gpow(params, m2))
            # the fold
            folded = crypto.hom_mul(crypto.ct_pow(acc, x0), crypto.ct_pow(base, coeff))
            assert (folded.c1, folded.c2) == (
                gpow(params, x0 * l1 + coeff * m1),
                gpow(params, x0 * l2 + coeff * m2),
            )
            # a rerandomization, then an encryption, with the same draws
            seed = rng.random()
            model.rng = random.Random(seed)
            logs = model._rerandomized([l1, l2, 0, e])
            draws = random.Random(seed)
            again = crypto.rerandomize(model.pub, acc, draws)
            sealed = crypto.elg_encrypt(model.pub, gpow(params, e), draws)
            assert [again.c1, again.c2, sealed.c1, sealed.c2] == [gpow(params, log) for log in logs]
            assert model.rng.random() == draws.random()
            # the decryption
            known = tracker_mod.KnownState(b"", tuple(logs))
            assert list(model._plaintexts(known)) == [
                crypto.elg_decrypt(model.priv, again), gpow(params, e)
            ]

    @pytest.mark.parametrize(
        "name",
        sorted(p.stem for p in corpus_dir().glob("*.scn") if p.stem.startswith(("tracker-", "checker-"))),
    )
    def test_corpus_report_is_the_same_without_remembering(self, name, monkeypatch):
        path = corpus_dir() / f"{name}.scn"
        generic = counting(monkeypatch, "hom_mul")
        remembered = run_scenario(path).report_lines()
        assert generic == []  # every state in the corpus is one its model wrote
        forget_states(monkeypatch)
        assert run_scenario(path).report_lines() == remembered
        assert generic

    # (protocol, kind) -> the anomalies of the run; the same on both paths
    FOREIGN = {
        ("tracker", "modified"): ["tracker manager rejects t1: unknown path evaluation"],
        ("tracker", "cloned"): ["tracker manager cannot identify t2"],
        ("tracker", "tests-built"): [],
        ("checker", "modified"): [
            "checker r2 rejects t1: no prefix key matches",
            "checker r3 rejects t1: no prefix key matches",
            "checker r3 rejects t1: no prefix key matches",
        ],
        ("checker", "cloned"): [],  # t2 is claimed on t1's prefixes
        ("checker", "tests-built"): [],
    }

    @pytest.mark.parametrize("protocol", ["tracker", "checker"])
    @pytest.mark.parametrize("kind", ["modified", "cloned", "tests-built"])
    def test_a_state_the_model_did_not_write_takes_the_generic_path(
        self, protocol, kind, monkeypatch
    ):
        folds = counting(monkeypatch, "hom_mul")
        res = pins.foreign_run(protocol, kind)
        assert len(folds) == 2  # at r2 and at r3: what r2 wrote came from a generic fold
        assert res.anomalies == self.FOREIGN[protocol, kind]
        forget_states(monkeypatch)
        assert pins.foreign_run(protocol, kind).report_lines() == res.report_lines()

    def test_known_state_tracker_claim_makes_no_builtin_pow_call(self, monkeypatch):
        model, run = build_run(honest_config("tracker"))
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        calls = []
        monkeypatch.setattr(crypto, "pow", pow_spy(calls), raising=False)
        model.claim("t1")
        res = finalize(model, run)
        assert res.step_log[-1] == "claim t1 ok" and not res.anomalies
        assert calls == []

    def test_known_state_checker_on_site_check_makes_no_builtin_pow_call(self, monkeypatch):
        model, run = build_run(honest_config("checker"))
        model.visit("t1", "r1")
        calls = []
        monkeypatch.setattr(crypto, "pow", pow_spy(calls), raising=False)
        monkeypatch.setattr(checker_mod, "pow", pow_spy(calls), raising=False)
        model.claim("t1")  # presented to r1, where the tag stands
        assert model._check_on_site("t1", "r1", model._known["t1"])
        res = finalize(model, run)
        assert res.step_log[-1] == "claim t1 ok" and not res.anomalies
        assert [c.path for c in res.claims()] == [("r1",)] * 3
        assert calls == []

    def test_each_tag_keeps_one_remembered_state(self):
        model, run = build_run(multi_tag_config("checker"))
        play(model, run.config.script)
        assert sorted(model._known) == sorted(pins.MULTI_PATHS)
        for tag_token, known in model._known.items():
            assert known.blob == model._state_blob(tag_token)

class TestTracker:
    def test_manager_only_verifies(self):
        cfg = honest_config("tracker")
        cfg.script[-1] = ("claim", "t1", "r1")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)

    def test_out_of_order_yields_no_claim(self):
        cfg = honest_config("tracker")
        cfg.script = [
            ("move", "t1", "r2"),
            ("move", "t1", "r1"),
            ("move", "t1", "r3"),
            ("claim", "t1"),
        ]
        res = run_protocol(cfg)
        # the polynomial evaluation matches no registered path, and the
        # manager cannot tell which path was actually taken
        assert not res.verdicts
        assert any("unknown path evaluation" in a for a in res.anomalies)

    def test_equal_coefficients_accept_swapped_order(self):
        for seed in range(5):
            cfg = honest_config("tracker", seed)
            cfg.params["equal"] = "r1,r2"
            cfg.script = [
                ("move", "t1", "r2"),
                ("move", "t1", "r1"),
                ("move", "t1", "r3"),
                ("claim", "t1"),
            ]
            res = run_protocol(cfg)
            assert len(res.verdicts) == 1
            v = res.verdicts[0]
            assert v.sound and v.complete and v.authorized and not v.sorted
            idx = next(i for i, _ in res.trace.claims())
            assert AttackLabel.OUT_OF_ORDER in classify_claim(res.trace, idx)

    def test_default_manager_on_a_registered_path_is_a_setup_error(self):
        # with no param manager the last reader manages; on t1's path it
        # would need the path coefficient a manager does not hold
        with pytest.raises(SetupError, match="tracker reader r3 on a registered path of t1 is the manager"):
            build_run(RunConfig.along("tracker", {"t1": ("r1", "r2", "r3")}))
        assert issubclass(SetupError, ValueError)

    @pytest.mark.parametrize(
        "readers,transits,params,token",
        [
            (["r1", "r2", "r3", "m"], [], {"manager": "r2"}, "r2 on a registered path of t1 is the manager"),
            (["r1", "r3", "m"], ["r2"], {}, "r2 on a registered path of t1 is not a protocol reader"),
        ],
    )
    def test_every_path_reader_must_hold_a_coefficient(self, readers, transits, params, token):
        cfg = RunConfig.along(
            "tracker", {"t1": ("r1", "r2", "r3")}, readers, transits=transits, params=params
        )
        with pytest.raises(SetupError, match="tracker reader " + token):
            build_run(cfg)

    def test_an_undeclared_manager_is_refused(self):
        # the parser refuses it at its param line; build_run refuses it too
        script = [("move", "t1", "r1"), ("move", "t1", "r2"), ("claim", "t1")]
        cfg = RunConfig.along("tracker", {"t1": ("r1", "r2")}, params={"manager": "m"}, script=script)
        with pytest.raises(ValueError, match="tracker manager m is neither a reader nor a transit"):
            run_protocol(cfg)

    def test_a_spare_last_reader_manages_by_default(self):
        cfg = RunConfig.along("tracker", {"t1": ("r1", "r2", "r3")}, ["r1", "r2", "r3", "m"])
        model, run = build_run(cfg)
        assert model.verifier == "m"
        play(model, [("move", "t1", "r1"), ("move", "t1", "r2"), ("move", "t1", "r3"), ("claim", "t1")])
        res = finalize(model, run)
        assert not res.anomalies and len(res.verdicts) == 1 and res.verdicts[0].authorized

    def test_a_tag_passing_its_manager_keeps_its_state(self):
        # the manager holds no coefficient: a visit leaves the tag as it
        # was, and the claim of the registered path leaves out the visit
        cfg = RunConfig.along(
            "tracker", {"t1": ("r1", "r2")}, ["r1", "r2", "m"], params={"manager": "m"}
        )
        model, run = build_run(cfg)
        model.visit("t1", "r1")
        before = run.memory("t1").snapshot()
        model.visit("t1", "m")
        assert run.memory("t1").snapshot() == before
        play(model, [("move", "t1", "r2"), ("claim", "t1")])
        res = finalize(model, run)
        assert not res.stalled and not res.anomalies
        [verdict] = res.verdicts
        assert verdict.sound and verdict.sorted and verdict.authorized
        assert not verdict.complete

    def test_identity_ciphertext_rerandomized_each_hop(self):
        # c1 always encrypts the same identity element, yet its bytes must
        # change at every reader or the tag would be trivially linkable
        cfg = honest_config("tracker")
        cfg.script = []
        protocol, run = build_run(cfg)
        seen = {run.memory("t1").load("c1")}
        for reader in ("r1", "r2", "r3"):
            protocol.visit("t1", reader)
            seen.add(run.memory("t1").load("c1"))
        assert len(seen) == 4

    def test_state_with_another_tags_mac_refused(self):
        # t1 keeps its own identity ciphertext c1 but carries t2's mac and
        # path ciphertexts c2, c3: the manager sees a foreign mac
        cfg = RunConfig.along(
            "tracker", {"t1": ("r1", "r2"), "t2": ("r1", "r2")},
            readers=["r1", "r2", "m"], params={"manager": "m"},
        )
        model, run = build_run(cfg)
        play(model, [("move", t, r) for r in ("r1", "r2") for t in ("t1", "t2")])
        own, other = run.memory("t1"), run.memory("t2")
        run.net.write_tag("t1", crypto.concat_length_prefixed(
            b"c1", own.load("c1"), b"c2", other.load("c2"), b"c3", other.load("c3")
        ))
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == ["tracker manager mac check failed for t1"]
        assert res.step_log[-1] == "claim t1 rejected" and not res.verdicts


class TestChecker:
    def test_every_hop_claims_its_prefix(self):
        res = run_protocol(honest_config("checker"))
        paths = [c.path for c in res.claims()]
        assert paths == [
            ("r1",),
            ("r1", "r2"),
            ("r1", "r2", "r3"),
            ("r1", "r2", "r3"),  # scripted claim re-checks at the last reader
        ]

    def test_wrong_first_reader_stalls(self):
        cfg = honest_config("checker")
        cfg.script = [("move", "t1", "r2")]
        res = run_protocol(cfg)
        assert res.stalled
        assert not res.verdicts

    def test_outside_verifier_rejected(self):
        cfg = honest_config("checker")
        cfg.script[-1] = ("claim", "t1", "db")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)


    # A state that is not some tag's own prefix state tries the reader's
    # keys in order; it must decide as the loop over those keys does.

    @staticmethod
    def store_state(run, tag_token, state):
        for name, ct in zip(("c1", "c2"), state):
            run.memory(tag_token).store(name, ct.to_bytes())

    @staticmethod
    def forged_state(model, y, key):
        """(E(g^y), E(g^(y*key))) under the model's public key."""
        rng = random.Random(y)
        return [
            crypto.elg_encrypt(model.pub, crypto.encode_exponent(model.params, e), rng)
            for e in (y, y * key)
        ]

    def test_negated_accumulator_rejected(self):
        # -x lies outside the order-q subgroup, yet (-x)^(h^-1) == x^(h^-1)
        # for an even h^-1, so a lookup by v2^(h^-1) alone would accept it;
        # the relation v1^K == v2 itself refuses it
        params = crypto.DEFAULT_PARAMS
        h = crypto.hash_int(b"idt1", params.q)
        assert pow(h, -1, params.q) % 2 == 0

        def negating(env, net):
            if (env.sender, env.receiver) != ("t1", "r3"):
                return env.payload
            *rest, last = crypto.split_length_prefixed(env.payload)
            c2 = params.p - crypto.bytes_to_int(last[8:])
            return crypto.concat_length_prefixed(*rest, last[:8] + crypto.int_to_bytes(c2))

        model, run = build_run(honest_config("checker"))
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        run.net.strategy = negating
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == ["checker r3 rejects t1: no prefix key matches"]
        assert res.step_log == [
            "visit t1 r1 ok",
            "visit t1 r2 ok",
            "visit t1 r3 ok",
            "claim t1 rejected",
        ]
        assert [c.path for c in res.claims()] == [
            ("r1",),
            ("r1", "r2"),
            ("r1", "r2", "r3"),
        ]

    def test_state_for_no_tag_falls_back_to_every_key(self):
        model, run = build_run(honest_config("checker"))
        y = 12345
        assert y != crypto.hash_int(b"idt1", model.params.q)
        (key,) = [k for prefix, k in model.prefix_keys["r3"] if prefix == ("r1", "r2", "r3")]
        self.store_state(run, "t1", self.forged_state(model, y, key))
        model.claim("t1", "r3")
        res = finalize(model, run)
        assert res.anomalies == []
        assert res.step_log == ["claim t1 ok"]
        assert [c.path for c in res.claims()] == [("r1", "r2", "r3")]

    def test_state_for_no_tag_without_a_key_rejected(self):
        model, run = build_run(honest_config("checker"))
        every_key = {k for bucket in model.prefix_keys.values() for _, k in bucket}
        key = next(k for k in range(1, 100) if k not in every_key)
        self.store_state(run, "t1", self.forged_state(model, 12345, key))
        model.claim("t1", "r3")
        res = finalize(model, run)
        assert res.anomalies == ["checker r3 rejects t1: no prefix key matches"]
        assert res.step_log == ["claim t1 rejected"]
        assert not res.verdicts

    def test_other_tags_state_claims_its_prefix(self):
        # the key test binds the state to a prefix, not to the presenting
        # tag: t2 showing t1's state at r3 is claimed on t1's path
        cfg = honest_config("checker")
        cfg.tags.append("t2")
        cfg.valid_paths.append(("t2", ("r2", "r1")))
        cfg.script = []
        model, run = build_run(cfg)
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        for name in ("c1", "c2"):
            run.memory("t2").store(name, run.memory("t1").load(name))
        model.claim("t2", "r3")
        model.claim("t2", "r1")
        res = finalize(model, run)
        assert res.anomalies == ["checker r1 rejects t2: no prefix key matches"]
        assert res.step_log[-2:] == ["claim t2 ok", "claim t2 rejected"]
        claim = res.claims()[-1]
        assert (claim.tag, claim.path) == ("t2", ("r1", "r2", "r3"))
        assert not res.verdicts[-1].sound

    def test_honest_hop_makes_no_pow_call_of_its_own(self, monkeypatch):
        model, run = build_run(honest_config("checker"))
        calls = []
        monkeypatch.setattr(checker_mod, "pow", pow_spy(calls), raising=False)
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        model.claim("t1")
        res = finalize(model, run)
        assert res.step_log == ["visit t1 r1 ok", "visit t1 r2 ok", "visit t1 r3 ok", "claim t1 ok"]
        assert calls == []

    def test_tag_on_another_tags_path_claims_through_the_fallback(self, monkeypatch):
        # t2 walks t1's path: no own prefix of t2 ends in the state it
        # shows, so each hop tries the reader's keys in order, and t1's
        # prefix is the first key at each reader
        cfg = honest_config("checker")
        cfg.tags.append("t2")
        cfg.valid_paths.append(("t2", ("r2", "r1")))
        cfg.script = []
        model, run = build_run(cfg)
        calls = []
        monkeypatch.setattr(checker_mod, "pow", pow_spy(calls), raising=False)
        for reader in ("r1", "r2", "r3"):
            model.visit("t2", reader)
        res = finalize(model, run)
        assert res.anomalies == []
        assert res.step_log == ["visit t2 r1 ok", "visit t2 r2 ok", "visit t2 r3 ok"]
        assert [(c.tag, c.path) for c in res.claims()] == [
            ("t2", ("r1",)),
            ("t2", ("r1", "r2")),
            ("t2", ("r1", "r2", "r3")),
        ]
        assert len(calls) == 3


def checker_world(seed):
    """A seeded Checker world: five readers and four tags with one or two
    random paths each, t4 sharing t1's first path, plus t5 with none."""
    rng = random.Random(seed)
    readers = [f"r{i}" for i in range(1, 6)]
    valid = [
        (tag, tuple(rng.sample(readers, rng.randrange(1, 5))))
        for tag in ("t1", "t2", "t3")
        for _ in range(rng.randrange(1, 3))
    ]
    valid.append(("t4", valid[0][1]))
    tags = ["t1", "t2", "t3", "t4", "t5"]
    cfg = RunConfig(
        protocol="checker",
        seed=seed,
        readers=[(r, None) for r in readers],
        tags=tags,
        valid_paths=valid,
        capacities={t: 4096 for t in tags},
    )
    return build_run(cfg)


def checker_states(model, run, rng):
    """(kind, state) pairs: each registered tag's states along its first
    path, t5's along t2's path, forged states, and each one negated."""
    states = []

    def walk(tag_token, path, kind):
        for reader in path:
            model.visit(tag_token, reader)
            states.append((kind, model._read_state(model._state_blob(tag_token))))

    for tag_token in ("t1", "t2", "t3", "t4"):
        walk(tag_token, model.paths_of[tag_token][0], "honest")
    walk("t5", model.paths_of["t2"][0], "other-path")
    every_key = [k for bucket in model.prefix_keys.values() for _, k in bucket]
    for key in every_key + [rng.randrange(1, model.params.q) for _ in range(3)]:
        y = rng.randrange(1, model.params.q)
        states.append(("forged", tuple(TestChecker.forged_state(model, y, key))))
    p = model.params.p
    negated = [
        ("negated", (c1, crypto.Ciphertext(model.params, c2.c1, p - c2.c2)))
        for _, (c1, c2) in states
    ]
    return states + negated


class TestCheckerMatch:
    @staticmethod
    def reference_match(model, reader_token, state):
        """The first prefix in the reader's list whose key K has v1^K == v2."""
        v1, v2 = (crypto.elg_decrypt(model.priv, ct) for ct in state)
        p = model.params.p
        bucket = model.prefix_keys[reader_token]
        return next((prefix for prefix, k in bucket if pow(v1, k, p) == v2), None)

    @pytest.mark.parametrize("seed", range(4))
    def test_on_site_claims_the_brute_force_prefix(self, seed):
        model, run = checker_world(seed)
        states = checker_states(model, run, random.Random(seed))
        outcomes = set()
        for kind, state in states:
            for reader_token in model.prefix_keys:
                want = self.reference_match(model, reader_token, state)
                claims_before = len(list(run.trace.claims()))
                ok = model._check_on_site("t1", reader_token, state)
                claims = list(run.trace.claims())
                assert ok == (want is not None), (kind, reader_token)
                assert len(claims) == claims_before + ok
                if ok:
                    claimed = claims[-1][1].path
                    assert claimed == want, (kind, reader_token)
                outcomes.add((kind, want is not None))
        assert {kind for kind, hit in outcomes if hit} == {"honest", "other-path", "forged"}
        assert {kind for kind, hit in outcomes if not hit} == {
            "honest", "other-path", "forged", "negated"
        }


class TestStepAuth:
    def test_secret_size_formula(self):
        expected = {
            1: 1024, 2: 1920, 3: 2816, 4: 3712, 5: 4608,
            6: 5504, 7: 6400, 8: 7296, 9: 8192, 10: 9088,
        }
        for l, bits in expected.items():
            assert secret_size_bits(l) == bits
            assert secret_size_bits(l) == 1024 + 896 * (l - 1)
        with pytest.raises(ValueError):
            secret_size_bits(0)

    @pytest.mark.parametrize("length", range(1, 11))
    def test_secret_fits_exactly(self, length):
        readers = [(f"r{i}", None) for i in range(1, length + 1)]
        path = tuple(t for t, _ in readers)
        cfg = RunConfig(
            protocol="stepauth",
            seed=length,
            readers=readers,
            tags=["t1"],
            valid_paths=[("t1", path)],
            capacities={"t1": secret_size_bits(length)},
        )
        protocol, run = build_run(cfg)
        assert run.memory("t1").used_bits() == secret_size_bits(length)
        cfg_tight = RunConfig(
            protocol="stepauth",
            seed=length,
            readers=readers,
            tags=["t1"],
            valid_paths=[("t1", path)],
            capacities={"t1": secret_size_bits(length) - 1},
        )
        with pytest.raises(TagCapacityError):
            build_run(cfg_tight)

    def test_out_of_order_reader_cannot_peel(self):
        cfg = honest_config("stepauth")
        cfg.script = [("move", "t1", "r1"), ("move", "t1", "r3")]
        res = run_protocol(cfg)
        assert res.stalled
        assert not res.verdicts
        assert any("cannot peel" in a for a in res.anomalies)

    def test_layer_replayed_onto_other_tag_rejected(self):
        cfg = honest_config("stepauth")
        cfg.tags = ["t1", "t2"]
        cfg.valid_paths = [("t1", ("r1", "r2", "r3")), ("t2", ("r1", "r2", "r3"))]
        # room for the grafted raw snapshot, which is bigger than the
        # nominal footprint of the secret it carries
        cfg.capacities = {"t1": 8192, "t2": 8192}
        cfg.script = []
        protocol, run = build_run(cfg)
        # graft t2's secret onto t1 and present it
        run.net.write_tag("t1", run.memory("t2").snapshot())
        protocol.visit("t1", "r1")
        res = finalize(protocol, run)
        assert res.stalled
        assert any("another tag" in a for a in res.anomalies)

    def test_written_terminal_that_is_not_utf8_refused(self):
        model, run = build_run(honest_config("stepauth"))
        model.visit("t1", "r1")
        terminal = crypto.concat_length_prefixed(b"END", b"\xff", b"r1")
        run.net.write_tag("t1", crypto.concat_length_prefixed(b"secret", terminal))
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == ["stepauth checkpoint: t1 has not finished its path"]
        assert res.step_log[-1] == "claim t1 rejected"

    def test_interference_stalls_but_never_forges(self):
        # an active AdvR strategy that kills every radio message can only
        # stop progress; no claim is ever emitted, none is wrong
        for seed in range(5):
            cfg = honest_config("stepauth", seed)
            cfg.adversary = AdvModel.ADV_R
            cfg.strategy = "drop_all"
            res = run_protocol(cfg)
            assert res.stalled
            assert not res.verdicts


    @staticmethod
    def presented_to_r1(make_secret):
        """The run in which t1's secret is replaced by ``make_secret(model)``
        and presented to r1.  No adversary model holds the issuer key, so
        only these unit tests can sign such a secret."""
        model, run = build_run(honest_config("stepauth"))
        run.net.write_tag("t1", crypto.concat_length_prefixed(b"secret", make_secret(model)))
        model.visit("t1", "r1")
        return finalize(model, run)

    def test_issuer_signed_layer_that_is_not_two_fields_is_malformed(self):
        message = crypto.concat_length_prefixed(b"kem", b"body", b"extra")
        res = self.presented_to_r1(lambda model: crypto.sign(model.sign_sk, message).to_bytes())
        assert res.anomalies == ["stepauth r1 rejects t1: malformed layer"]
        assert not res.verdicts

    def test_issuer_signed_terminal_layer_before_the_last_step_refused(self):
        # the issuer's secret for the one-hop path r1 is a layer for r1 at
        # step 1 whose inner blob is the terminal record
        res = self.presented_to_r1(lambda model: model._build_secret("t1", ("r1",)))
        assert res.anomalies == ["stepauth terminal layer at step 1 of 3 for t1"]
        assert not res.verdicts

    @staticmethod
    def first_layer_kem(model, run):
        """The KEM of the outer layer of t1's secret, made for r1."""
        sig = crypto.parse_signature(run.memory("t1").load("secret"))
        return crypto.split_fields(sig.message, 2)[0]

    @pytest.mark.parametrize("flip", [None, 0, 7], ids=["made", "c1-byte-0", "c1-byte-7"])
    def test_layer_for_another_reader_gives_the_generic_result(self, flip, monkeypatch):
        model, run = build_run(honest_config("stepauth"))
        kem = self.first_layer_kem(model, run)
        if flip is not None:
            kem = kem[:flip] + bytes([kem[flip] ^ 1]) + kem[flip + 1 :]
        c1 = crypto.bytes_to_int(kem[:8])
        assert (c1 in model.logs) is (flip is None)
        keys = []
        sym_dec = crypto.sym_dec
        monkeypatch.setattr(
            crypto, "sym_dec", lambda key, blob: keys.append(key) or sym_dec(key, blob)
        )
        calls = []
        monkeypatch.setattr(crypto, "pow", pow_spy(calls), raising=False)
        box = model.box_priv["r2"]
        with pytest.raises(crypto.AuthenticationError):
            crypto.pk_dec(box, kem, model.logs)
        # a known element is raised from its log; any other takes the pow
        assert len(calls) == (flip is not None)
        shared = pow(c1, box.priv.x, crypto.DEFAULT_PARAMS.p)
        assert keys == [crypto.hash_bytes(b"kemr2" + crypto.int_to_bytes(shared))]

    def test_every_peel_verifies_decapsulates_and_decrypts(self, monkeypatch):
        model, run = build_run(honest_config("stepauth"))
        assert len(model.logs) == 3 + 3  # three reader keys and three layers
        calls = []
        monkeypatch.setattr(crypto, "pow", pow_spy(calls), raising=False)
        checks = {name: counting(monkeypatch, name) for name in ("verify", "pk_dec", "sym_dec")}
        play(model, run.config.script)
        res = finalize(model, run)
        assert not res.anomalies and calls == []
        # sym_dec opens each KEM's session key, then each layer's body
        counts = {name: len(c) for name, c in checks.items()}
        assert counts == {"verify": 3, "pk_dec": 3, "sym_dec": 6}


class TestNoBuiltinPow:
    """An honest run raises only the generator, to logs its model knows."""

    @pytest.mark.parametrize("protocol,mode", MULTI_TAG_RUNS)
    def test_honest_run_makes_no_builtin_pow_call(self, protocol, mode, monkeypatch):
        calls = []
        modules = {crypto, *(sys.modules[cls.__module__] for cls in PROTOCOLS.values())}
        for module in modules:
            monkeypatch.setattr(module, "pow", pow_spy(calls), raising=False)
        model, run = build_run(multi_tag_config(protocol, mode))
        play(model, run.config.script)
        lines = finalize(model, run).report_lines()
        assert calls == []
        assert pins.sha256_lines(lines) == pins.manifest()[f"report/{protocol}/{mode}"]


class TestRfChain:
    def test_constant_tag_footprint(self):
        cfg = honest_config("rfchain")
        protocol, run = build_run(cfg)
        start = run.memory("t1").used_bits()
        for step in cfg.script:
            if step[0] == "move":
                protocol.visit(step[1], step[2])
        assert run.memory("t1").used_bits() == start
        assert start == rfchain_mod.ID_BITS + rfchain_mod.CHAIN_BITS

    def test_ledger_collects_one_record_per_step(self):
        cfg = honest_config("rfchain")
        protocol, _ = build_run(cfg)
        for step in cfg.script:
            if step[0] == "move":
                protocol.visit(step[1], step[2])
            else:
                protocol.claim(step[1])
        assert len(protocol.ledger) == 3

    def test_patched_mode_honest_run(self):
        cfg = honest_config("rfchain")
        cfg.mode = "patched"
        res = run_protocol(cfg)
        assert not res.stalled
        assert res.verdicts and res.verdicts[0].sound and res.verdicts[0].sorted

    def test_backend_only_verifies(self):
        cfg = honest_config("rfchain")
        cfg.script[-1] = ("claim", "t1", "r1")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)

    def test_tampered_chain_rejected(self):
        cfg = honest_config("rfchain")
        cfg.script = cfg.script[:-1]
        protocol, run = build_run(cfg)
        for step in cfg.script:
            protocol.visit(step[1], step[2])
        mem = run.memory("t1")
        chain = bytearray(mem.load("chain"))
        chain[-1] ^= 0x01
        mem.store("chain", bytes(chain), nominal_bits=rfchain_mod.CHAIN_BITS)
        protocol.claim("t1")
        res = finalize(protocol, run)
        assert not res.verdicts
        assert res.anomalies

    @staticmethod
    def _visited_run(mode: str, tags=("t1",)):
        """An rfchain run after every tag visited r1, r2, r3, before any claim."""
        cfg = honest_config("rfchain")
        cfg.mode = mode
        cfg.tags = list(tags)
        cfg.capacities = {t: 1024 for t in tags}
        cfg.script = [("move", t, r) for r in ("r1", "r2", "r3") for t in tags]
        protocol, run = build_run(cfg)
        for step in cfg.script:
            protocol.visit(step[1], step[2])
        return protocol, run

    @staticmethod
    def _levels(run, tag_token):
        """(identity, [a_0, a_1, ...]) read back from the tag's chain."""
        mem = run.memory(tag_token)
        levels = [mem.load("chain")]
        while (sig := crypto.parse_signature(levels[0])) is not None:
            levels.insert(0, sig.message)
        return mem.load("id"), levels

    @pytest.mark.parametrize("mode", ["default", "patched"])
    @pytest.mark.parametrize("field", ["pseudo", "payload"])
    def test_tampered_record_is_missing(self, mode, field):
        # step 2's record keeps one half and has the other half tampered
        protocol, run = self._visited_run(mode)
        honest = protocol.ledger.records()
        protocol.ledger = rfchain_mod.SharedLedger()
        for step, (pseudo, payload) in enumerate(honest, start=1):
            if step == 2 and field == "pseudo":
                pseudo = pseudo[:-1] + bytes([pseudo[-1] ^ 0x01])
            elif step == 2:
                payload = payload[:-1] + bytes([payload[-1] ^ 0x01])
            protocol.ledger.add(pseudo, payload)
        protocol.claim("t1")
        res = finalize(protocol, run)
        assert not res.verdicts
        assert res.anomalies == ["rfchain verifier: missing ledger record for step 2 of t1"]

    @pytest.mark.parametrize("mode", ["default", "patched"])
    def test_record_matches_accepts_what_verifier_accepts(self, mode):
        # the verifier finds every honest record of three interleaved tags,
        # and _record_matches accepts each of those records for exactly the
        # (tag, step) that wrote it and rejects every other pairing
        protocol, run = self._visited_run(mode, tags=("t1", "t2", "t3"))
        records = protocol.ledger.records()
        truth = list(protocol.ledger_truth)
        for tag_token in ("t1", "t2", "t3"):
            identity, levels = self._levels(run, tag_token)
            for i in range(1, len(levels)):
                accepted = [
                    n
                    for n, (pseudo, payload) in enumerate(records)
                    if protocol._record_matches(pseudo, payload, identity, i, levels[i - 1])
                ]
                assert accepted == [truth.index((tag_token, i))]
            protocol.claim(tag_token)
        res = finalize(protocol, run)
        assert not res.anomalies
        assert len(res.verdicts) == 3
        assert len(records) == 9

    @staticmethod
    def _patched_run(tags):
        cfg = honest_config("rfchain")
        cfg.mode = "patched"
        cfg.tags = list(tags)
        cfg.capacities = {t: 1024 for t in tags}
        return build_run(cfg)

    def test_patched_ledger_sees_records_added_after_a_claim(self):
        protocol, run = self._patched_run(("t1", "t2"))
        for tag_token, reader_token in (("t1", "r1"), ("t2", "r1"), ("t1", "r2")):
            protocol.visit(tag_token, reader_token)
        protocol.claim("t1")
        for tag_token, reader_token in (("t2", "r2"), ("t1", "r3"), ("t2", "r3")):
            protocol.visit(tag_token, reader_token)
        protocol.claim("t1")
        protocol.claim("t2")
        res = finalize(protocol, run)
        assert not res.anomalies
        assert [s for s in run.step_log if s.startswith("claim")] == [
            "claim t1 ok",
            "claim t1 ok",
            "claim t2 ok",
        ]
        claimed = [(claim.tag, claim.path) for claim in res.claims()]
        assert claimed == [
            ("t1", ("r1", "r2")),
            ("t1", ("r1", "r2", "r3")),
            ("t2", ("r1", "r2", "r3")),
        ]
        assert all(v.sound and v.sorted for v in res.verdicts)

    def test_patched_ledger_skips_a_malformed_payload(self):
        protocol, run = self._patched_run(("t1",))
        protocol.visit("t1", "r1")
        protocol.visit("t1", "r2")
        protocol.ledger.add(b"pseudo", b"\x00\x00\x00\xffshort")
        protocol.visit("t1", "r3")
        protocol.claim("t1")
        res = finalize(protocol, run)
        assert not res.anomalies
        assert len(protocol.ledger) == 4
        assert [claim.path for claim in res.claims()] == [
            ("r1", "r2", "r3")
        ]

    def test_full_check_accepts_what_record_matches_accepts(self):
        # honest records of tags with two identity lengths, plus forged
        # records of a neighbouring shape and a malformed one, on a ledger
        # rebuilt without steps: the verifier's full check finds a step
        # exactly when _record_matches accepts some record for it, for the
        # honest chain level and tampered ones
        tags = ("t1", "t2", "t10")
        protocol, run = self._visited_run("patched", tags=tags)
        honest = protocol.ledger.records()
        pseudo, payload = honest[0]
        salt, body = rfchain_mod.split_salted(payload)
        forged = [
            (pseudo[:-1], payload),
            (pseudo, crypto.concat_length_prefixed(salt, body + b"\x00")),
            (pseudo[:15], payload),
            (pseudo, b"\x00\x00\x00\xffshort"),
        ]
        protocol.ledger = rfchain_mod.SharedLedger()
        for record in honest + forged:
            protocol.ledger.add(*record)
        records = protocol.ledger.records()
        found_all = []
        for tag_token in tags:
            identity, levels = self._levels(run, tag_token)
            for i in range(1, len(levels)):
                tampered = levels[i - 1][:-1] + bytes([levels[i - 1][-1] ^ 0x01])
                for prev_chain in (levels[i - 1], tampered, levels[i - 1] + b"\x00"):
                    found = protocol._on_ledger(identity, i, prev_chain)
                    assert found == any(
                        protocol._record_matches(p, pl, identity, i, prev_chain)
                        for p, pl in records
                    )
                    found_all.append(found)
        assert found_all == [True, False, False] * 9
        for tag_token in tags:
            protocol.claim(tag_token)
        res = finalize(protocol, run)
        assert not res.anomalies and len(res.verdicts) == 3
        assert protocol.ledger.records() == records

    def test_a_tag_claimed_twice_is_verified_both_times(self):
        tags = ("t1", "t2", "t3")
        protocol, run = self._visited_run("patched", tags=tags)
        records = protocol.ledger.records()
        for tag_token in ("t2", "t1", "t2", "t3", "t1", "t1"):
            protocol.claim(tag_token)
        res = finalize(protocol, run)
        assert not res.anomalies
        assert [claim.tag for claim in res.claims()] == ["t2", "t1", "t2", "t3", "t1", "t1"]
        assert all(claim.path == ("r1", "r2", "r3") for claim in res.claims())
        assert all(v.sound and v.sorted for v in res.verdicts)
        # verifying reads the ledger and never changes it
        assert protocol.ledger.records() == records
        assert protocol.ledger_truth == [(t, i) for i in (1, 2, 3) for t in tags]

    @staticmethod
    def _rebuilt_ledger(protocol):
        """Replace the ledger by one holding the same records in the same
        order, added without the steps the model made them for, so that
        claims find every record by the full check."""
        records = protocol.ledger.records()
        protocol.ledger = rfchain_mod.SharedLedger()
        for record in records:
            protocol.ledger.add(*record)

    @pytest.mark.parametrize("mode", ["default", "patched"])
    def test_honest_claims_find_every_step_without_a_check(self, mode, monkeypatch):
        # every record of an honest run was made and posted unmodified, so
        # each claimed step is a lookup: no pass over the ledger, no trial
        # decryption and no record recomputed, however often a tag is claimed
        tags = ("t1", "t2", "t3")
        protocol, run = self._visited_run(mode, tags=tags)
        calls = {"record_matches": 0, "sym_matches": 0, "default_record": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            protocol, "_record_matches", counted("record_matches", protocol._record_matches)
        )
        monkeypatch.setattr(crypto, "sym_matches", counted("sym_matches", crypto.sym_matches))
        monkeypatch.setattr(
            protocol, "_default_record", counted("default_record", protocol._default_record)
        )
        for tag_token in ("t2", "t1", "t3", "t2"):
            protocol.claim(tag_token)
        res = finalize(protocol, run)
        assert not res.anomalies and len(res.verdicts) == 4
        assert all(v.sound and v.sorted for v in res.verdicts)
        assert calls == {"record_matches": 0, "sym_matches": 0, "default_record": 0}

    @staticmethod
    def _flipping(readers, target: int):
        """A strategy that flips the last byte of the ``target``-th record
        (counting from 1) a reader posts to the ledger."""
        posted = 0

        def strategy(env, net):
            nonlocal posted
            if env.sender in readers and env.receiver == rfchain_mod.RfChain.verifier:
                posted += 1
                if posted == target:
                    return env.payload[:-1] + bytes([env.payload[-1] ^ 0x01])
            return env.payload

        return strategy

    @pytest.mark.parametrize("mode", ["default", "patched"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_record_modified_in_transit_leaves_no_step(self, mode, step):
        cfg = honest_config("rfchain")
        cfg.mode = mode
        cfg.script = [("move", "t1", r) for r in ("r1", "r2", "r3")]
        protocol, run = build_run(cfg)
        run.net.strategy = self._flipping(("r1", "r2", "r3"), step)
        play(protocol, cfg.script)
        identity, levels = self._levels(run, "t1")
        assert [protocol.ledger.wrote(identity, i, levels[i - 1]) for i in (1, 2, 3)] == [
            i != step for i in (1, 2, 3)
        ]
        assert len(protocol.ledger) == 3
        protocol.claim("t1")
        res = finalize(protocol, run)
        assert not res.verdicts
        assert res.anomalies == [f"rfchain verifier: missing ledger record for step {step} of t1"]

    @staticmethod
    def _seeded_world(mode: str, seed: int):
        """Six tags on seeded paths of one to four of five readers, visits
        interleaved at random, with claims made mid-journey and repeated;
        in every other seed one posted record is flipped in transit."""
        rng = random.Random(seed)
        readers = [f"r{n}" for n in range(1, 6)]
        tags = [f"t{n}" for n in range(1, 7)]
        paths = {t: rng.sample(readers, rng.randint(1, 4)) for t in tags}
        cursor = dict.fromkeys(tags, 0)
        script = []
        while any(cursor[t] < len(paths[t]) for t in tags):
            tag_token = rng.choice([t for t in tags if cursor[t] < len(paths[t])])
            script.append(("move", tag_token, paths[tag_token][cursor[tag_token]]))
            cursor[tag_token] += 1
            if rng.random() < 0.3:
                script.append(("claim", rng.choice([t for t in tags if cursor[t]])))
        script += [("claim", t) for t in rng.sample(tags, len(tags))]
        cfg = honest_config("rfchain", seed)
        cfg.mode = mode
        cfg.readers = [(r, None) for r in readers]
        cfg.transits = []
        cfg.tags = tags
        cfg.capacities = {t: 1024 for t in tags}
        cfg.script = script
        flipped = rng.randint(1, sum(len(p) for p in paths.values())) if seed % 2 else 0
        return cfg, readers, flipped

    @pytest.mark.parametrize("mode", ["default", "patched"])
    @pytest.mark.parametrize("seed", range(6))
    def test_report_equals_a_ledger_rebuilt_without_steps(self, mode, seed):
        # the same run twice: once as the model wrote its ledger, once with
        # the ledger rebuilt without its steps before every claim, so that
        # each claimed step takes the full check
        reports = []
        for rebuild in (False, True):
            cfg, readers, flipped = self._seeded_world(mode, seed)
            protocol, run = build_run(cfg)
            run.net.strategy = self._flipping(readers, flipped)
            for step in cfg.script:
                if step[0] == "move":
                    protocol.visit(step[1], step[2])
                    continue
                if rebuild:
                    self._rebuilt_ledger(protocol)
                protocol.claim(step[1])
            reports.append(finalize(protocol, run).report_lines())
        assert reports[0] == reports[1]
        assert any(line.startswith("verdict ") for line in reports[0])
        missing = any("missing ledger record" in line for line in reports[0])
        assert missing == bool(flipped)

    def test_written_chain_that_is_not_the_initial_secret_refused(self):
        model, run = build_run(RunConfig.along("rfchain", {"t1": ("r1", "r2")}))
        identity = run.memory("t1").load("id")
        run.net.write_tag("t1", crypto.concat_length_prefixed(b"id", identity, b"chain", bytes(32)))
        model.visit("t1", "r1")
        res = finalize(model, run)
        assert res.anomalies == ["rfchain r1 rejects t1: initial secret mismatch"]
        assert res.stalled and len(model.ledger) == 0


class TestRay:
    def test_any_visit_order_is_accepted(self):
        # nothing binds challenges to positions: travelling r2-r1-r3 still
        # consumes all challenges and the owner publishes that order
        cfg = honest_config("ray")
        cfg.script = [
            ("move", "t1", "r2"),
            ("move", "t1", "r1"),
            ("move", "t1", "r3"),
            ("claim", "t1"),
        ]
        res = run_protocol(cfg)
        assert not res.stalled
        v = res.verdicts[0]
        assert v.sound and v.sorted and not v.authorized
        idx = next(i for i, _ in res.trace.claims())
        assert AttackLabel.UNAUTHORIZED_PATH in classify_claim(res.trace, idx)

    def test_replayed_challenge_refused(self):
        cfg = honest_config("ray")
        cfg.script = [("move", "t1", "r1"), ("move", "t1", "r1")]
        res = run_protocol(cfg)
        assert res.stalled  # second presentation finds nothing pending

    def test_unfinished_tag_cannot_claim(self):
        cfg = honest_config("ray")
        cfg.script = [("move", "t1", "r1"), ("move", "t1", "r2"), ("claim", "t1")]
        res = run_protocol(cfg)
        assert not res.verdicts
        assert any("unconsumed" in a for a in res.anomalies)

    def test_owner_only_verifies(self):
        cfg = honest_config("ray")
        cfg.script[-1] = ("claim", "t1", "r1")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)

    def test_clone_carries_the_source_tags_consumed_challenges(self):
        # the tag's memory is the only record of what it consumed, so a
        # clone of t2 onto t1 continues t2's history, not t1's
        cfg = RunConfig(
            protocol="ray",
            readers=[(t, None) for t in ("r1", "r2", "r3", "r4")],
            tags=["t1", "t2"],
            valid_paths=[("t1", ("r1", "r2", "r3")), ("t2", ("r4", "r2", "r3"))],
            capacities={"t1": 4096, "t2": 4096},
        )
        protocol, run = build_run(cfg)
        protocol.visit("t2", "r4")
        protocol.visit("t1", "r1")
        run.net.write_tag("t1", run.net.read_tag("t2"))
        challenge = protocol.challenges
        assert run.net.inject("r2", "t1", challenge[("t2", "r2")]) == b"ok"
        mem = run.memory("t1")
        consumed = crypto.split_length_prefixed(mem.load("consumed"))
        assert consumed == [challenge[("t2", "r4")], challenge[("t2", "r2")]]
        assert crypto.split_length_prefixed(mem.load("pending")) == [challenge[("t2", "r3")]]

    def test_off_path_reader_holds_no_challenge(self):
        cfg = RunConfig.along("ray", {"t1": ("r1", "r2")}, readers=["r1", "r2", "r3"])
        model, run = build_run(cfg)
        model.visit("t1", "r3")
        res = finalize(model, run)
        assert res.anomalies == ["ray r3 holds no challenge for t1"]
        assert res.stalled and res.step_log == ["visit t1 r3 failed"]


class TestResc:
    def test_storage_formula(self):
        assert SLOT_BITS == 128 + 20 + 23 + 512
        for n in range(1, 9):
            assert storage_bits(n) == n * (128 + 20 + 23 + 512)

    def test_negative_path_length_refused(self):
        with pytest.raises(ValueError, match="^path length cannot be negative$"):
            storage_bits(-1)

    def test_path_its_slot_pointer_cannot_count_is_refused_before_setup(self, monkeypatch):
        monkeypatch.setattr(Resc, "setup", lambda self: pytest.fail("setup ran"))
        readers = tuple(f"r{i}" for i in range(255))
        with pytest.raises(SetupError, match="resc path of t1 has 255 readers"):
            build_run(RunConfig.along("resc", {"t1": readers}))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_live_accounting_matches_formula(self, length):
        readers = [(f"r{i}", None) for i in range(1, length + 1)]
        path = tuple(t for t, _ in readers)
        script = [("move", "t1", t) for t in path] + [("claim", "t1")]
        cfg = RunConfig(
            protocol="resc",
            seed=length,
            readers=readers,
            tags=["t1"],
            valid_paths=[("t1", path)],
            capacities={"t1": storage_bits(length)},
            script=script,
        )
        protocol, run = build_run(cfg)
        assert run.memory("t1").used_bits() == storage_bits(length)
        for step in cfg.script:
            if step[0] == "move":
                protocol.visit(step[1], step[2])
            else:
                protocol.claim(step[1])
        # deposits replace empty slots; the footprint never grows
        assert run.memory("t1").used_bits() == storage_bits(length)
        res = finalize(protocol, run)
        assert not res.stalled and len(res.verdicts) == 1
        assert res.verdicts[0].sound and res.verdicts[0].sorted

    def test_wrong_reader_cannot_fill_slot(self):
        cfg = honest_config("resc")
        cfg.script = [("move", "t1", "r2")]
        res = run_protocol(cfg)
        assert res.stalled
        assert any("refused the deposit" in a for a in res.anomalies)

    def test_incomplete_journey_cannot_claim(self):
        cfg = honest_config("resc")
        cfg.script = [("move", "t1", "r1"), ("claim", "t1")]
        res = run_protocol(cfg)
        assert not res.verdicts
        assert any("not in place" in a for a in res.anomalies)

    def test_malformed_tag_image_rejected(self):
        model, run = build_run(honest_config("resc"))
        for reader in ("r1", "r2", "r3"):
            model.visit("t1", reader)
        run.net.strategy = truncating("t1", "db")
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == ["resc database got a malformed tag image"]
        assert not res.verdicts

    def test_database_only_verifies(self):
        cfg = honest_config("resc")
        cfg.script[-1] = ("claim", "t1", "r1")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)

    def test_deposits_stamped_out_of_order_refused(self):
        # AdvT reads the slot keys off the tag and fills both slots itself,
        # the second stamped earlier than the first
        model, run = build_run(RunConfig.along("resc", {"t1": ("r1", "r2")}))
        fields = read_snapshot(run.net.read_tag("t1"))
        for slot, ts in ((1, 5), (2, 3)):
            reader = f"r{slot}"
            _, nonce, _ = crypto.split_length_prefixed(run.net.inject(reader, "t1", b"HELLO"))
            deposit = Resc.deposit(fields["tid"], slot, ts, fields[f"k{slot}"], nonce)
            assert run.net.inject(reader, "t1", deposit) == b"ok"
        model.claim("t1")
        res = finalize(model, run)
        assert res.anomalies == ["resc database: timestamps of t1 out of order"]
        assert res.step_log == ["claim t1 rejected"] and not res.verdicts

    @staticmethod
    def walked_pair():
        """ReSC with tags ta and tb walked over r1 r2 r3, visits interleaved."""
        path = ("r1", "r2", "r3")
        model, run = build_run(RunConfig.along("resc", {"ta": path, "tb": path}))
        play(model, [("move", tag, reader) for reader in path for tag in ("ta", "tb")])
        return model, run

    def test_image_of_another_tag_fails_the_identifier_check(self):
        model, run = self.walked_pair()
        run.net.write_tag("ta", run.net.read_tag("tb"))
        model.claim("ta")
        res = finalize(model, run)
        assert res.anomalies == ["resc database: identifier mismatch for ta"]
        assert not res.verdicts

    @pytest.mark.parametrize(
        "name,forge",
        [
            ("sig2", lambda value: value[:5] + bytes([value[5] ^ 1]) + value[6:]),
            ("idx2", lambda value: crypto.int_to_bytes(3, 3)),
        ],
        ids=["sig-byte", "index"],
    )
    def test_forged_slot_fails_verification(self, name, forge):
        # AdvT reads the walked tag, changes one slot field and writes it back
        model, run = self.walked_pair()
        fields = read_snapshot(run.net.read_tag("ta"))
        fields[name] = forge(fields[name])
        image = [part for key, value in fields.items() for part in (key.encode(), value)]
        run.net.write_tag("ta", crypto.concat_length_prefixed(*image))
        model.claim("ta")
        res = finalize(model, run)
        assert res.anomalies == ["resc database: slot 2 of ta fails verification"]
        assert not res.verdicts

    def test_a_deposit_with_no_pending_nonce_is_refused(self):
        # AdvT sends a deposit under the right slot key without a HELLO first
        model, run = build_run(RunConfig.along("resc", {"t1": ("r1", "r2")}))
        fields = read_snapshot(run.net.read_tag("t1"))
        deposit = Resc.deposit(fields["tid"], 1, 5, fields["k1"], bytes(8))
        assert run.net.inject("r1", "t1", deposit) is None
        assert run.memory("t1").load("sig1") == b""

    def test_a_filled_slot_refuses_a_second_deposit(self):
        # AdvT replays slot 1 with the key read off the tag and a fresh nonce
        model, run = build_run(RunConfig.along("resc", {"t1": ("r1", "r2")}))
        model.visit("t1", "r1")
        fields = read_snapshot(run.net.read_tag("t1"))
        assert fields["sig1"] != b""
        _, nonce, _ = crypto.split_length_prefixed(run.net.inject("r1", "t1", b"HELLO"))
        replay = Resc.deposit(fields["tid"], 1, 999, fields["k1"], nonce)
        assert run.net.inject("r1", "t1", replay) is None
        assert run.memory("t1").load("sig1") == fields["sig1"]


def bypass_config(mode: str, seed: int = 3) -> RunConfig:
    """Two colluding readers route t1 across t2's registered edges."""
    return RunConfig(
        protocol="burbridge",
        seed=seed,
        mode=mode,
        adversary=AdvModel.ADV_R,
        readers=[("ra", None), ("rb", None), ("rc", None), ("rd", None), ("re", None)],
        tags=["t1", "t2"],
        valid_paths=[
            ("t1", ("ra", "rb", "rc", "rd", "re")),
            ("t2", ("ra", "rb", "rd", "re")),
        ],
        compromise=["rb", "rd"],
        script=[
            ("move", "t1", "ra"),
            ("move", "t1", "rb"),
            ("move", "t1", "rd"),
            ("move", "t1", "re"),
            ("claim", "t1"),
        ],
    )


class TestBurbridge:
    def test_honest_run_per_tag_mode(self):
        cfg = honest_config("burbridge")
        cfg.mode = "per_tag"
        res = run_protocol(cfg)
        assert not res.stalled
        v = res.verdicts[0]
        assert v.sound and v.sorted and v.authorized

    def test_off_policy_arrival_refused(self):
        cfg = honest_config("burbridge")
        cfg.script = [("move", "t1", "r2")]
        res = run_protocol(cfg)
        assert res.stalled
        assert any("refuses" in a for a in res.anomalies)

    def test_bypass_with_shared_key_is_authorized_yet_unsound(self):
        res = run_protocol(bypass_config("default"))
        assert not res.stalled
        assert len(res.verdicts) == 1
        v = res.verdicts[0]
        assert v.authorized and not v.sound and not v.sorted
        idx = next(i for i, _ in res.trace.claims())
        assert classify_claim(res.trace, idx) == {AttackLabel.GHOST_STEP}

    def test_bypass_fails_with_per_tag_keys(self):
        res = run_protocol(bypass_config("per_tag"))
        assert res.stalled
        assert not res.verdicts
        assert any("does not vouch" in a for a in res.anomalies)

    def test_dishonest_readers_require_advr(self):
        cfg = bypass_config("default")
        cfg.adversary = AdvModel.ADV_T
        with pytest.raises(CapabilityError):
            run_protocol(cfg)

    def test_another_tags_document_is_refused(self):
        cfg = RunConfig.along("burbridge", {"t1": ("r1", "r2"), "t2": ("r1", "r2")})
        cfg.capacities = {"t1": 2048, "t2": 2048}
        model, run = build_run(cfg)
        play(model, [("move", "t1", "r1"), ("move", "t2", "r1")])
        run.net.write_tag("t1", run.net.read_tag("t2"))
        model.visit("t1", "r2")
        res = finalize(model, run)
        assert res.stalled and res.step_log[-1] == "visit t1 r2 failed"
        assert res.anomalies == ["burbridge r2: document of t1 does not vouch for r1"]

    def test_a_signed_stage_that_is_not_utf8_vouches_for_nothing(self):
        model, _run = build_run(honest_config("burbridge"))

        def signed(stage: bytes):
            return crypto.sign(model.chain_sk, crypto.concat_length_prefixed(b"t1", stage))

        assert model._doc_stage("t1", signed(b"r1")) == "r1"
        assert model._doc_stage("t1", signed(b"\xff")) is None

    def test_controller_only_attributes(self):
        cfg = honest_config("burbridge")
        cfg.script[-1] = ("claim", "t1", "ra")
        with pytest.raises(VerifierPolicyError):
            run_protocol(cfg)

