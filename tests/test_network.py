"""Dolev-Yao network, adversary knowledge, tag memory and capability tests."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pathtrace import crypto, network
from pathtrace.attacks import ATTACKS
from pathtrace.network import (
    AdvModel,
    CapabilityError,
    Envelope,
    Knowledge,
    Message,
    Network,
    TagCapacityError,
    TagMemory,
    decompose,
)
from pathtrace.protocols import RunConfig, build_run
from pathtrace.protocols.ray import Ray

from pins import with_manager


class TestTagMemory:
    def test_store_load_and_accounting(self):
        m = TagMemory(capacity_bits=512)
        m.store("id", b"\x01" * 16)
        assert m.used_bits() == 128
        m.store("state", b"\x02" * 8, nominal_bits=100)
        assert m.used_bits() == 228
        assert m.load("id") == b"\x01" * 16
        assert m.names() == ["id", "state"]

    def test_overfull_write_rejected(self):
        m = TagMemory(capacity_bits=128)
        m.store("a", b"\x00" * 8)
        with pytest.raises(TagCapacityError):
            m.store("b", b"\x00" * 9)
        # replacing the same field re-uses its budget
        m.store("a", b"\x01" * 16)
        assert m.used_bits() == 128

    def test_snapshot_round_trip(self):
        m = TagMemory(capacity_bits=1024)
        m.store("id", b"tag-one")
        m.store("ctr", b"\x07")
        m2 = TagMemory(capacity_bits=1024)
        m2.overwrite(m.snapshot())
        assert m2.load("id") == b"tag-one"
        assert m2.load("ctr") == b"\x07"

    def test_overwrite_garbage_kept_raw(self):
        m = TagMemory(capacity_bits=1024)
        m.overwrite(b"\xff\xfe\xfd")
        assert m.load("__raw__") == b"\xff\xfe\xfd"

    def test_absent_field_reads_empty(self):
        m = TagMemory(capacity_bits=1024)
        assert m.load("id") == b""
        m.store("id", b"tag-one")
        m.overwrite(b"\xff\xfe\xfd")
        assert m.load("id") == b""

    def test_overwrite_respects_capacity(self):
        m = TagMemory(capacity_bits=64)
        with pytest.raises(TagCapacityError):
            m.overwrite(b"\x00" * 9)
        # a snapshot's values count, not its names and length prefixes
        m.overwrite(crypto.concat_length_prefixed(b"id", b"\x01" * 8))
        assert m.used_bits() == 64
        with pytest.raises(TagCapacityError):
            m.overwrite(crypto.concat_length_prefixed(b"id", b"\x01" * 9))
        assert m.load("id") == b"\x01" * 8


    def test_used_bits_is_the_sum_after_every_write(self):
        rng = random.Random(5)
        m = TagMemory(capacity_bits=256)
        nominal: dict[str, int] = {}  # what used_bits() must sum
        refused = 0
        for _ in range(600):
            if rng.random() < 0.1:
                if rng.random() < 0.5:
                    fields = {n: rng.randbytes(rng.randrange(6)) for n in rng.sample("abcd", 2)}
                    data = crypto.concat_length_prefixed(
                        *(part for n, v in fields.items() for part in (n.encode(), v))
                    )
                else:
                    fields = {"__raw__": b"\xff" * rng.randrange(1, 40)}
                    data = fields["__raw__"]
                try:
                    m.overwrite(data)
                    nominal = {n: len(v) * 8 for n, v in fields.items()}
                except TagCapacityError:
                    refused += 1
            else:
                name = rng.choice("abcd")
                value = rng.randbytes(rng.randrange(12))
                bits = rng.choice([None, rng.randrange(120)])
                try:
                    m.store(name, value, nominal_bits=bits)
                    nominal[name] = len(value) * 8 if bits is None else bits
                except TagCapacityError:
                    refused += 1
            assert m.used_bits() == sum(nominal.values())
        assert refused > 20  # the sequence does exercise refusals


class TestKnowledge:
    def test_signature_blobs_decompose(self):
        rng = random.Random(1)
        sk, _ = crypto.new_signing_keypair("r1", rng)
        blob = crypto.sign(sk, b"the message").to_bytes()
        k = Knowledge()
        k.observe(blob)
        assert k.knows(b"the message")

    def test_length_prefixed_fields_decompose(self):
        k = Knowledge()
        k.observe(crypto.concat_length_prefixed(b"alpha", b"beta"))
        assert k.knows(b"alpha") and k.knows(b"beta")

    def test_decompose_reads_nested_fields_depth_first(self):
        rng = random.Random(4)
        sk, _ = crypto.new_signing_keypair("r1", rng)
        inner = crypto.concat_length_prefixed(b"alpha", b"", b"beta")
        sig = crypto.sign(sk, inner)
        blob = crypto.concat_length_prefixed(sig.to_bytes(), b"gamma")
        assert list(decompose([blob])) == [
            blob, sig.to_bytes(), inner, b"alpha", b"beta", sig.tag, b"gamma"
        ]

    def test_decompose_extends_known_without_rereading(self):
        pair = crypto.concat_length_prefixed(b"alpha", b"beta")
        known = {pair: None}
        assert decompose([pair, b"gamma"], known) is known
        assert list(known) == [pair, b"gamma"]

    def test_decompose_keeps_a_blob_that_does_not_split_as_one_atom(self):
        # the first prefix fits, the second runs past the end
        blob = (3).to_bytes(4, "big") + b"abc" + (100).to_bytes(4, "big") + b"x"
        assert list(decompose([blob])) == [blob]

    def test_snapshot_with_a_non_utf8_field_name_reads_as_none(self):
        assert network.read_snapshot(crypto.concat_length_prefixed(b"k", b"v")) == {"k": b"v"}
        assert network.read_snapshot(crypto.concat_length_prefixed(b"\xff", b"v")) is None

    def test_atoms_order_stable(self):
        k = Knowledge()
        k.observe(b"one")
        k.observe(b"two")
        k.observe(b"one")
        assert k.atoms() == [b"one", b"two"]


def honest_world(protocol: str, tags: int = 100, hops: int = 4, seed: int = 3):
    """Every tag walks its own ``hops`` readers out of six, visits
    interleaved across tags, then every tag is claimed."""
    rng = random.Random(seed)
    readers = [(f"r{i}", None) for i in range(1, 7)]
    names = [f"t{i}" for i in range(tags)]
    paths = {t: tuple(rng.sample([r for r, _ in readers], hops)) for t in names}
    cfg = RunConfig(
        protocol=protocol,
        seed=seed,
        readers=readers,
        tags=names,
        valid_paths=[] if protocol == "rfchain" else sorted(paths.items()),
        capacities=dict.fromkeys(names, 8192),
    )
    model, run = build_run(with_manager(cfg))
    for step in range(hops):
        for tag in names:
            model.visit(tag, paths[tag][step])
    for tag in names:
        model.claim(tag)
    return run


class TestLazyKnowledge:
    """Observed payloads are decomposed on the first query after them."""

    @pytest.mark.parametrize("protocol", ["tracker", "ray", "rfchain", "burbridge"])
    def test_honest_run_decomposes_nothing(self, monkeypatch, protocol):
        calls = []

        def counting(blobs, known=None):
            calls.append(1)
            return decompose(blobs, known)

        monkeypatch.setattr(network, "decompose", counting)
        run = honest_world(protocol)
        assert not run.stalled
        assert calls == []
        knowledge = run.net.knowledge
        seen = [m.seen for m in run.net.log if m.seen is not None]
        assert seen and all(knowledge.knows(payload) for payload in seen)
        assert not knowledge.knows(b"never on the air")
        assert calls

    def test_ray_pids_and_inject_response_known(self):
        run = honest_world("ray", tags=2)
        response = crypto.concat_length_prefixed(b"handler-field-one", b"handler-field-two")
        run.net.register_handler("sink", lambda payload, sender: response)
        assert run.net.inject("r1", "sink", b"spoofed") == response
        knowledge = run.net.knowledge
        assert all(knowledge.knows(Ray.pid(f"r{i}")) for i in range(1, 7))
        assert knowledge.knows(response) and knowledge.knows(b"handler-field-two")
        assert not knowledge.knows(b"spoofed")  # made, not observed

    def test_atoms_match_eager_decomposition(self, monkeypatch):
        observed: dict[int, tuple[Knowledge, list[bytes]]] = {}
        real = Knowledge.observe

        def recording(knowledge, data):
            observed.setdefault(id(knowledge), (knowledge, []))[1].append(data)
            real(knowledge, data)

        monkeypatch.setattr(Knowledge, "observe", recording)
        assert ATTACKS["ray-impersonation"]().succeeded
        assert observed
        for knowledge, payloads in observed.values():
            eager: dict[bytes, None] = {}
            for payload in payloads:
                decompose((payload,), eager)
            assert knowledge.atoms() == list(eager)
            assert len(knowledge) == len(eager)

    def test_each_untrusted_payload_is_observed_once(self, monkeypatch):
        observed: list[bytes] = []
        real = Knowledge.observe

        def recording(knowledge, data):
            observed.append(data)
            real(knowledge, data)

        monkeypatch.setattr(Knowledge, "observe", recording)
        net = make_net(strategy=lambda env, net: None if env.payload == b"lost" else b"swapped")
        net.transmit("a", "b", b"sent")
        net.transmit("a", "b", b"lost")
        net.transmit("a", "b", b"registration", trusted=True)
        assert observed == [b"sent", b"lost"]
        assert [m.seen for m in net.log] == [b"sent", b"lost", None]

    def test_observations_after_a_query_join_at_the_next(self):
        k = Knowledge()
        pair = crypto.concat_length_prefixed(b"alpha", b"beta")
        k.observe(pair)
        assert k.atoms() == [pair, b"alpha", b"beta"]
        k.observe(b"gamma")
        k.observe(b"alpha")
        assert k.atoms() == [pair, b"alpha", b"beta", b"gamma"]


def make_net(model=AdvModel.ADV_T, strategy=None):
    return Network(model, strategy)


def lines(net):
    return [m.line() for m in net.log]


class TestNetwork:
    def test_null_strategy_delivers(self):
        net = make_net()
        assert net.transmit("r1", "t1", b"ping") == b"ping"
        assert lines(net) == [f"1 r1->t1 {b'ping'.hex()} delivered"]
        assert net.knowledge.knows(b"ping")

    def test_drop_strategy(self):
        net = make_net(strategy=lambda env, net: None)
        assert net.transmit("r1", "t1", b"ping") is None
        assert lines(net)[0].endswith("dropped")

    def test_modify_strategy_flagged(self):
        net = make_net(strategy=lambda env, net: env.payload + b"!")
        assert net.transmit("r1", "t1", b"ping") == b"ping!"
        assert lines(net)[0].endswith("modified")

    def test_trusted_channel_unobserved(self):
        net = make_net(strategy=lambda env, net: None)
        assert net.transmit("issuer", "backend", b"secret", trusted=True) == b"secret"
        assert not net.knowledge.knows(b"secret")
        assert [m.seen for m in net.log] == [None]
        assert lines(net)[0].endswith("trusted")

    def test_strategy_sees_an_immutable_envelope(self):
        seen = []
        net = make_net(strategy=lambda env, net: seen.append(env) or env.payload)
        net.transmit("r1", "t1", b"ping")
        (env,) = seen
        assert repr(env) == "Envelope(seq=1, sender='r1', receiver='t1', payload=b'ping')"
        with pytest.raises(AttributeError):
            env.payload = b"pong"

    def test_request_round_trip(self):
        net = make_net()
        net.register_handler("t1", lambda payload, sender: b"re:" + payload)
        assert net.request("r1", "t1", b"hello") == b"re:hello"
        assert len(net.log) == 2

    def test_request_without_handler(self):
        net = make_net()
        assert net.request("r1", "ghost", b"hello") is None

    def test_inject_without_handler(self):
        net = make_net()
        assert net.inject("r1", "ghost", b"spoof") is None
        assert lines(net) == [f"1 r1->ghost {b'spoof'.hex()} injected"]

    def test_transcripts_deterministic(self):
        def run():
            net = make_net()
            net.transmit("a", "b", b"one")
            net.request("b", "a", b"two")
            return lines(net)

        assert run() == run()


class TestMessageLog:
    def test_one_record_per_message_in_seq_order(self):
        net = make_net(model=AdvModel.ADV_R)
        net.attach_tag("t1", TagMemory(capacity_bits=1024))
        net.attach_secrets("r1", lambda: {"key": b"\x01" * 32})
        net.register_handler("t1", lambda payload, sender: b"ack")
        net.transmit("issuer", "db", b"reg", trusted=True)
        net.transmit("r1", "t1", b"ping")
        snap = net.read_tag("t1")
        net.write_tag("t1", snap)
        net.compromise("r1")
        net.inject("r2", "t1", b"spoof")
        assert [(m.seq, m.action) for m in net.log] == [
            (1, "trusted"), (2, "delivered"), (3, "read_tag"), (4, "write_tag"),
            (5, "compromise"), (6, "injected"), (7, "delivered"),
        ]
        assert [(m.sender, m.receiver) for m in net.log if m.seen is not None] == [
            ("r1", "t1"), ("adv", "t1"), ("adv", "r1"), ("t1", "r2"),
        ]

    def test_views_are_read_only(self):
        net = make_net()
        net.transmit("r1", "t1", b"ping")
        message = net.log[0]
        with pytest.raises(AttributeError):
            message.payload = b"forged"
        with pytest.raises(AttributeError):
            message.action = "dropped"
        assert message.line() == f"1 r1->t1 {b'ping'.hex()} delivered"

    def test_strategy_injection_logged_before_its_envelope(self):
        seen_by_strategy = []

        def strategy(env, net):
            seen_by_strategy.append(net.knowledge.knows(env.payload))
            if env.receiver == "t1":
                net.inject("r9", "t2", b"extra")
            return env.payload

        net = make_net(strategy=strategy)
        net.register_handler("t2", lambda payload, sender: b"reply")
        net.transmit("r1", "t1", b"ping")
        assert seen_by_strategy == [True]
        assert [(m.seq, m.sender, m.receiver, m.action) for m in net.log] == [
            (2, "r9", "t2", "injected"),
            (3, "t2", "r9", "delivered"),
            (1, "r1", "t1", "delivered"),
        ]

    def test_every_record_is_a_message_numbered_in_turn(self):
        envelopes = []

        def strategy(env, net):
            envelopes.append(env)
            return {b"drop": None, b"edit": b"edited"}.get(env.payload, env.payload)

        net = make_net(strategy=strategy)
        mem = TagMemory(capacity_bits=1024)
        mem.store("id", b"t1")
        net.attach_tag("t1", mem)
        net.register_handler("t1", lambda payload, sender: b"ack")
        net.transmit("issuer", "db", b"reg", trusted=True)
        net.transmit("r1", "t1", b"ping")
        snap = net.read_tag("t1")
        net.transmit("t1", "r1", b"edit")
        net.inject("r2", "t1", b"spoof")
        net.transmit("r1", "t1", b"drop")
        net.request("r1", "t1", b"hello")
        assert lines(net) == [
            f"1 issuer->db {b'reg'.hex()} trusted",
            f"2 r1->t1 {b'ping'.hex()} delivered",
            f"3 adv->t1 {snap.hex()} read_tag",
            f"4 t1->r1 {b'edited'.hex()} modified",
            f"5 r2->t1 {b'spoof'.hex()} injected",
            f"6 t1->r2 {b'ack'.hex()} delivered",
            f"7 r1->t1 {b'drop'.hex()} dropped",
            f"8 r1->t1 {b'hello'.hex()} delivered",
            f"9 t1->r1 {b'ack'.hex()} delivered",
        ]
        assert [m.seen for m in net.log] == [
            None, b"ping", snap, b"edit", None, b"ack", b"drop", b"hello", b"ack"
        ]
        for message in net.log:
            built = Message(*message)
            assert type(message) is Message and message._fields == built._fields
            assert message == built and message.line() == built.line()
        assert all(type(env) is Envelope for env in envelopes)
        assert [env.seq for env in envelopes] == [2, 4, 7, 8, 9]
        assert envelopes[1] == Envelope(4, "t1", "r1", b"edit")

    def test_dropped_and_modified_keep_what_was_seen(self):
        net = make_net(strategy=lambda env, net: env.payload + b"!")
        net.transmit("r1", "t1", b"ping")
        net.strategy = lambda env, net: None
        net.transmit("r1", "t1", b"pong")
        assert net.log == [
            Message(1, "r1", "t1", b"ping!", "modified", b"ping"),
            Message(2, "r1", "t1", b"pong", "dropped", b"pong"),
        ]
        assert not net.knowledge.knows(b"ping!")


class TestAdversaryContext:
    """The adversary's capabilities and named strategies, all ``Network``'s."""

    def test_read_and_write_tag(self):
        net = make_net()
        mem = TagMemory(capacity_bits=1024)
        mem.store("id", b"t1-identity")
        net.attach_tag("t1", mem)
        snap = net.read_tag("t1")
        assert net.knowledge.knows(b"t1-identity")
        net.write_tag("t1", snap)
        assert mem.load("id") == b"t1-identity"

    def test_write_respects_capacity(self):
        net = make_net()
        net.attach_tag("t1", TagMemory(capacity_bits=64))
        with pytest.raises(TagCapacityError):
            net.write_tag("t1", b"\x00" * 9)

    def test_refused_write_leaves_log_and_memory_unchanged(self):
        net = make_net()
        mem = TagMemory(capacity_bits=64)
        mem.store("id", b"\x01" * 8)
        net.attach_tag("t1", mem)
        net.transmit("r1", "t1", b"ping")
        snap = mem.snapshot()
        with pytest.raises(TagCapacityError):
            net.write_tag("t1", b"\x00" * 9)
        assert [(m.seq, m.action) for m in net.log] == [(1, "delivered")]
        assert mem.snapshot() == snap and mem.used_bits() == 64
        net.write_tag("t1", snap)
        assert [(m.seq, m.action) for m in net.log] == [(1, "delivered"), (2, "write_tag")]

    def test_compromise_requires_advr(self):
        net = make_net(model=AdvModel.ADV_T)
        net.attach_secrets("r1", lambda: {"key": b"\x01" * 32})
        with pytest.raises(CapabilityError):
            net.compromise("r1")

    def test_compromise_yields_secrets(self):
        net = make_net(model=AdvModel.ADV_R)
        net.attach_secrets("r1", lambda: {"key": b"\x01" * 32})
        secrets = net.compromise("r1")
        assert secrets == {"key": b"\x01" * 32}
        assert net.knowledge.knows(b"\x01" * 32)
        assert net.compromised == ["r1"]

    def test_compromise_unknown_reader(self):
        net = make_net(model=AdvModel.ADV_R)
        with pytest.raises(CapabilityError):
            net.compromise("nobody")

    def test_inject_reaches_handler(self):
        net = make_net()
        seen = []
        net.register_handler("t1", lambda payload, sender: seen.append((sender, payload)) or b"ok")
        assert net.inject("r2", "t1", b"spoof") == b"ok"
        assert seen == [("r2", b"spoof")]

    def test_named_strategies_need_no_attacks_import(self):
        # a fresh interpreter, since pytest has already imported every module
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from pathtrace.protocols import RunConfig, run_protocol\n"
            "cfg = RunConfig.along('ray', {'t1': ('r1', 'r2')}, strategy='drop_to_tags',"
            " script=[('move', 't1', 'r1')])\n"
            "result = run_protocol(cfg)\n"
            "print('pathtrace.attacks' in sys.modules, result.stalled,"
            " [m.action for m in result.log if m.receiver == 't1'])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.stderr == ""
        assert done.stdout == "False True ['trusted', 'dropped']\n"
