"""Signature chain on the tag plus masked mirror records on a shared ledger.

The tag carries an offline secret: a_0 is a hash over (ID, f, pwd, r) and
each reader v_i replaces it with its signature over the previous value.
Every step also publishes an online record to an append-only ledger under
a pseudo-identity: the record body is the previous chain value masked with
a step key H(h_i), h_i = ID||f||pwd||r||i, and the pseudo-identity is the
tag identity encrypted under that same step key.  A verifier with the
system secrets walks the signature chain from the tag, recomputes every
step key, and checks that each chain level has its ledger record before
announcing the path claim.

The ledger also remembers, for each record a reader made and posted
unmodified, the step it was made for: (identity, index, prev_chain).  A
claimed step the model wrote itself is found by one lookup of that triple
in either mode, with no record recomputed or trial-checked.  The answer is
the same as a full check's: the record made for that step is on the
append-only ledger, and the full check accepts it by construction.  A step
whose record the model did not write (modified or injected in transit, or
added to the ledger directly) takes the full check, one pass over the
ledger: in the default mode for the one record the verifier recomputes, in
the patched mode for a record that ``_record_matches`` accepts, since a
salt that only the record reveals leaves nothing to recompute in advance.

Reusing H(h_i) as both mask and pseudo-identity key is what the linking
attack exploits.  The "patched" mode stores a fresh per-step salt in the
record and derives separate keys for mask and pseudo-identity from it,
with the mask applied through authenticated encryption rather than a
keystream, so recovering a candidate key from record algebra is no longer
possible; holders of the system secrets can still link everything.

The scheme registers no valid paths, so its claims are never authorized.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, register_protocol

# Nominal on-tag sizes: an EPC identifier and one fixed-width signature
# (the model blob embeds its message, so the byte length is larger).
ID_BITS = 96
CHAIN_BITS = 512


class SharedLedger:
    """Append-only (pseudo_id, payload) records; no deletion, no mutation.

    ``_written`` holds the (identity, index, prev_chain) step of every
    record that ``add`` was told the model made unmodified for it; ``wrote``
    answers from it.  Records added without a step (tampered in transit,
    injected, or rebuilt from ``records()``) are in the ledger all the same,
    and the verifier finds them by its full check over ``records()``."""

    def __init__(self) -> None:
        self._records: list[tuple[bytes, bytes]] = []
        self._written: set[tuple[bytes, int, bytes]] = set()

    def add(
        self, pseudo_id: bytes, payload: bytes, step: tuple[bytes, int, bytes] | None = None
    ) -> None:
        """Append a record; ``step`` is the (identity, index, prev_chain) the
        model made exactly this record for, when it arrived unmodified."""
        self._records.append((pseudo_id, payload))
        if step is not None:
            self._written.add(step)

    def wrote(self, identity: bytes, index: int, prev_chain: bytes) -> bool:
        """Does the ledger hold the record the model made for this step?"""
        return (identity, index, prev_chain) in self._written

    def records(self) -> list[tuple[bytes, bytes]]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


def step_input(identity: bytes, f: bytes, pwd: bytes, nonce: bytes, index: int) -> bytes:
    """h_i = ID||f||pwd||r||i with the raw concatenation the scheme uses."""
    return crypto.concat_raw(identity, f, pwd, nonce, str(index).encode())


def salted_key(h: bytes, salt: bytes, purpose: bytes) -> bytes:
    """Patched-mode key for ``purpose`` (b"pid" or b"mask") of the record
    with this salt at step input ``h``."""
    return crypto.hash_bytes(crypto.concat_raw(h, salt, purpose))


def split_salted(payload: bytes) -> list[bytes] | None:
    """[salt, body] of a patched record payload; None when malformed."""
    return crypto.split_fields(payload, 2)

@register_protocol
class RfChain(ProtocolModel):
    name = "rfchain"
    architecture = "online"
    modes = ("default", "patched")
    path_rule = "none"
    verifier = "bc"  # the blockchain verifier that holds the ledger

    @classmethod
    def tag_bits(cls, path_length: int) -> int:
        """1024 bits hold the identifier and one chain value at any length."""
        return 1024

    def setup(self) -> None:
        self.f = self.rng.randbytes(16)
        self.pwd = self.rng.randbytes(16)
        self.nonce = self.rng.randbytes(16)
        self.ledger = SharedLedger()
        self.ledger_truth: list[tuple[str, int]] = []

        self.sign_sk: dict[str, crypto.SigningKey] = {}
        self.sign_vk: dict[str, crypto.VerifyKey] = {}
        for token in self.run.readers:
            sk, vk = crypto.new_signing_keypair(token, self.rng)
            self.sign_sk[token] = sk
            self.sign_vk[token] = vk

        self._steps: dict[str, list[str]] = {}
        for tag_token in self.config.tags:
            identity = b"epc-" + tag_token.encode()
            self._steps[tag_token] = []
            self.net.transmit(tag_token, self.verifier, identity, trusted=True)
            mem = self.run.memory(tag_token)
            mem.store("id", identity, nominal_bits=ID_BITS)
            mem.store("chain", self._initial_secret(identity), nominal_bits=CHAIN_BITS)

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        return {
            "f": self.f,
            "pwd": self.pwd,
            "r": self.nonce,
            "sign": self.sign_sk[reader_token].secret,
        }

    def _initial_secret(self, identity: bytes) -> bytes:
        return crypto.hash_bytes(crypto.concat_raw(identity, self.f, self.pwd, self.nonce))

    def step_key(self, identity: bytes, index: int) -> bytes:
        return crypto.hash_bytes(step_input(identity, self.f, self.pwd, self.nonce, index))

    def _make_record(self, identity: bytes, index: int, prev_chain: bytes) -> tuple[bytes, bytes]:
        if self.config.mode == "patched":
            salt = self.rng.randbytes(8)
            h = step_input(identity, self.f, self.pwd, self.nonce, index)
            pseudo = crypto.sym_enc(salted_key(h, salt, b"pid"), identity)
            body = crypto.sym_enc(salted_key(h, salt, b"mask"), prev_chain)
            payload = crypto.concat_length_prefixed(salt, body)
            return pseudo, payload
        return self._default_record(identity, index, prev_chain)

    def _default_record(self, identity: bytes, index: int, prev_chain: bytes) -> tuple[bytes, bytes]:
        """The one default-mode record that mirrors chain level ``prev_chain``."""
        key = self.step_key(identity, index)
        return crypto.sym_enc(key, identity), crypto.xor_stream(prev_chain, key)

    def _record_matches(
        self, pseudo: bytes, payload: bytes, identity: bytes, index: int, prev_chain: bytes
    ) -> bool:
        """Does the single record (pseudo, payload) mirror ``prev_chain`` at
        step ``index``?  The verifier's patched full check runs it on each
        record; a wrong record is rejected on the synthetic IV of its
        pseudo-identity, with no keystream derived."""
        if self.config.mode == "patched":
            split = split_salted(payload)
            if split is None:
                return False
            salt, body = split
            h = step_input(identity, self.f, self.pwd, self.nonce, index)
            if not crypto.sym_matches(salted_key(h, salt, b"pid"), identity, pseudo):
                return False
            return crypto.sym_matches(salted_key(h, salt, b"mask"), prev_chain, body)
        return (pseudo, payload) == self._default_record(identity, index, prev_chain)

    def _on_ledger(self, identity: bytes, index: int, prev_chain: bytes) -> bool:
        """Does the ledger hold a record mirroring ``prev_chain`` at step
        ``index``?  A step the model wrote is one lookup; any other step
        takes the full check, one pass over the ledger."""
        if self.ledger.wrote(identity, index, prev_chain):
            return True
        if self.config.mode == "patched":
            return any(
                self._record_matches(pseudo, payload, identity, index, prev_chain)
                for pseudo, payload in self.ledger.records()
            )
        return self._default_record(identity, index, prev_chain) in self.ledger.records()

    def _present(self, tag_token: str, receiver: str, malformed: str) -> list[bytes] | None:
        """[identity, chain] as ``receiver`` gets them (``_receive``)."""
        mem = self.run.memory(tag_token)
        data = crypto.concat_length_prefixed(mem.load("id"), mem.load("chain"))
        presented = self.net.transmit(tag_token, receiver, data)
        return self._receive(presented, lambda blob: crypto.split_fields(blob, 2), malformed)

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        malformed = f"rfchain {reader_token} got malformed tag data from {tag_token}"
        presented = self._present(tag_token, reader_token, malformed)
        if presented is None:
            return False
        identity, chain = presented
        steps = self._steps[tag_token]
        if steps:
            sig = crypto.parse_signature(chain)
            if sig is None or sig.signer != steps[-1] or not crypto.verify(
                self.sign_vk[sig.signer], sig
            ):
                self.net.log_anomaly(
                    f"rfchain {reader_token} rejects {tag_token}: chain signature invalid"
                )
                return False
        elif chain != self._initial_secret(identity):
            self.net.log_anomaly(
                f"rfchain {reader_token} rejects {tag_token}: initial secret mismatch"
            )
            return False
        index = len(steps) + 1
        pseudo, payload = self._make_record(identity, index, chain)
        posted = self.net.transmit(
            reader_token, self.verifier, crypto.concat_length_prefixed(pseudo, payload)
        )
        record = self._receive(
            posted,
            lambda blob: crypto.split_fields(blob, 2),
            "rfchain ledger received a malformed record",
        )
        if record is None:
            return False
        made = record == [pseudo, payload]
        self.ledger.add(*record, step=(identity, index, chain) if made else None)
        self.ledger_truth.append((tag_token, index))
        new_chain = crypto.sign(self.sign_sk[reader_token], chain).to_bytes()
        written = self.net.transmit(reader_token, tag_token, new_chain)
        if written is None:
            return False
        self.run.memory(tag_token).store("chain", written, nominal_bits=CHAIN_BITS)
        steps.append(reader_token)
        return True

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        presented = self._present(tag_token, self.verifier, "rfchain verifier got malformed tag data")
        if presented is None:
            return False
        identity, chain = presented
        levels: list[bytes] = [chain]
        signers: list[str] = []
        cursor = chain
        while (sig := crypto.parse_signature(cursor)) is not None:
            if sig.signer not in self.sign_vk or not crypto.verify(self.sign_vk[sig.signer], sig):
                self.net.log_anomaly(f"rfchain verifier: broken chain for {tag_token}")
                return False
            signers.append(sig.signer)
            cursor = sig.message
            levels.append(cursor)
        if cursor != self._initial_secret(identity):
            self.net.log_anomaly(f"rfchain verifier: chain base mismatch for {tag_token}")
            return False
        path = tuple(reversed(signers))
        # levels holds a_n .. a_0; record i must mirror a_{i-1}
        for i in range(1, len(path) + 1):
            if not self._on_ledger(identity, i, levels[len(path) - (i - 1)]):
                self.net.log_anomaly(
                    f"rfchain verifier: missing ledger record for step {i} of {tag_token}"
                )
                return False
        self.emit_claim(tag_token, path, self.verifier)
        return True
