"""Challenge-set authentication against a current owner's path code.

The current owner folds the public participant identifiers of the
pre-defined path into a path code, derives one challenge value per
participant from it, and loads the whole challenge set onto the tag.
Each participant later presents its challenge over the air; the tag
accepts any challenge still pending, in any order — nothing binds a
challenge to a position.  When every challenge has been used, the owner
announces the path claim in the order the tag consumed them.

The challenge derivation is linear: c_i = c xor PID_i (optionally with a
path-level PRF term mixed in, the "prf" mode).  Since the PID values are
public, one observed challenge reveals c (or its PRF-masked variant) and
with it every other participant's challenge.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, register_protocol, weak_partial


@register_protocol
class Ray(ProtocolModel):
    name = "ray"
    architecture = "offline"
    modes = ("default", "prf")
    path_rule = "exactly one"
    path_reader_holds = "challenge"
    verifier = "co"  # the current owner, which loads tags and verifies

    CHALLENGE_BITS = 256

    @classmethod
    def tag_bits(cls, path_length: int) -> int:
        """One challenge per participant of the path."""
        return cls.CHALLENGE_BITS * path_length

    @staticmethod
    def pid(token: str) -> bytes:
        """A participant's public identifier."""
        return crypto.hash_bytes(b"pid-" + token.encode())

    def setup(self) -> None:
        self.pids: dict[str, bytes] = {t: self.pid(t) for t in self.run.readers}
        self.rid_co = crypto.hash_bytes(b"rid-" + self.verifier.encode())
        # participant identifiers are public knowledge
        for pid in self.pids.values():
            self.net.knowledge.observe(pid)
        self.net.knowledge.observe(self.rid_co)

        self.prf_key = self.rng.randbytes(32)
        self.code_of: dict[str, bytes] = {}
        self.term_of: dict[str, bytes] = {}
        self.challenges: dict[tuple[str, str], bytes] = {}
        self.owner_of: dict[str, dict[bytes, str]] = {}

        for tag_token, (path,) in self.paths_of.items():
            folded = bytes(32)
            for t in path:
                folded = crypto.xor_bytes(folded, self.pids[t])
            path_code = crypto.hash_bytes(folded)
            c = crypto.hash_bytes(crypto.xor_bytes(path_code, self.rid_co))
            self.code_of[tag_token] = c
            term = bytes(32)
            if self.config.mode == "prf":
                term = crypto.prf(self.prf_key, crypto.int_to_bytes(len(path), 4))
            self.term_of[tag_token] = term
            owner: dict[bytes, str] = {}
            values: list[bytes] = []
            for t in path:
                value = crypto.xor_bytes(crypto.xor_bytes(c, self.pids[t]), term)
                self.challenges[(tag_token, t)] = value
                owner[value] = t
                values.append(value)
                # out-of-band hand-off of each participant's challenge
                self.net.transmit(self.verifier, t, value, trusted=True)
            self.owner_of[tag_token] = owner
            loaded = crypto.concat_length_prefixed(*values)
            self.net.transmit(self.verifier, tag_token, loaded, trusted=True)
            mem = self.run.memory(tag_token)
            mem.store("pending", loaded, nominal_bits=self.CHALLENGE_BITS * len(values))
            mem.store("consumed", b"", nominal_bits=0)
            self.net.register_handler(tag_token, weak_partial(self._handle_tag, tag_token))

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        secrets: dict[str, bytes] = {}
        for tag_token, (path,) in self.paths_of.items():
            if reader_token not in path:
                continue
            secrets[f"challenge.{tag_token}"] = self.challenges[(tag_token, reader_token)]
            secrets[f"c.{tag_token}"] = self.code_of[tag_token]
            if self.config.mode == "prf":
                secrets[f"prf.{tag_token}"] = self.term_of[tag_token]
        return secrets

    def _handle_tag(self, tag_token: str, payload: bytes, sender: str) -> bytes | None:
        mem = self.run.memory(tag_token)
        values = crypto.split_fields(mem.load("pending"))
        used = crypto.split_fields(mem.load("consumed"))
        if values is None or used is None or payload not in values:
            return None
        values.remove(payload)
        mem.store(
            "pending",
            crypto.concat_length_prefixed(*values),
            nominal_bits=self.CHALLENGE_BITS * len(values),
        )
        used.append(payload)
        mem.store(
            "consumed",
            crypto.concat_length_prefixed(*used),
            nominal_bits=self.CHALLENGE_BITS * len(used),
        )
        return b"ok"

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        value = self.challenges.get((tag_token, reader_token))
        if value is None:
            self.net.log_anomaly(f"ray {reader_token} holds no challenge for {tag_token}")
            return False
        response = self.net.request(reader_token, tag_token, value)
        if response != b"ok":
            self.net.log_anomaly(f"ray {tag_token} refused the challenge of {reader_token}")
            return False
        return True

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        consumed = self.run.memory(tag_token).load("consumed")
        values = self._receive(
            self.net.transmit(tag_token, self.verifier, consumed),
            crypto.split_fields,
            f"ray owner got a malformed report from {tag_token}",
        )
        if values is None:
            return False
        owner = self.owner_of[tag_token]
        if set(values) != owner.keys():
            self.net.log_anomaly(f"ray owner: {tag_token} has unconsumed or foreign challenges")
            return False
        order = tuple(owner[v] for v in values)
        self.emit_claim(tag_token, order, self.verifier)
        return True
