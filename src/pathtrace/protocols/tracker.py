"""Polynomial path encoding under homomorphic ElGamal, manager verification.

Paths are encoded by evaluating a polynomial whose coefficients belong to
the readers: after visiting (r_1 .. r_l) the tag carries, in the exponent,
mac_t * (a_0 x0^l + sum a_{r_i} x0^(l-i)).  Readers update the encrypted
state homomorphically without decrypting; only the manager, a special
reader holding the decryption key, can verify, by comparing against
pre-computed evaluations of the registered paths.  The manager can tell
that a non-registered path was taken but never which one.
"""

from __future__ import annotations

from functools import partial

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, VerifierPolicyError, register_protocol
from pathtrace.trace import PathClaim


def group_params(name: str) -> crypto.ElgamalParams:
    return crypto.TEST_PARAMS if name == "test" else crypto.DEFAULT_PARAMS


@register_protocol
class Tracker(ProtocolModel):
    name = "tracker"
    architecture = "offline"

    CT_BITS = 128  # two 8-byte group elements per ciphertext

    def setup(self) -> None:
        self.params = group_params(self.config.params.get("group", "default"))
        self.field = crypto.PrimeField(self.params.q)
        self.priv = crypto.elg_keygen(self.rng, self.params)
        self.pub = self.priv.public
        self.mac_key = self.rng.randbytes(32)
        self.x0 = self.field.rand_nonzero(self.rng)
        self.a0 = self.field.rand_nonzero(self.rng)

        reader_tokens = [token for token, _ in self.config.readers]
        self.manager_token = self.config.params.get("manager", reader_tokens[-1])
        self.coeffs: dict[str, int] = {}
        equal_group = [t for t in self.config.params.get("equal", "").split(",") if t]
        shared = self.field.rand_nonzero(self.rng) if equal_group else None
        for token in reader_tokens:
            if token == self.manager_token:
                continue
            if token in equal_group:
                self.coeffs[token] = shared
            else:
                self.coeffs[token] = self.field.rand_nonzero(self.rng)

        # registered paths and the manager's pre-computed acceptance table
        self.mac_of: dict[str, int] = {}
        self.id_elem: dict[str, int] = {}
        self.accept: dict[str, dict[int, tuple[str, ...]]] = {}
        for tag_token in self.config.tags:
            mac_t = crypto.hash_int(crypto.mac(self.mac_key, tag_token.encode()), self.params.q)
            self.mac_of[tag_token] = mac_t
            self.id_elem[tag_token] = crypto.encode_exponent(
                self.params, crypto.hash_int(b"id" + tag_token.encode(), self.params.q)
            )
            table: dict[int, tuple[str, ...]] = {}
            for path in self.declared_paths(tag_token):
                self.emit_valid_path(tag_token, path)
                value = self._path_eval(path)
                elem = crypto.encode_exponent(self.params, self.field.mul(mac_t, value))
                table.setdefault(elem, tuple(path))
            self.accept[tag_token] = table
            self._init_tag(tag_token)

        for token in reader_tokens:
            if token != self.manager_token:
                self.net.attach_secrets(token, partial(self.reader_secrets, token))

    def _path_eval(self, path: tuple[str, ...]) -> int:
        return crypto.path_poly_eval(
            self.field, self.a0, [self.coeffs[t] for t in path], self.x0
        )

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        return {
            "coeff": crypto.int_to_bytes(self.coeffs[reader_token]),
            "x0": crypto.int_to_bytes(self.x0),
        }

    def _init_tag(self, tag_token: str) -> None:
        mem = self.run.memory(tag_token)
        mac_elem = crypto.encode_exponent(self.params, self.mac_of[tag_token])
        phi0 = crypto.encode_exponent(
            self.params, self.field.mul(self.mac_of[tag_token], self.a0)
        )
        for name, elem in (("c1", self.id_elem[tag_token]), ("c2", mac_elem), ("c3", phi0)):
            ct = crypto.elg_encrypt(self.pub, elem, self.rng)
            mem.store(name, ct.to_bytes(), nominal_bits=self.CT_BITS)

    # --- state (de)serialization ---------------------------------------

    def _read_state(self, blob: bytes) -> tuple[crypto.Ciphertext, ...] | None:
        try:
            parts = crypto.split_length_prefixed(blob)
        except crypto.CryptoError:
            return None
        if len(parts) != 3 or any(len(p) != 16 for p in parts):
            return None
        return tuple(
            crypto.Ciphertext(
                self.params, crypto.bytes_to_int(p[:8]), crypto.bytes_to_int(p[8:])
            )
            for p in parts
        )

    def _state_blob(self, tag_token: str) -> bytes:
        mem = self.run.memory(tag_token)
        return crypto.concat_length_prefixed(mem.load("c1"), mem.load("c2"), mem.load("c3"))

    # --- protocol steps -------------------------------------------------

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        if reader_token == self.manager_token:
            return True  # the manager only verifies, via the claim phase
        presented = self.net.transmit(tag_token, reader_token, self._state_blob(tag_token))
        if presented is None:
            return False
        state = self._read_state(presented)
        if state is None:
            self.net.log_anomaly(f"tracker {reader_token} got malformed state from {tag_token}")
            return False
        c1, c2, c3 = state
        a_i = self.coeffs[reader_token]
        c3 = crypto.hom_mul(crypto.ct_pow(c3, self.x0), crypto.ct_pow(c2, a_i))
        fresh = [crypto.rerandomize(self.pub, ct, self.rng) for ct in (c1, c2, c3)]
        written = self.net.transmit(
            reader_token, tag_token, crypto.concat_length_prefixed(*(ct.to_bytes() for ct in fresh))
        )
        if written is None:
            return False
        new_state = self._read_state(written)
        if new_state is None:
            self.net.log_anomaly(f"tracker {tag_token} got malformed update from {reader_token}")
            return False
        mem = self.run.memory(tag_token)
        for name, ct in zip(("c1", "c2", "c3"), new_state):
            mem.store(name, ct.to_bytes(), nominal_bits=self.CT_BITS)
        return True

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        if verifier is not None and verifier != self.manager_token:
            raise VerifierPolicyError(f"only the manager can verify, not {verifier}")
        presented = self.net.transmit(tag_token, self.manager_token, self._state_blob(tag_token))
        if presented is None:
            return False
        state = self._read_state(presented)
        if state is None:
            self.net.log_anomaly("tracker manager got malformed state")
            return False
        c1, c2, c3 = state
        ident = crypto.elg_decrypt(self.priv, c1)
        if ident != self.id_elem.get(tag_token):
            self.net.log_anomaly(f"tracker manager cannot identify {tag_token}")
            return False
        mac_elem = crypto.elg_decrypt(self.priv, c2)
        if mac_elem != crypto.encode_exponent(self.params, self.mac_of[tag_token]):
            self.net.log_anomaly(f"tracker manager mac check failed for {tag_token}")
            return False
        evaluation = crypto.elg_decrypt(self.priv, c3)
        path = self.accept[tag_token].get(evaluation)
        if path is None:
            # a non-registered path was taken; which one cannot be told
            self.net.log_anomaly(f"tracker manager rejects {tag_token}: unknown path evaluation")
            return False
        self.trace.append(
            PathClaim(
                self.run.tag_id(tag_token),
                tuple(self.run.reader_id(t) for t in path),
                self.run.reader_id(self.manager_token),
            )
        )
        return True

    def artifacts(self) -> dict:
        return {
            "group": "test" if self.params == crypto.TEST_PARAMS else "default",
            "x0": self.x0,
            "coeffs": dict(self.coeffs),
            "manager": self.manager_token,
            "public_key": self.pub,
            "storage_bits": {t: self.run.memory(t).used_bits() for t in self.config.tags},
        }
