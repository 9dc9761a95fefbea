"""Polynomial path encoding with on-site verification at every reader.

The tag state is a pair of ciphertexts (E(h), E(h^Q(x0))) with h derived
from the tag identity by hashing; in the exponent the second component
accumulates the path polynomial exactly like the manager-verified scheme.
The difference is key distribution: every reader holds, for each
registered path prefix ending at itself, the evaluation K = Q_prefix(x0),
and can test on site whether the presented state matches one of its
prefixes.  A match is announced as a path claim by that reader, so claims
appear at every checkpoint instead of only at the end.

The relation test (does the state encode exponent factor K?) is idealized:
the model performs the comparison internally and hands the reader only the
yes/no outcome plus the matched prefix, mirroring a scheme where readers
can check but not decrypt.
"""

from __future__ import annotations

from functools import partial

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, VerifierPolicyError, register_protocol
from pathtrace.protocols.tracker import group_params
from pathtrace.trace import PathClaim


@register_protocol
class Checker(ProtocolModel):
    name = "checker"
    architecture = "offline"

    CT_BITS = 128

    def setup(self) -> None:
        self.params = group_params(self.config.params.get("group", "default"))
        self.field = crypto.PrimeField(self.params.q)
        self.priv = crypto.elg_keygen(self.rng, self.params)
        self.pub = self.priv.public
        self.x0 = self.field.rand_nonzero(self.rng)
        self.a0 = self.field.rand_nonzero(self.rng)

        reader_tokens = [token for token, _ in self.config.readers]
        self.coeffs = {t: self.field.rand_nonzero(self.rng) for t in reader_tokens}

        # per-reader lists of (registered prefix ending here, its evaluation)
        self.prefix_keys: dict[str, list[tuple[tuple[str, ...], int]]] = {
            t: [] for t in reader_tokens
        }
        for tag_token in self.config.tags:
            for path in self.declared_paths(tag_token):
                self.emit_valid_path(tag_token, path)
                for i in range(len(path)):
                    prefix = path[: i + 1]
                    entry = (prefix, self._eval(prefix))
                    bucket = self.prefix_keys[path[i]]
                    if entry not in bucket:
                        bucket.append(entry)

        self.h_of: dict[str, int] = {}
        self._location: dict[str, str | None] = {}
        for tag_token in self.config.tags:
            self.h_of[tag_token] = crypto.hash_int(b"id" + tag_token.encode(), self.params.q)
            self._location[tag_token] = None
            self._init_tag(tag_token)

        for token in reader_tokens:
            self.net.attach_secrets(token, partial(self.reader_secrets, token))

    def _eval(self, path: tuple[str, ...]) -> int:
        return crypto.path_poly_eval(
            self.field, self.a0, [self.coeffs[t] for t in path], self.x0
        )

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        keys = crypto.concat_length_prefixed(
            *(crypto.int_to_bytes(k) for _, k in self.prefix_keys[reader_token])
        ) if self.prefix_keys[reader_token] else b""
        return {
            "coeff": crypto.int_to_bytes(self.coeffs[reader_token]),
            "x0": crypto.int_to_bytes(self.x0),
            "prefix_keys": keys,
        }

    def _init_tag(self, tag_token: str) -> None:
        h = self.h_of[tag_token]
        mem = self.run.memory(tag_token)
        c1 = crypto.elg_encrypt(self.pub, crypto.encode_exponent(self.params, h), self.rng)
        c2 = crypto.elg_encrypt(
            self.pub,
            crypto.encode_exponent(self.params, self.field.mul(h, self.a0)),
            self.rng,
        )
        mem.store("c1", c1.to_bytes(), nominal_bits=self.CT_BITS)
        mem.store("c2", c2.to_bytes(), nominal_bits=self.CT_BITS)

    def _read_state(self, blob: bytes) -> tuple[crypto.Ciphertext, crypto.Ciphertext] | None:
        try:
            parts = crypto.split_length_prefixed(blob)
        except crypto.CryptoError:
            return None
        if len(parts) != 2 or any(len(p) != 16 for p in parts):
            return None
        c1, c2 = (
            crypto.Ciphertext(
                self.params, crypto.bytes_to_int(p[:8]), crypto.bytes_to_int(p[8:])
            )
            for p in parts
        )
        return c1, c2

    def _state_blob(self, tag_token: str) -> bytes:
        mem = self.run.memory(tag_token)
        return crypto.concat_length_prefixed(mem.load("c1"), mem.load("c2"))

    def _matched_prefix(
        self, reader_token: str, c1: crypto.Ciphertext, c2: crypto.Ciphertext
    ) -> tuple[str, ...] | None:
        """Idealized on-site relation test against the reader's key list."""
        v1 = crypto.elg_decrypt(self.priv, c1)
        v2 = crypto.elg_decrypt(self.priv, c2)
        for prefix, key in self.prefix_keys[reader_token]:
            if pow(v1, key, self.params.p) == v2:
                return prefix
        return None

    def _emit_claim(self, tag_token: str, reader_token: str, prefix: tuple[str, ...]) -> None:
        self.trace.append(
            PathClaim(
                self.run.tag_id(tag_token),
                tuple(self.run.reader_id(t) for t in prefix),
                self.run.reader_id(reader_token),
            )
        )

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        presented = self.net.transmit(tag_token, reader_token, self._state_blob(tag_token))
        if presented is None:
            return False
        state = self._read_state(presented)
        if state is None:
            self.net.log_anomaly(f"checker {reader_token} got malformed state from {tag_token}")
            return False
        c1, c2 = state
        c2 = crypto.hom_mul(crypto.ct_pow(c2, self.x0), crypto.ct_pow(c1, self.coeffs[reader_token]))
        c1 = crypto.rerandomize(self.pub, c1, self.rng)
        c2 = crypto.rerandomize(self.pub, c2, self.rng)
        written = self.net.transmit(
            reader_token, tag_token, crypto.concat_length_prefixed(c1.to_bytes(), c2.to_bytes())
        )
        if written is None:
            return False
        new_state = self._read_state(written)
        if new_state is None:
            self.net.log_anomaly(f"checker {tag_token} got malformed update from {reader_token}")
            return False
        mem = self.run.memory(tag_token)
        mem.store("c1", new_state[0].to_bytes(), nominal_bits=self.CT_BITS)
        mem.store("c2", new_state[1].to_bytes(), nominal_bits=self.CT_BITS)
        self._location[tag_token] = reader_token
        prefix = self._matched_prefix(reader_token, *new_state)
        if prefix is None:
            self.net.log_anomaly(
                f"checker {reader_token} rejects {tag_token}: no prefix key matches"
            )
            return False
        self._emit_claim(tag_token, reader_token, prefix)
        return True

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        reader_token = verifier or self._location[tag_token]
        if reader_token is None:
            self.net.log_anomaly(f"checker has no checkpoint for {tag_token} yet")
            return False
        if reader_token not in self.prefix_keys:
            raise VerifierPolicyError(f"{reader_token} is not a verifying reader")
        presented = self.net.transmit(tag_token, reader_token, self._state_blob(tag_token))
        if presented is None:
            return False
        state = self._read_state(presented)
        if state is None:
            self.net.log_anomaly(f"checker {reader_token} got malformed state from {tag_token}")
            return False
        prefix = self._matched_prefix(reader_token, *state)
        if prefix is None:
            self.net.log_anomaly(
                f"checker {reader_token} rejects {tag_token}: no prefix key matches"
            )
            return False
        self._emit_claim(tag_token, reader_token, prefix)
        return True

    def artifacts(self) -> dict:
        return {
            "group": "test" if self.params == crypto.TEST_PARAMS else "default",
            "x0": self.x0,
            "coeffs": dict(self.coeffs),
            "prefix_lists": {
                t: [list(p) for p, _ in entries] for t, entries in self.prefix_keys.items()
            },
            "public_key": self.pub,
            "storage_bits": {t: self.run.memory(t).used_bits() for t in self.config.tags},
        }
