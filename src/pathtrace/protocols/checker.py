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
from pathtrace.protocols.base import VerifierPolicyError, register_protocol
from pathtrace.protocols.tracker import PathPolyModel


@register_protocol
class Checker(PathPolyModel):
    name = "checker"
    architecture = "offline"

    STATE = ("c1", "c2")

    def setup(self) -> None:
        self._setup_group()
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
                    entry = (prefix, self._path_eval(prefix))
                    bucket = self.prefix_keys[path[i]]
                    if entry not in bucket:
                        bucket.append(entry)

        self._location: dict[str, str | None] = dict.fromkeys(self.config.tags)
        for tag_token in self.config.tags:
            self._init_state(tag_token, crypto.hash_int(b"id" + tag_token.encode(), self.params.q))

        for token in reader_tokens:
            self.net.attach_secrets(token, partial(self.reader_secrets, token))

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        keys = crypto.concat_length_prefixed(
            *(crypto.int_to_bytes(k) for _, k in self.prefix_keys[reader_token])
        )
        return {**super().reader_secrets(reader_token), "prefix_keys": keys}

    def _check_on_site(
        self, tag_token: str, reader_token: str, state: tuple[crypto.Ciphertext, ...]
    ) -> bool:
        """Idealized on-site relation test against the reader's key list;
        the matched prefix is claimed by that reader."""
        v1, v2 = (crypto.elg_decrypt(self.priv, ct) for ct in state)
        for prefix, key in self.prefix_keys[reader_token]:
            if pow(v1, key, self.params.p) == v2:
                self.emit_claim(tag_token, prefix, self.run.reader_id(reader_token))
                return True
        self.net.log_anomaly(f"checker {reader_token} rejects {tag_token}: no prefix key matches")
        return False

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        state = self._reader_step(tag_token, reader_token)
        if state is None:
            return False
        self._location[tag_token] = reader_token
        return self._check_on_site(tag_token, reader_token, state)

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        reader_token = verifier or self._location[tag_token]
        if reader_token is None:
            self.net.log_anomaly(f"checker has no checkpoint for {tag_token} yet")
            return False
        if reader_token not in self.prefix_keys:
            raise VerifierPolicyError(f"{reader_token} is not a verifying reader")
        state = self._present(tag_token, reader_token)
        return state is not None and self._check_on_site(tag_token, reader_token, state)
