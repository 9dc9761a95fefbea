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

The test costs O(1) per state, not one exponentiation per prefix key.  An
honest tag presents a state built on one of its own registered prefixes,
so setup maps, per reader, each tag's (g^h, g^(h*K)) for its own prefixes
ending there to the prefix: such a state costs one lookup and no
exponentiation, and a hit is exact, since it is v2 == v1^K itself.  For
any other state the group's prime order q helps: for v1 = g^h with
h != 0 mod q the relation v2 == v1^K holds exactly when v2 lies in <g>
and v2^(h^-1 mod q) == g^K.  Setup therefore also maps each tag's g^h to
(h, h^-1) and, per reader, each g^K to its prefix.  A state whose v1 is
some tag's g^h (say, a tag on another tag's path) costs one
exponentiation and a lookup, and a hit is confirmed by g^(h*K) == v2,
raised from the generator's table; that equals v1^K == v2 and also
refuses a v2 outside <g>.  Any other v1 (a forged state, or one built for
no registered tag) falls back to trying every key in bucket order.
"""

from __future__ import annotations

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
        q = self.params.q
        self.x0 = self.rng.randrange(1, q)
        self.a0 = self.rng.randrange(1, q)

        reader_tokens = [token for token, _ in self.config.readers]
        self.coeffs = {t: self.rng.randrange(1, q) for t in reader_tokens}

        self._location: dict[str, str | None] = dict.fromkeys(self.config.tags)
        # g^h -> (h, h^-1 mod q), for h != 0
        self._exponent_of: dict[int, tuple[int, int]] = {}
        identity: dict[str, tuple[int, int]] = {}  # tag -> (h, g^h)
        for tag_token in self.config.tags:
            h = crypto.hash_int(b"id" + tag_token.encode(), q)
            v1 = crypto.encode_exponent(self.params, h)
            identity[tag_token] = (h, v1)
            if h:
                self._exponent_of[v1] = (h, pow(h, -1, q))
            self._init_state(tag_token, h)

        # per-reader lists of (registered prefix ending here, its evaluation),
        # per reader g^K -> the first such entry with that K in list order,
        # and per reader (g^h, g^(h*K)) -> that entry, for each tag's own
        # prefixes with h != 0
        self.prefix_keys: dict[str, list[tuple[tuple[str, ...], int]]] = {
            t: [] for t in reader_tokens
        }
        self._key_of: dict[str, dict[int, tuple[tuple[str, ...], int]]] = {
            t: {} for t in reader_tokens
        }
        self._own_key: dict[str, dict[tuple[int, int], tuple[tuple[str, ...], int]]] = {
            t: {} for t in reader_tokens
        }
        first: dict[tuple[str, int], tuple[tuple[str, ...], int]] = {}  # (reader, K) -> entry
        for tag_token, paths in self.paths_of.items():
            h, v1 = identity[tag_token]
            for path in paths:
                for i, reader in enumerate(path):
                    prefix = path[: i + 1]
                    key = self._path_eval(prefix)
                    entry = (prefix, key)
                    bucket = self.prefix_keys[reader]
                    if entry not in bucket:
                        bucket.append(entry)
                        if (reader, key) not in first:
                            first[reader, key] = entry
                            self._key_of[reader][crypto.encode_exponent(self.params, key)] = entry
                    if h:
                        v2 = crypto.gpow(self.params, h * key)
                        self._own_key[reader][v1, v2] = first[reader, key]

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        keys = crypto.concat_length_prefixed(
            *(crypto.int_to_bytes(k) for _, k in self.prefix_keys[reader_token])
        )
        return {**super().reader_secrets(reader_token), "prefix_keys": keys}

    def _check_on_site(
        self, tag_token: str, reader_token: str, state: tuple[crypto.Ciphertext, ...]
    ) -> bool:
        """Idealized on-site relation test, v2 == v1^K for a key K of the
        reader; the first matching prefix is claimed by that reader.

        A state built on a tag's own registered prefix is found by one
        lookup of (v1, v2); any other state goes to ``_match_other``."""
        v1, v2 = (crypto.elg_decrypt(self.priv, ct) for ct in state)
        match = self._own_key[reader_token].get((v1, v2))
        if match is None:
            match = self._match_other(reader_token, v1, v2)
        if match is None:
            self.net.log_anomaly(
                f"checker {reader_token} rejects {tag_token}: no prefix key matches"
            )
            return False
        self.emit_claim(tag_token, match[0], self.run.reader_id(reader_token))
        return True

    def _match_other(
        self, reader_token: str, v1: int, v2: int
    ) -> tuple[tuple[str, ...], int] | None:
        """The reader's first entry (prefix, K) with v2 == v1^K, or None.

        A v1 that is some tag's g^h is tested by one lookup of v2^(h^-1)
        among the reader's g^K, confirmed by g^(h*K) == v2; any other v1
        tries the reader's keys in order."""
        p = self.params.p
        exponent = self._exponent_of.get(v1)
        if exponent is None:
            return next(
                (entry for entry in self.prefix_keys[reader_token] if pow(v1, entry[1], p) == v2),
                None,
            )
        h, inverse = exponent
        hit = self._key_of[reader_token].get(pow(v2, inverse, p))
        return hit if hit is not None and crypto.gpow(self.params, h * hit[1]) == v2 else None

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
