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

The test costs O(1) per state, not one exponentiation per prefix key.  The
group has prime order q, so for v1 = g^h with h != 0 mod q the relation
v2 == v1^K holds exactly when v2 lies in <g> and v2^(h^-1 mod q) == g^K.
Setup therefore maps each tag's g^h to (h, h^-1) and, per reader, each
g^K to its prefix.  A state whose v1 is some tag's g^h costs one
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

        # per-reader lists of (registered prefix ending here, its evaluation),
        # and per reader g^K -> the first such entry with that K in list order
        self.prefix_keys: dict[str, list[tuple[tuple[str, ...], int]]] = {
            t: [] for t in reader_tokens
        }
        self._key_of: dict[str, dict[int, tuple[tuple[str, ...], int]]] = {
            t: {} for t in reader_tokens
        }
        for paths in self.paths_of.values():
            for path in paths:
                for i in range(len(path)):
                    prefix = path[: i + 1]
                    key = self._path_eval(prefix)
                    entry = (prefix, key)
                    bucket = self.prefix_keys[path[i]]
                    if entry not in bucket:
                        bucket.append(entry)
                        elem = crypto.encode_exponent(self.params, key)
                        self._key_of[path[i]].setdefault(elem, entry)

        self._location: dict[str, str | None] = dict.fromkeys(self.config.tags)
        # g^h -> (h, h^-1 mod q), for h != 0
        self._exponent_of: dict[int, tuple[int, int]] = {}
        for tag_token in self.config.tags:
            h = crypto.hash_int(b"id" + tag_token.encode(), q)
            if h:
                self._exponent_of[crypto.encode_exponent(self.params, h)] = (h, pow(h, -1, q))
            self._init_state(tag_token, h)

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

        A v1 that is some tag's g^h is tested by one lookup of
        v2^(h^-1) among the reader's g^K, confirmed by g^(h*K) == v2; any
        other v1 tries the reader's keys in order."""
        p = self.params.p
        v1, v2 = (crypto.elg_decrypt(self.priv, ct) for ct in state)
        exponent = self._exponent_of.get(v1)
        if exponent is not None:
            h, inverse = exponent
            hit = self._key_of[reader_token].get(pow(v2, inverse, p))
            confirmed = hit is not None and crypto.gpow(self.params, h * hit[1]) == v2
            match = hit if confirmed else None
        else:
            match = next(
                (entry for entry in self.prefix_keys[reader_token] if pow(v1, entry[1], p) == v2),
                None,
            )
        if match is None:
            self.net.log_anomaly(
                f"checker {reader_token} rejects {tag_token}: no prefix key matches"
            )
            return False
        self.emit_claim(tag_token, match[0], self.run.reader_id(reader_token))
        return True

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
