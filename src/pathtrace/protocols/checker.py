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

An honest tag presents a state built on one of its own registered
prefixes, so setup maps, per reader, each tag's (g^h, g^(h*K)) for its own
prefixes ending there to the prefix: such a state costs one lookup and no
exponentiation, and a hit is exact, since it is v2 == v1^K itself.  Any
other state (a tag on another tag's path, a forged state, or one built for
no registered tag) tries the reader's keys in bucket order, which finds the
same first entry the lookup would.

The on-site test decrypts a state the model wrote as g^(l2 - x*l1) from
its components' logs, with no pow; any other state is decrypted with
``elg_decrypt`` (see ``PathPolyModel``).  Both give the same v1 and v2.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.protocols.base import VerifierPolicyError, register_protocol
from pathtrace.protocols.tracker import PathPolyModel, State


@register_protocol
class Checker(PathPolyModel):
    name = "checker"
    architecture = "offline"

    STATE = ("c1", "c2")
    path_reader_holds = "path coefficient"

    def setup(self) -> None:
        self._setup_group()
        q = self.params.q
        self.x0 = self.rng.randrange(1, q)
        self.a0 = self.rng.randrange(1, q)

        self.coeffs = {t: self.rng.randrange(1, q) for t in self.run.readers}

        self._location: dict[str, str | None] = dict.fromkeys(self.config.tags)
        # per-reader lists of (registered prefix ending here, its evaluation),
        # and per reader (g^h, g^(h*K)) -> the first such entry with that K in
        # list order, for each tag's own prefixes with h != 0
        self.prefix_keys: dict[str, list[tuple[tuple[str, ...], int]]] = {
            t: [] for t in self.run.readers
        }
        self._own_key: dict[str, dict[tuple[int, int], tuple[tuple[str, ...], int]]] = {
            t: {} for t in self.run.readers
        }
        first: dict[tuple[str, int], tuple[tuple[str, ...], int]] = {}  # (reader, K) -> entry
        for tag_token, paths in self.paths_of.items():
            h = crypto.hash_int(b"id" + tag_token.encode(), q)
            v1 = crypto.encode_exponent(self.params, h)
            self._init_state(tag_token, h)
            for path in paths:
                for i, reader in enumerate(path):
                    prefix = path[: i + 1]
                    key = self._path_eval(prefix)
                    entry = (prefix, key)
                    bucket = self.prefix_keys[reader]
                    if entry not in bucket:
                        bucket.append(entry)
                    first.setdefault((reader, key), entry)
                    if h:
                        v2 = crypto.gpow(self.params, h * key)
                        self._own_key[reader][v1, v2] = first[reader, key]

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        keys = crypto.concat_length_prefixed(
            *(crypto.int_to_bytes(k) for _, k in self.prefix_keys[reader_token])
        )
        return {**super().reader_secrets(reader_token), "prefix_keys": keys}

    def _check_on_site(self, tag_token: str, reader_token: str, state: State) -> bool:
        """Idealized on-site relation test, v2 == v1^K for a key K of the
        reader; the first matching prefix is claimed by that reader.

        A state built on a tag's own registered prefix is found by one
        lookup of (v1, v2); any other state tries the reader's keys in order.
        The model decrypts a state it wrote from its logs, without a pow."""
        v1, v2 = self._plaintexts(state)
        match = self._own_key[reader_token].get((v1, v2))
        if match is None:
            p = self.params.p
            keys = self.prefix_keys[reader_token]
            match = next((entry for entry in keys if pow(v1, entry[1], p) == v2), None)
        if match is None:
            self.net.log_anomaly(
                f"checker {reader_token} rejects {tag_token}: no prefix key matches"
            )
            return False
        self.emit_claim(tag_token, match[0], reader_token)
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
        malformed = f"checker {reader_token} got malformed state from {tag_token}"
        state = self._present(tag_token, reader_token, malformed)
        return state is not None and self._check_on_site(tag_token, reader_token, state)
