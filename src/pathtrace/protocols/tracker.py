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

import functools
import struct
from collections.abc import Iterable

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, RunConfig, SetupError, register_protocol


@functools.cache
def _layout(fields: int) -> struct.Struct:
    """A state of ``fields`` ciphertexts as ``concat_length_prefixed`` lays
    it out: per ciphertext the length 16, then c1 and c2 in 8 bytes each."""
    return struct.Struct(">" + "IQQ" * fields)


class PathPolyModel(ProtocolModel):
    """Tag state shared by the two path-polynomial schemes.

    The tag holds one ElGamal ciphertext per name in ``STATE``; the last
    one accumulates the path polynomial.  A reader step folds the reader's
    coefficient into it homomorphically (acc <- acc^x0 * base^a_i, with
    ``base`` the ciphertext before it) and rerandomizes every ciphertext,
    so readers update the path without decrypting.  The fold is one joint
    exponentiation (``crypto.ct_pow_mul``) over the digits of (x0, a_i),
    computed once per reader.  A state travels in a fixed layout, which
    ``_read_state`` unpacks in place.  ``setup`` calls ``_setup_group``
    first and then sets ``x0``, ``a0`` and ``coeffs``.
    """

    CT_BITS = 128  # two 8-byte group elements per ciphertext
    STATE: tuple[str, ...] = ()
    coeffs: dict[str, int]

    def _setup_group(self) -> None:
        self.params = crypto.DEFAULT_PARAMS
        self.priv = crypto.elg_keygen(self.rng, self.params)
        self.pub = self.priv.public
        # reader -> joint_digits of (x0, its coefficient), computed at its first fold
        self._fold_digits: dict[str, tuple[int, ...]] = {}

    def _path_eval(self, path: tuple[str, ...]) -> int:
        return crypto.path_poly_eval(
            self.params.q, self.a0, [self.coeffs[t] for t in path], self.x0
        )

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        return {
            "coeff": crypto.int_to_bytes(self.coeffs[reader_token]),
            "x0": crypto.int_to_bytes(self.x0),
        }

    # --- state (de)serialization ---------------------------------------

    def _init_state(self, tag_token: str, *exponents: int) -> None:
        """Encrypt g^e for each exponent, then the accumulator of the empty
        path, g^(base * a0) with ``base`` the last exponent."""
        last = exponents[-1] * self.a0 % self.params.q
        elems = [crypto.encode_exponent(self.params, e) for e in (*exponents, last)]
        self._store_state(tag_token, [crypto.elg_encrypt(self.pub, e, self.rng) for e in elems])

    def _store_state(self, tag_token: str, state: Iterable[crypto.Ciphertext]) -> None:
        mem = self.run.memory(tag_token)
        for name, ct in zip(self.STATE, state):
            mem.store(name, ct.to_bytes(), nominal_bits=self.CT_BITS)

    def _read_state(self, blob: bytes) -> tuple[crypto.Ciphertext, ...] | None:
        """The ciphertexts in ``blob``; None unless it holds one field per
        name in ``STATE``, each a length prefix of 16 and two 8-byte
        components in 1..p-1."""
        try:
            fields = _layout(len(self.STATE)).unpack(blob)
        except struct.error:
            return None
        c1s, c2s = fields[1::3], fields[2::3]
        components = c1s + c2s
        # a component outside 1..p-1 is no group element and cannot decrypt
        if set(fields[::3]) != {16} or min(components) < 1 or max(components) >= self.params.p:
            return None
        return tuple(crypto.Ciphertext(self.params, c1, c2) for c1, c2 in zip(c1s, c2s))

    def _state_blob(self, tag_token: str) -> bytes:
        mem = self.run.memory(tag_token)
        return crypto.concat_length_prefixed(*(mem.load(name) for name in self.STATE))

    # --- protocol steps -------------------------------------------------

    def _present(
        self, tag_token: str, reader_token: str, malformed: str
    ) -> tuple[crypto.Ciphertext, ...] | None:
        """The tag's state as the reader receives it (``_receive``)."""
        presented = self.net.transmit(tag_token, reader_token, self._state_blob(tag_token))
        return self._receive(presented, self._read_state, malformed)

    def _reader_step(
        self, tag_token: str, reader_token: str
    ) -> tuple[crypto.Ciphertext, ...] | None:
        """Fold the reader into the tag's path; the stored state, or None."""
        malformed = f"{self.name} {reader_token} got malformed state from {tag_token}"
        state = self._present(tag_token, reader_token, malformed)
        if state is None:
            return None
        *rest, base, acc = state
        digits = self._fold_digits.get(reader_token)
        if digits is None:
            digits = crypto.joint_digits(self.params, self.x0, self.coeffs[reader_token])
            self._fold_digits[reader_token] = digits
        acc = crypto.ct_pow_mul(acc, base, digits)
        fresh = [crypto.rerandomize(self.pub, ct, self.rng) for ct in (*rest, base, acc)]
        written = self.net.transmit(
            reader_token,
            tag_token,
            _layout(len(self.STATE)).pack(*(n for ct in fresh for n in (16, ct.c1, ct.c2))),
        )
        new_state = self._receive(
            written,
            self._read_state,
            f"{self.name} {tag_token} got malformed update from {reader_token}",
        )
        if new_state is None:
            return None
        self._store_state(tag_token, new_state)
        return new_state


@register_protocol
class Tracker(PathPolyModel):
    name = "tracker"
    architecture = "offline"
    param_keys = ("manager", "equal")

    STATE = ("c1", "c2", "c3")

    @staticmethod
    def manager_of(config: RunConfig) -> str | None:
        """The manager: ``param manager``, or else the last reader."""
        last = config.readers[-1][0] if config.readers else None
        return config.params.get("manager", last)

    @classmethod
    def check_setup(cls, config: RunConfig, paths_of: dict[str, list[tuple[str, ...]]]) -> None:
        """Every reader on a registered path holds a coefficient: it is a
        reader, not a transit, and not the manager, named or defaulted."""
        manager = cls.manager_of(config)
        holders = {token for token, _ in config.readers} - {manager}
        for tag_token, paths in paths_of.items():
            for path in paths:
                for token in path:
                    if token in holders:
                        continue
                    what = "the manager" if token == manager else "not a protocol reader"
                    raise SetupError(
                        f"tracker reader {token} on a registered path of {tag_token} is {what}"
                        " and holds no path coefficient",
                        tag_token,
                        path,
                    )

    def setup(self) -> None:
        self._setup_group()
        self.mac_key = self.rng.randbytes(32)
        q = self.params.q
        self.x0 = self.rng.randrange(1, q)
        self.a0 = self.rng.randrange(1, q)

        self.verifier = self.manager_of(self.config)
        self.coeffs: dict[str, int] = {}
        equal_group = [t for t in self.config.params.get("equal", "").split(",") if t]
        shared = self.rng.randrange(1, q) if equal_group else None
        for token in self.run.readers:
            if token == self.verifier:
                continue
            if token in equal_group:
                self.coeffs[token] = shared
            else:
                self.coeffs[token] = self.rng.randrange(1, q)

        # registered paths and the manager's pre-computed acceptance table
        self.id_elem: dict[str, int] = {}
        self.mac_elem: dict[str, int] = {}
        self.accept: dict[str, dict[int, tuple[str, ...]]] = {}
        for tag_token, paths in self.paths_of.items():
            mac_t = crypto.hash_int(crypto.mac(self.mac_key, tag_token.encode()), q)
            id_t = crypto.hash_int(b"id" + tag_token.encode(), q)
            self.id_elem[tag_token] = crypto.encode_exponent(self.params, id_t)
            self.mac_elem[tag_token] = crypto.encode_exponent(self.params, mac_t)
            table: dict[int, tuple[str, ...]] = {}
            for path in paths:
                value = self._path_eval(path)
                elem = crypto.encode_exponent(self.params, mac_t * value % q)
                table.setdefault(elem, path)
            self.accept[tag_token] = table
            self._init_state(tag_token, id_t, mac_t)

    def compromisable(self) -> list[str]:
        """The manager only verifies; it holds no coefficient to surrender."""
        return [t for t in super().compromisable() if t != self.verifier]

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        if reader_token == self.verifier:
            return True  # the manager only verifies, via the claim phase
        return self._reader_step(tag_token, reader_token) is not None

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        state = self._present(tag_token, self.verifier, "tracker manager got malformed state")
        if state is None:
            return False
        c1, c2, c3 = state
        ident = crypto.elg_decrypt(self.priv, c1)
        if ident != self.id_elem.get(tag_token):
            self.net.log_anomaly(f"tracker manager cannot identify {tag_token}")
            return False
        mac_elem = crypto.elg_decrypt(self.priv, c2)
        if mac_elem != self.mac_elem[tag_token]:
            self.net.log_anomaly(f"tracker manager mac check failed for {tag_token}")
            return False
        evaluation = crypto.elg_decrypt(self.priv, c3)
        path = self.accept[tag_token].get(evaluation)
        if path is None:
            # a non-registered path was taken; which one cannot be told
            self.net.log_anomaly(f"tracker manager rejects {tag_token}: unknown path evaluation")
            return False
        self.emit_claim(tag_token, path, self.run.reader_id(self.verifier))
        return True
