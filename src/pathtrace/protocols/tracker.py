"""Polynomial path encoding under homomorphic ElGamal, manager verification.

Paths are encoded by evaluating a polynomial whose coefficients belong to
the readers: after visiting (r_1 .. r_l) the tag carries, in the exponent,
mac_t * (a_0 x0^l + sum a_{r_i} x0^(l-i)).  Readers update the encrypted
state homomorphically without decrypting; only the manager, a special
reader holding the decryption key, can verify, by comparing against
pre-computed evaluations of the registered paths.  The manager can tell
that a non-registered path was taken but never which one.

A state takes one of two paths through the model (see ``PathPolyModel``):
the bytes the model last wrote to a tag are folded, rerandomized and
decrypted from the discrete logs of their components, which the model
knows because it drew every exponent; any other bytes go through
``crypto.ct_pow``, ``hom_mul``, ``rerandomize`` and ``elg_decrypt``.  Both
give the same elements, so the same report.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterator, Sequence
from typing import NamedTuple, Union

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, RunConfig, register_protocol


@functools.cache
def _layout(fields: int) -> struct.Struct:
    """A state of ``fields`` ciphertexts as ``concat_length_prefixed`` lays
    it out: per ciphertext the length 16, then c1 and c2 in 8 bytes each."""
    return struct.Struct(">" + "IQQ" * fields)


class KnownState(NamedTuple):
    """A state blob the model wrote, with the discrete log base g of each of
    its components: c1 then c2 of each ciphertext, in ``STATE`` order."""

    blob: bytes
    logs: tuple[int, ...]


# what a reader receives: a state the model knows the logs of, or the
# ciphertexts parsed from bytes it did not write
State = Union[KnownState, tuple[crypto.Ciphertext, ...]]


class PathPolyModel(ProtocolModel):
    """Tag state shared by the two path-polynomial schemes.

    The tag holds one ElGamal ciphertext per name in ``STATE``; the last
    one accumulates the path polynomial.  A reader step folds the reader's
    coefficient into it homomorphically (acc <- acc^x0 * base^a_i, with
    ``base`` the ciphertext before it) and rerandomizes every ciphertext,
    so readers update the path without decrypting.  A state travels in a
    fixed layout, which ``_read_state`` unpacks in place.  ``setup`` calls
    ``_setup_group`` first and then sets ``x0``, ``a0`` and ``coeffs``.

    The model drew every exponent of the states it writes (each ``r`` of an
    encryption or a rerandomization, ``x``, ``x0``, ``a0`` and each
    ``a_i``), so it knows the log base g of each of their components, and
    remembers, per tag, the last state it wrote with those logs
    (``_remember``).  A tag that presents exactly those bytes takes the
    known path: the fold is ``l_acc <- x0*l_acc + a_i*l_base`` per
    component, a rerandomization adds ``r`` to the log of c1 and ``x*r`` to
    that of c2, a plaintext is ``g^(l2 - x*l1)``, and each element is one
    raise of the generator's table (``crypto.gpow``).  Any other bytes (a
    dropped, modified, injected, cloned or adversary-written state) take
    the generic path: ``crypto.ct_pow`` of acc and base, their
    ``crypto.hom_mul``, then ``crypto.rerandomize`` and
    ``crypto.elg_decrypt``.  The two agree on every element, because g has
    order q, so (g^l)^k = g^(k*l mod q); the draws are the same and in the
    same order, so every report byte is too.  The remembered states stay
    one per tag: each write replaces its tag's.
    """

    CT_BITS = 128  # two 8-byte group elements per ciphertext
    STATE: tuple[str, ...] = ()
    coeffs: dict[str, int]

    def _setup_group(self) -> None:
        self.params = crypto.DEFAULT_PARAMS
        self.priv = crypto.elg_keygen(self.rng, self.params)
        self.pub = self.priv.public
        # tag -> the state the model last wrote to it, when it knows its logs
        self._known: dict[str, KnownState] = {}

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
        path, g^(base * a0) with ``base`` the last exponent.  Encrypting
        g^e is rerandomizing (1, g^e), whose logs are (0, e), with the draw
        ``crypto.elg_encrypt`` makes."""
        last = exponents[-1] * self.a0 % self.params.q
        logs = [log for e in (*exponents, last) for log in (0, e)]
        state = self._known_state(self._rerandomized(logs))
        self._store_state(tag_token, state.blob)
        self._remember(tag_token, state)

    def _rerandomized(self, logs: Sequence[int]) -> list[int]:
        """The logs of ``crypto.rerandomize`` of each ciphertext of ``logs``,
        in order and with its draw: c1 gains r and c2 gains x*r."""
        q, x, rng = self.params.q, self.priv.x, self.rng
        out = []
        for l1, l2 in zip(logs[::2], logs[1::2]):
            r = rng.randrange(1, q)
            out += ((l1 + r) % q, (l2 + x * r) % q)
        return out

    def _known_state(self, logs: list[int]) -> KnownState:
        """The state whose components have these logs, one table raise each."""
        return KnownState(self._pack([crypto.gpow(self.params, e) for e in logs]), tuple(logs))

    def _pack(self, components: Sequence[int]) -> bytes:
        """The layout of the ciphertexts (c1, c2, c1, c2, ...) in ``components``."""
        pairs = zip(components[::2], components[1::2])
        return _layout(len(self.STATE)).pack(*(n for c1, c2 in pairs for n in (16, c1, c2)))

    def _store_state(self, tag_token: str, blob: bytes) -> None:
        """Write a state blob of the fixed layout into the tag's fields: per
        ciphertext, the 16 bytes after its 4-byte length prefix."""
        mem = self.run.memory(tag_token)
        for i, name in enumerate(self.STATE):
            mem.store(name, blob[20 * i + 4 : 20 * i + 20], nominal_bits=self.CT_BITS)

    def _remember(self, tag_token: str, state: KnownState | None) -> None:
        """Replace the state the model last wrote to the tag: ``state``, or
        nothing when it wrote one whose logs it does not know."""
        if state is None:
            self._known.pop(tag_token, None)
        else:
            self._known[tag_token] = state

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

    def _take(self, tag_token: str, arrived: bytes | None, malformed: str) -> State | None:
        """What arrived for the tag: the state the model last wrote to it
        when the bytes are that state's, else ``_receive`` of them."""
        known = self._known.get(tag_token)
        if known is not None and arrived == known.blob:
            return known
        return self._receive(arrived, self._read_state, malformed)

    def _plaintexts(self, state: State) -> Iterator[int]:
        """The plaintext of each ciphertext of ``state``, decrypted as it is
        asked for: g^(l2 - x*l1) for a known state, else ``elg_decrypt``."""
        if isinstance(state, KnownState):
            logs, x = state.logs, self.priv.x
            for l1, l2 in zip(logs[::2], logs[1::2]):
                yield crypto.gpow(self.params, l2 - x * l1)
        else:
            for ct in state:
                yield crypto.elg_decrypt(self.priv, ct)

    # --- protocol steps -------------------------------------------------

    def _present(self, tag_token: str, reader_token: str, malformed: str) -> State | None:
        """The tag's state as the reader receives it (``_take``)."""
        presented = self.net.transmit(tag_token, reader_token, self._state_blob(tag_token))
        return self._take(tag_token, presented, malformed)

    def _reader_step(self, tag_token: str, reader_token: str) -> State | None:
        """Fold the reader into the tag's path; the stored state, or None."""
        malformed = f"{self.name} {reader_token} got malformed state from {tag_token}"
        state = self._present(tag_token, reader_token, malformed)
        if state is None:
            return None
        x0, coeff = self.x0, self.coeffs[reader_token]
        if isinstance(state, KnownState):
            *rest, b1, b2, a1, a2 = state.logs
            folded = [*rest, b1, b2, x0 * a1 + coeff * b1, x0 * a2 + coeff * b2]
            fresh: KnownState | None = self._known_state(self._rerandomized(folded))
            blob = fresh.blob
        else:
            *rest, base, acc = state
            acc = crypto.hom_mul(crypto.ct_pow(acc, x0), crypto.ct_pow(base, coeff))
            cts = [crypto.rerandomize(self.pub, ct, self.rng) for ct in (*rest, base, acc)]
            fresh = None
            blob = self._pack([n for ct in cts for n in (ct.c1, ct.c2)])
        written = self.net.transmit(reader_token, tag_token, blob)
        self._remember(tag_token, fresh)
        new_state = self._take(
            tag_token, written, f"{self.name} {tag_token} got malformed update from {reader_token}"
        )
        if new_state is None:
            return None
        self._store_state(tag_token, written)
        return new_state


@register_protocol
class Tracker(PathPolyModel):
    name = "tracker"
    architecture = "offline"
    param_keys = ("manager", "equal")

    STATE = ("c1", "c2", "c3")
    path_reader_holds = "path coefficient"

    @staticmethod
    def manager_of(config: RunConfig) -> str | None:
        """The manager: ``param manager``, or else the last reader."""
        last = config.readers[-1][0] if config.readers else None
        return config.params.get("manager", last)

    @classmethod
    def reader_roles(cls, config: RunConfig) -> dict[str, str | None]:
        """The manager, named or defaulted, only verifies: it holds no
        coefficient either."""
        roles = super().reader_roles(config)
        manager = cls.manager_of(config)
        if manager is not None:
            roles[manager] = "the manager"
        return roles

    def setup(self) -> None:
        self.verifier = self.manager_of(self.config)
        if self.verifier not in (None, *self.run.readers, *self.run.transits):
            raise ValueError(f"tracker manager {self.verifier} is neither a reader nor a transit")
        self._setup_group()
        self.mac_key = self.rng.randbytes(32)
        q = self.params.q
        self.x0 = self.rng.randrange(1, q)
        self.a0 = self.rng.randrange(1, q)

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
        if self.verifier is None:
            self.net.log_anomaly(f"tracker has no manager to verify {tag_token}")
            return False
        state = self._present(tag_token, self.verifier, "tracker manager got malformed state")
        if state is None:
            return False
        plaintexts = self._plaintexts(state)
        if next(plaintexts) != self.id_elem.get(tag_token):
            self.net.log_anomaly(f"tracker manager cannot identify {tag_token}")
            return False
        if next(plaintexts) != self.mac_elem[tag_token]:
            self.net.log_anomaly(f"tracker manager mac check failed for {tag_token}")
            return False
        path = self.accept[tag_token].get(next(plaintexts))
        if path is None:
            # a non-registered path was taken; which one cannot be told
            self.net.log_anomaly(f"tracker manager rejects {tag_token}: unknown path evaluation")
            return False
        self.emit_claim(tag_token, path, self.verifier)
        return True
