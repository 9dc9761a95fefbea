"""Dolev-Yao network model with two adversary strengths.

Every untrusted transmission passes through an adversary strategy that may
deliver, modify, drop or inject messages, and every observed payload feeds
the adversary's knowledge: the payload and every field ``decompose`` reads
out of it.  Observed payloads are decomposed on the first query that
follows them, so a run that never asks pays for no decomposition.

The ``Network`` is the adversary's one handle: ``STRATEGIES`` names the
strategies a run may choose, and the methods ``read_tag``, ``write_tag``,
``compromise`` and ``inject`` are its capabilities, at two levels:

* AdvT - full network control plus reading and writing tag memory;
* AdvR - additionally compromises readers, obtaining their secrets.

Each network message - transmissions, tag reads and writes, compromises
and injections - is written once, by ``Network._record``, to an
append-only log of ``Message`` records; the same call feeds what the
adversary saw into its knowledge; ``Message.line`` renders one record as
a transcript line.  ``decompose`` is the one definition of what can be
read out of a payload without a key.

Tag memory is modelled with nominal bit accounting so that protocol storage
formulas and capacity violations are observable.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, NamedTuple

from pathtrace import crypto


class AdvModel(enum.Enum):
    ADV_T = "AdvT"
    ADV_R = "AdvR"

    def __str__(self) -> str:
        return self.value


class CapabilityError(Exception):
    """An operation outside the configured adversary model was attempted."""


class TagCapacityError(Exception):
    """A write would exceed the tag's nominal storage capacity."""


class TagMemory:
    """Field store with nominal bit accounting against a capacity.

    ``_used`` is the sum of ``_nominal``, kept up to date by every write.
    A field the tag does not hold reads as ``b""``: that is what a scheme
    finds after ``overwrite`` replaced its layout, and its own parse
    refuses it.
    """

    def __init__(self, capacity_bits: int = 512) -> None:
        self.capacity_bits = capacity_bits
        self._fields: dict[str, bytes] = {}
        self._nominal: dict[str, int] = {}
        self._used = 0

    def used_bits(self) -> int:
        return self._used

    def store(self, name: str, value: bytes, nominal_bits: int | None = None) -> None:
        bits = len(value) * 8 if nominal_bits is None else nominal_bits
        new_total = self._used - self._nominal.get(name, 0) + bits
        if new_total > self.capacity_bits:
            raise TagCapacityError(
                f"{new_total} bits exceed tag capacity of {self.capacity_bits}"
            )
        self._fields[name] = value
        self._nominal[name] = bits
        self._used = new_total

    def load(self, name: str) -> bytes:
        return self._fields.get(name, b"")

    def names(self) -> list[str]:
        return list(self._fields)

    def snapshot(self) -> bytes:
        parts: list[bytes] = []
        for name, value in self._fields.items():
            parts.append(name.encode())
            parts.append(value)
        return crypto.concat_length_prefixed(*parts)

    def overwrite(self, data: bytes) -> None:
        """Replace the whole contents with attacker-chosen bytes: the fields
        of a snapshot, or else one ``__raw__`` field.  Each value counts 8
        bits a byte, and the write is refused when they exceed capacity."""
        fields = read_snapshot(data)
        if fields is None:
            fields = {"__raw__": data}
        nominal = {name: len(value) * 8 for name, value in fields.items()}
        used = sum(nominal.values())
        if used > self.capacity_bits:
            raise TagCapacityError(f"{used} bits exceed tag capacity of {self.capacity_bits}")
        self._fields, self._nominal, self._used = fields, nominal, used


def read_snapshot(snapshot: bytes) -> dict[str, bytes] | None:
    """Field names and values of a ``TagMemory.snapshot``; None for bytes
    of another shape."""
    parts = crypto.split_fields(snapshot)
    if parts is None or len(parts) % 2:
        return None
    try:
        return {parts[i].decode(): parts[i + 1] for i in range(0, len(parts), 2)}
    except UnicodeDecodeError:
        return None


def decompose(blobs: Iterable[bytes], known: dict[bytes, None] | None = None) -> dict[bytes, None]:
    """Every blob plus every field readable out of it without a key.

    Each blob is split once: a signature blob yields its message and tag,
    any other blob of two or more length-prefixed fields yields its
    non-empty fields, and the fields are read the same way in turn.  New
    atoms join ``known`` (a fresh dict when omitted) in depth-first order;
    an atom already there is not read again.  Returns ``known``.
    """
    seen: dict[bytes, None] = {} if known is None else known
    stack = list(blobs)[::-1]
    while stack:
        data = stack.pop()
        if data in seen:
            continue
        seen[data] = None
        # two fields need two 4-byte prefixes, and the first must fit
        if len(data) < 8 or int.from_bytes(data[:4], "big") > len(data) - 4:
            continue
        try:
            parts = crypto.split_length_prefixed(data)
        except crypto.CryptoError:
            continue
        if len(parts) == 4 and parts[0] == b"SIG":
            stack += (parts[3], parts[2])
        elif len(parts) >= 2:
            stack.extend(part for part in reversed(parts) if part)
    return seen


class Knowledge:
    """Ordered set of the byte strings the adversary has observed.

    Observation adds a payload and every field ``decompose`` reads out of
    it; nothing is derived beyond that.  ``observe`` only queues the
    payload: each query first decomposes the queued payloads in the order
    they were observed, which yields the same atoms in the same order as
    decomposing each one on arrival.
    """

    def __init__(self) -> None:
        self._atoms: dict[bytes, None] = {}
        self._pending: list[bytes] = []

    def observe(self, data: bytes) -> None:
        self._pending.append(data)

    def _drain(self) -> dict[bytes, None]:
        if self._pending:
            pending, self._pending = self._pending, []
            decompose(pending, self._atoms)
        return self._atoms

    def atoms(self) -> list[bytes]:
        return list(self._drain())

    def knows(self, data: bytes) -> bool:
        return data in self._drain()

    def __len__(self) -> int:
        return len(self._drain())


class Envelope(NamedTuple):
    seq: int
    sender: str
    receiver: str
    payload: bytes


class Message(NamedTuple):
    """One logged message: the payload as it arrived (or, when dropped, as
    it was sent) and the bytes the adversary saw, None when it saw none."""

    seq: int
    sender: str
    receiver: str
    payload: bytes
    action: str
    seen: bytes | None

    def line(self) -> str:
        return f"{self.seq} {self.sender}->{self.receiver} {self.payload.hex()} {self.action}"


# A strategy sees each untrusted envelope and returns the payload to deliver,
# or None to drop it.
Strategy = Callable[[Envelope, "Network"], "bytes | None"]


def null_strategy(env: Envelope, net: "Network") -> bytes | None:
    return env.payload


def drop_all(env: Envelope, net: "Network") -> bytes | None:
    return None


def drop_to_tags(env: Envelope, net: "Network") -> bytes | None:
    """Drop every message to a tag.  The adversary still observes each, so
    it can re-deliver them later in an order of its own choosing."""
    return None if env.receiver in net._tags else env.payload


# the strategies a run names by ``RunConfig.strategy``
STRATEGIES: dict[str, Strategy] = {
    "null": null_strategy,
    "drop_all": drop_all,
    "drop_to_tags": drop_to_tags,
}


class Network:
    """One run's message fabric and log, and the adversary's state and capabilities."""

    def __init__(self, model: AdvModel = AdvModel.ADV_T, strategy: Strategy | None = None) -> None:
        self.model = model
        self.strategy: Strategy = strategy if strategy is not None else null_strategy
        self.knowledge = Knowledge()
        self.log: list[Message] = []
        self.anomalies: list[str] = []
        self._seq = 0
        self._tags: dict[str, TagMemory] = {}
        self._secrets: dict[str, Callable[[], dict[str, bytes]]] = {}
        self._handlers: dict[str, Callable[[bytes, str], "bytes | None"]] = {}
        self.compromised: list[str] = []

    # --- wiring ---------------------------------------------------------

    def attach_tag(self, token: str, memory: TagMemory) -> None:
        self._tags[token] = memory

    def tag_memory(self, token: str) -> TagMemory:
        return self._tags[token]

    def attach_secrets(self, token: str, provider: Callable[[], dict[str, bytes]]) -> None:
        self._secrets[token] = provider

    def register_handler(self, token: str, handler: Callable[[bytes, str], "bytes | None"]) -> None:
        self._handlers[token] = handler

    def log_anomaly(self, text: str) -> None:
        self.anomalies.append(text)

    # --- the message log ------------------------------------------------

    def _record(
        self,
        sender: str,
        receiver: str,
        payload: bytes,
        action: str,
        seen: bytes | None = None,
    ) -> None:
        """Append one message; what the adversary saw joins its knowledge."""
        if seen is not None:
            self.knowledge.observe(seen)
        self.log.append(Message(self._next_seq(), sender, receiver, payload, action, seen))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # --- transmission ---------------------------------------------------

    def transmit(self, sender: str, receiver: str, payload: bytes, trusted: bool = False) -> bytes | None:
        """Send one message; returns what arrives, or None when dropped.

        Trusted channels bypass the adversary entirely (registration links
        between issuers and backends); everything else is observed and may
        be tampered with.  The message is logged once the strategy has
        decided, so anything the strategy injects is logged before it; the
        payload joins the adversary's knowledge once, before the strategy
        runs, so that the strategy may consult it.
        """
        if trusted:
            self._record(sender, receiver, payload, "trusted")
            return payload
        seq = self._next_seq()
        self.knowledge.observe(payload)
        delivered = self.strategy(Envelope(seq, sender, receiver, payload), self)
        if delivered is None:
            self.log.append(Message(seq, sender, receiver, payload, "dropped", payload))
            return None
        action = "delivered" if delivered == payload else "modified"
        self.log.append(Message(seq, sender, receiver, delivered, action, payload))
        return delivered

    def request(self, sender: str, receiver: str, payload: bytes) -> bytes | None:
        """Transmit to a registered handler and relay its response back."""
        arrived = self.transmit(sender, receiver, payload)
        if arrived is None:
            return None
        handler = self._handlers.get(receiver)
        if handler is None:
            return None
        response = handler(arrived, sender)
        if response is None:
            return None
        return self.transmit(receiver, sender, response)

    # --- adversary capabilities -----------------------------------------

    def read_tag(self, token: str) -> bytes:
        """Skim the tag's memory contents (both adversary models)."""
        snapshot = self._tags[token].snapshot()
        self._record("adv", token, snapshot, "read_tag", snapshot)
        return snapshot

    def write_tag(self, token: str, data: bytes) -> None:
        """Overwrite tag memory (both adversary models); a write the tag's
        capacity refuses raises TagCapacityError and is not logged."""
        self._tags[token].overwrite(data)
        self._record("adv", token, data, "write_tag")

    def compromise(self, token: str) -> dict[str, bytes]:
        """Obtain a reader's secrets; AdvR only."""
        if self.model is not AdvModel.ADV_R:
            raise CapabilityError(f"compromising {token} requires AdvR")
        provider = self._secrets.get(token)
        if provider is None:
            raise CapabilityError(f"no compromisable secrets registered for {token}")
        secrets = provider()
        blob = crypto.concat_length_prefixed(
            *(part for name, value in secrets.items() for part in (name.encode(), value))
        )
        self._record("adv", token, blob, "compromise", blob)
        if token not in self.compromised:
            self.compromised.append(token)
        return secrets

    def inject(self, sender: str, receiver: str, payload: bytes) -> bytes | None:
        """Deliver an adversary-made message to a registered handler."""
        self._record(sender, receiver, payload, "injected")
        handler = self._handlers.get(receiver)
        if handler is None:
            return None
        response = handler(payload, sender)
        if response is not None:
            self._record(receiver, sender, response, "delivered", response)
        return response
