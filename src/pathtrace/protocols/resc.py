"""Per-slot session keys on the tag, deposits verified by a central database.

At registration the tag is laid out as TID || P || (k_i, sig_i, index_i,
ts_i) for every step of its registered path: the session keys k_i =
E(k_{r_i}, TID) are preloaded (k_{r_i} being the key the reader shares
with the database) and the signature/index/timestamp fields sit empty
until the matching reader fills them.  A visit runs a challenge-response:
the tag announces TID, pointer and a nonce; the reader derives the slot
key from TID, authenticates with a MAC over the nonce and deposits its
signature record.  The database declares the trace valid when every slot
holds a correct record with increasing timestamps, and then claims the
registered path.

Slot sizes follow the scheme's stated figures — 128-bit keys, 20-bit
indices, 23-bit timestamps, 512-bit signatures — so a length-n path
needs n*(128+20+23+512) bits beyond the identifier and pointer.  The
deposit acceptance is keyed per slot: anyone presenting a MAC under that
slot's key can fill it, which is exactly what the key-disclosure attack
uses, since the keys sit in readable tag memory for the whole journey.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.network import read_snapshot
from pathtrace.protocols.base import (
    ProtocolModel,
    RunConfig,
    SetupError,
    register_protocol,
    weak_partial,
)

KEY_BITS = 128
INDEX_BITS = 20
TS_BITS = 23
SIG_BITS = 512
SLOT_BITS = KEY_BITS + INDEX_BITS + TS_BITS + SIG_BITS
# the tag's slot pointer is one byte and ends one past the last slot
MAX_SLOTS = 254


def storage_bits(path_length: int) -> int:
    """Slot storage for a length-n path, identifier and pointer excluded."""
    if path_length < 0:
        raise ValueError("path length cannot be negative")
    return path_length * SLOT_BITS


def slot_signature(key: bytes, tid: bytes, idx_bytes: bytes, ts_bytes: bytes) -> bytes:
    """The record a slot's reader signs: identifier, index and timestamp."""
    return crypto.mac(key, crypto.concat_length_prefixed(tid, idx_bytes, ts_bytes))


def nonce_mac(key: bytes, nonce: bytes, idx_bytes: bytes, ts_bytes: bytes, sig: bytes) -> bytes:
    """A deposit's authenticator: the tag's fresh nonce and the record."""
    return crypto.mac(key, crypto.concat_length_prefixed(nonce, idx_bytes, ts_bytes, sig))


@register_protocol
class Resc(ProtocolModel):
    name = "resc"
    architecture = "online"
    path_rule = "exactly one"
    path_reader_holds = "reader key"
    verifier = "db"  # the back-end database, the only verifier
    tag_bits = staticmethod(storage_bits)

    @classmethod
    def check_setup(cls, config: RunConfig, paths_of: dict[str, list[tuple[str, ...]]]) -> None:
        super().check_setup(config, paths_of)
        for tag_token, paths in paths_of.items():
            for path in paths:
                if len(path) > MAX_SLOTS:
                    raise SetupError(
                        f"resc path of {tag_token} has {len(path)} readers; its tag's"
                        f" one-byte slot pointer counts at most {MAX_SLOTS}",
                        tag_token,
                        path,
                    )

    def setup(self) -> None:
        self.reader_keys = {token: self.rng.randbytes(32) for token in self.run.readers}

        self._clock = 0
        self.tids: dict[str, bytes] = {}
        self._nonce: dict[str, bytes | None] = {}

        for tag_token, (path,) in self.paths_of.items():
            tid = b"tid-" + tag_token.encode()
            self.tids[tag_token] = tid
            ccid = crypto.PufDevice(tag_token, self.rng).respond(b"ccid")
            self.net.transmit(
                tag_token, self.verifier, crypto.concat_length_prefixed(ccid, tid), trusted=True
            )
            mem = self.run.memory(tag_token)
            mem.store("tid", tid, nominal_bits=0)
            mem.store("ptr", b"\x01", nominal_bits=0)
            for i, reader_token in enumerate(path, start=1):
                mem.store(f"k{i}", self.session_key(reader_token, tid), nominal_bits=KEY_BITS)
                mem.store(f"sig{i}", b"", nominal_bits=SIG_BITS)
                mem.store(f"idx{i}", b"", nominal_bits=INDEX_BITS)
                mem.store(f"ts{i}", b"", nominal_bits=TS_BITS)
            self._nonce[tag_token] = None
            self.net.register_handler(tag_token, weak_partial(self._handle_tag, tag_token))

    def session_key(self, reader_token: str, tid: bytes) -> bytes:
        return crypto.sym_enc(self.reader_keys[reader_token], tid)

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        return {"k_r": self.reader_keys[reader_token]}

    # --- tag side -------------------------------------------------------

    def _handle_tag(self, tag_token: str, payload: bytes, sender: str) -> bytes | None:
        mem = self.run.memory(tag_token)
        if payload == b"HELLO":
            nonce = self.rng.randbytes(8)
            self._nonce[tag_token] = nonce
            return crypto.concat_length_prefixed(mem.load("tid"), nonce, mem.load("ptr"))
        parts = crypto.split_fields(payload, 5)
        if parts is None or parts[0] != b"DEPOSIT":
            return None
        _, idx_bytes, ts_bytes, sig, auth = parts
        nonce = self._nonce[tag_token]
        if nonce is None:
            return None
        slot = crypto.bytes_to_int(idx_bytes)
        key = mem.load(f"k{slot}")
        if key == b"" or mem.load(f"sig{slot}") != b"":
            return None
        if auth != nonce_mac(key, nonce, idx_bytes, ts_bytes, sig):
            return None
        mem.store(f"sig{slot}", sig, nominal_bits=SIG_BITS)
        mem.store(f"idx{slot}", idx_bytes, nominal_bits=INDEX_BITS)
        mem.store(f"ts{slot}", ts_bytes, nominal_bits=TS_BITS)
        self._nonce[tag_token] = None
        ptr = crypto.bytes_to_int(mem.load("ptr"))
        n = len(self.paths_of[tag_token][0])
        while ptr <= n and mem.load(f"sig{ptr}") != b"":
            ptr += 1
        mem.store("ptr", crypto.int_to_bytes(ptr, 1), nominal_bits=0)
        return b"ok"

    # --- reader side ----------------------------------------------------

    @staticmethod
    def deposit(tid: bytes, slot: int, ts: int, key: bytes, nonce: bytes) -> bytes:
        """The DEPOSIT message that fills ``slot`` with a record stamped
        ``ts``, authenticated under the slot key for the tag's ``nonce``."""
        idx_bytes = crypto.int_to_bytes(slot, 3)
        ts_bytes = crypto.int_to_bytes(ts, 3)
        sig = slot_signature(key, tid, idx_bytes, ts_bytes)
        auth = nonce_mac(key, nonce, idx_bytes, ts_bytes, sig)
        return crypto.concat_length_prefixed(b"DEPOSIT", idx_bytes, ts_bytes, sig, auth)

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        hello = self._receive(
            self.net.request(reader_token, tag_token, b"HELLO"),
            lambda blob: crypto.split_fields(blob, 3),
            f"resc {reader_token} got a malformed greeting from {tag_token}",
        )
        if hello is None:
            return False
        tid, nonce, ptr_bytes = hello
        slot = crypto.bytes_to_int(ptr_bytes)
        if slot > len(self.paths_of[tag_token][0]):
            self.net.log_anomaly(f"resc {reader_token}: {tag_token} has no open slot")
            return False
        key = self.session_key(reader_token, tid)
        self._clock += 10
        reply = self.net.request(
            reader_token, tag_token, self.deposit(tid, slot, self._clock, key, nonce)
        )
        if reply != b"ok":
            self.net.log_anomaly(
                f"resc {tag_token} refused the deposit of {reader_token} for slot {slot}"
            )
            return False
        return True

    # --- database side --------------------------------------------------

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        mem = self.run.memory(tag_token)
        presented = self.net.transmit(tag_token, self.verifier, mem.snapshot())
        fields = self._receive(presented, read_snapshot, "resc database got a malformed tag image")
        if fields is None:
            return False
        (path,) = self.paths_of[tag_token]
        tid = fields.get("tid", b"")
        if tid != self.tids[tag_token]:
            self.net.log_anomaly(f"resc database: identifier mismatch for {tag_token}")
            return False
        last_ts = -1
        for i, reader_token in enumerate(path, start=1):
            sig = fields.get(f"sig{i}", b"")
            idx_bytes = fields.get(f"idx{i}", b"")
            ts_bytes = fields.get(f"ts{i}", b"")
            if sig == b"" or idx_bytes == b"" or ts_bytes == b"":
                self.net.log_anomaly(f"resc database: slot {i} of {tag_token} is not in place")
                return False
            expect = slot_signature(self.session_key(reader_token, tid), tid, idx_bytes, ts_bytes)
            if sig != expect or crypto.bytes_to_int(idx_bytes) != i:
                self.net.log_anomaly(f"resc database: slot {i} of {tag_token} fails verification")
                return False
            ts = crypto.bytes_to_int(ts_bytes)
            if ts <= last_ts:
                self.net.log_anomaly(f"resc database: timestamps of {tag_token} out of order")
                return False
            last_ts = ts
        self.emit_claim(tag_token, path, self.verifier)
        return True
