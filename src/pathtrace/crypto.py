"""Crypto toolbox for the protocol models.

Everything here is a deterministic, seedable model of the primitive it names,
sized for simulation rather than real security:

* hashing is SHA-256, with a from-scratch compression core so that
  length-extension on raw concatenation can be demonstrated;
* MACs are HMAC-SHA256 (RFC 2104), computed over ``hashlib.sha256``
  directly rather than through the ``hmac`` module, whose per-call set-up
  costs more than the two hashes; "signatures" are MACs with appendix
  carrying the signer id, mirroring schemes where verification is
  idealized;
* symmetric encryption is a deterministic SIV-style construction (same key
  and plaintext give the same ciphertext, which several protocols rely on);
* public-key encryption is a KEM built on the ElGamal group;
* ElGamal itself is exponent-encoded over a prime-order subgroup, giving the
  multiplicative homomorphism and ciphertext exponentiation the polynomial
  path encodings need, with verification by comparison instead of discrete
  logs.  Powers of the generator come from a fixed-window table with 8-bit
  windows, one row of precomputed powers per byte of the exponent, built
  once per parameter set the first time ``gpow`` uses it; a raise is one
  reduction of the product of one entry per row.  Any other base is
  raised with the builtin ``pow``.
  A caller that drew every exponent of an element knows its discrete log
  base g, and can skip the group operations: raising g to the folded,
  rerandomized, decrypting or shared log with ``gpow`` gives the same
  element, since g has order q and (g^l)^k = g^(k*l mod q).
  The path-polynomial models raise logs for the states they wrote
  themselves; any other state goes through ``ct_pow``, ``hom_mul``,
  ``rerandomize`` and ``elg_decrypt`` (``protocols.tracker``).  The KEM
  takes a map of known logs too (``protocols.stepauth``): a key whose log
  is known is raised as g^(k*x), and so is a KEM element the map holds.

All randomness comes from caller-provided ``random.Random`` instances.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import struct
from math import prod
from operator import getitem
from random import Random
from typing import Mapping, NamedTuple


class CryptoError(Exception):
    pass


class AuthenticationError(CryptoError):
    """Integrity check failed (wrong key or tampered data)."""


# --- hashing and encodings -------------------------------------------------

DIGEST_LEN = 32


def hash_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash_int(data: bytes, modulus: int) -> int:
    return int.from_bytes(hash_bytes(data), "big") % modulus


def concat_raw(*parts: bytes) -> bytes:
    """Plain concatenation: ambiguous, and extendable when hashed."""
    return b"".join(parts)


_LENGTH = struct.Struct(">I")


def concat_length_prefixed(*parts: bytes) -> bytes:
    """Unambiguous encoding: 4-byte big-endian length before each part."""
    out: list[bytes] = []
    for part in parts:
        out.append(_LENGTH.pack(len(part)))
        out.append(part)
    return b"".join(out)


def split_length_prefixed(blob: bytes) -> list[bytes]:
    parts = []
    pos = 0
    end = len(blob)
    while pos < end:
        if pos + 4 > end:
            raise CryptoError("truncated length prefix")
        (n,) = _LENGTH.unpack_from(blob, pos)
        pos += 4
        if pos + n > end:
            raise CryptoError("truncated field")
        parts.append(blob[pos : pos + n])
        pos += n
    return parts


def split_fields(blob: bytes, count: int | None = None) -> list[bytes] | None:
    """The length-prefixed fields of ``blob``; None when it does not split,
    or when ``count`` is given and it splits into another number of fields."""
    try:
        parts = split_length_prefixed(blob)
    except CryptoError:
        return None
    return parts if count is None or len(parts) == count else None


def int_to_bytes(n: int, width: int = 8) -> bytes:
    return n.to_bytes(width, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


# --- SHA-256 core (for the length-extension demonstration) -----------------

_SHA256_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_SHA256_IV = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_M32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _M32


def _sha256_compress(state: list[int], block: bytes) -> list[int]:
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _M32)
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = (h + s1 + ch + _SHA256_K[i] + w[i]) & _M32
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (s0 + maj) & _M32
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M32, c, b, a, (t1 + t2) & _M32
    return [(x + y) & _M32 for x, y in zip(state, (a, b, c, d, e, f, g, h))]


def sha256_padding(message_len: int) -> bytes:
    """Merkle-Damgard padding appended to a message of the given byte length."""
    return (
        b"\x80"
        + b"\x00" * ((55 - message_len) % 64)
        + struct.pack(">Q", message_len * 8)
    )


def sha256_pure(data: bytes) -> bytes:
    """Reference SHA-256 built on the local compression core."""
    state = list(_SHA256_IV)
    padded = data + sha256_padding(len(data))
    for off in range(0, len(padded), 64):
        state = _sha256_compress(state, padded[off : off + 64])
    return struct.pack(">8I", *state)


def extend_sha256(digest: bytes, message_len: int, suffix: bytes) -> tuple[bytes, bytes]:
    """Resume SHA-256 from a digest without knowing the message.

    Returns ``(new_digest, glue)`` such that for any message m of
    ``message_len`` bytes with ``sha256(m) == digest``,
    ``sha256(m + glue + suffix) == new_digest``.
    """
    if len(digest) != DIGEST_LEN:
        raise CryptoError("need a full SHA-256 digest")
    glue = sha256_padding(message_len)
    resumed_len = message_len + len(glue)
    state = list(struct.unpack(">8I", digest))
    tail = suffix + sha256_padding(resumed_len + len(suffix))
    for off in range(0, len(tail), 64):
        state = _sha256_compress(state, tail[off : off + 64])
    return struct.pack(">8I", *state), glue


# --- MACs, PRFs, signatures with appendix ----------------------------------

_HMAC_BLOCK = 64
_HMAC_IPAD = bytes(b ^ 0x36 for b in range(256))
_HMAC_OPAD = bytes(b ^ 0x5C for b in range(256))


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256: sha256(k^opad || sha256(k^ipad || data)), with the key
    hashed when longer than a block and zero-padded to the block."""
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_HMAC_IPAD) + data).digest()
    return hashlib.sha256(key.translate(_HMAC_OPAD) + inner).digest()


def prf(key: bytes, data: bytes) -> bytes:
    return mac(key, b"prf" + data)


class PufDevice:
    """Physically unclonable function model: a fixed hidden per-device key."""

    def __init__(self, device_id: str, rng: Random) -> None:
        self.device_id = device_id
        self._secret = rng.randbytes(32)

    def respond(self, challenge: bytes) -> bytes:
        return mac(self._secret, b"puf" + challenge)


class SigningKey(NamedTuple):
    key_id: str
    secret: bytes


class VerifyKey(NamedTuple):
    key_id: str
    secret: bytes  # model-internal; capability rules keep it out of reach


class Signature(NamedTuple):
    """Signature with appendix: the message travels with the blob."""

    signer: str
    message: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return concat_length_prefixed(b"SIG", self.signer.encode(), self.message, self.tag)


def new_signing_keypair(key_id: str, rng: Random) -> tuple[SigningKey, VerifyKey]:
    secret = rng.randbytes(32)
    return SigningKey(key_id, secret), VerifyKey(key_id, secret)


def sign(sk: SigningKey, message: bytes) -> Signature:
    tag = mac(sk.secret, concat_length_prefixed(b"sig", sk.key_id.encode(), message))
    return Signature(sk.key_id, message, tag)


def verify(vk: VerifyKey, sig: Signature) -> bool:
    if sig.signer != vk.key_id:
        return False
    expect = mac(vk.secret, concat_length_prefixed(b"sig", vk.key_id.encode(), sig.message))
    return _hmac.compare_digest(expect, sig.tag)


def parse_signature(blob: bytes) -> Signature | None:
    """The signature in ``blob``; None for bytes of another shape,
    including a signer name that is not UTF-8."""
    parts = split_fields(blob, 4)
    if parts is None or parts[0] != b"SIG":
        return None
    try:
        return Signature(parts[1].decode(), parts[2], parts[3])
    except UnicodeDecodeError:
        return None


# --- XOR helpers -----------------------------------------------------------

def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise CryptoError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def expand_key(key: bytes, length: int) -> bytes:
    """Stretch a key to a mask of the wanted length.

    The first block is the key itself, so recovering a mask prefix recovers
    the key; that mirrors schemes which XOR a raw hash against longer data.
    """
    out = bytearray(key)
    counter = 0
    while len(out) < length:
        out += hash_bytes(key + struct.pack(">I", counter))
        counter += 1
    return bytes(out[:length])


def xor_stream(data: bytes, key: bytes) -> bytes:
    return xor_bytes(data, expand_key(key, len(data)))


# --- symmetric encryption (deterministic SIV style) ------------------------

_SIV_LEN = 16


def sym_enc(key: bytes, plaintext: bytes) -> bytes:
    """Deterministic authenticated encryption.

    The synthetic IV is a MAC over the plaintext, then doubles as the
    integrity tag on decryption.
    """
    siv = mac(key, b"siv" + plaintext)[:_SIV_LEN]
    stream = expand_key(mac(key, b"enc" + siv), len(plaintext))
    return siv + xor_bytes(plaintext, stream)


def sym_matches(key: bytes, plaintext: bytes, ciphertext: bytes) -> bool:
    """``ciphertext == sym_enc(key, plaintext)``, rejecting on the synthetic
    IV before any keystream is derived: a wrong key or plaintext costs one
    MAC instead of a full encryption."""
    if ciphertext[:_SIV_LEN] != mac(key, b"siv" + plaintext)[:_SIV_LEN]:
        return False
    return ciphertext == sym_enc(key, plaintext)


def sym_dec(key: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < _SIV_LEN:
        raise AuthenticationError("ciphertext too short")
    siv, body = ciphertext[:_SIV_LEN], ciphertext[_SIV_LEN:]
    stream = expand_key(mac(key, b"enc" + siv), len(body))
    plaintext = xor_bytes(body, stream)
    expect = mac(key, b"siv" + plaintext)[:_SIV_LEN]
    if not _hmac.compare_digest(expect, siv):
        raise AuthenticationError("symmetric integrity check failed")
    return plaintext


# --- ElGamal over a prime-order subgroup -----------------------------------

class ElgamalParams(NamedTuple):
    """Multiplicative subgroup of order q generated by g modulo the safe
    prime p = 2q + 1.  Exponents live in the prime field F_q."""

    p: int
    q: int
    g: int


DEFAULT_PARAMS = ElgamalParams(p=2305843009213699919, q=1152921504606849959, g=4)
TEST_PARAMS = ElgamalParams(p=23, q=11, g=2)


@functools.cache
def _generator_table(params: ElgamalParams) -> list[list[int]]:
    """Powers of g in 8-bit windows, one row per byte of an exponent below
    q: row i holds g^(j * 256^i) mod p for j = 0 .. 255."""
    p = params.p
    base = params.g
    table = []
    for _ in range((params.q.bit_length() + 7) // 8):
        row = [1] * 256
        for j in range(1, 256):
            row[j] = row[j - 1] * base % p
        table.append(row)
        base = row[-1] * base % p
    return table


def gpow(params: ElgamalParams, e: int) -> int:
    """``pow(params.g, e, params.p)`` for any integer e, since g has order q:
    one reduction of the product of one table entry per byte of e mod q,
    from the generator's 8-bit window table.  Entry 0 of every row is 1,
    so a zero byte leaves the product alone."""
    table = _generator_table(params)
    return prod(map(getitem, table, (e % params.q).to_bytes(len(table), "little"))) % params.p


class ElgamalPublic(NamedTuple):
    """Public key h = g^x."""

    params: ElgamalParams
    h: int


class ElgamalPrivate(NamedTuple):
    params: ElgamalParams
    x: int
    public: ElgamalPublic


class Ciphertext(NamedTuple):
    params: ElgamalParams
    c1: int
    c2: int

    def to_bytes(self) -> bytes:
        return int_to_bytes(self.c1) + int_to_bytes(self.c2)


def elg_keygen(rng: Random, params: ElgamalParams = DEFAULT_PARAMS) -> ElgamalPrivate:
    x = rng.randrange(1, params.q)
    pub = ElgamalPublic(params, gpow(params, x))
    return ElgamalPrivate(params, x, pub)


def encode_exponent(params: ElgamalParams, k: int) -> int:
    """Group element g^k; plaintext space for exponent-encoded values."""
    return gpow(params, k)


def elg_encrypt(pub: ElgamalPublic, m: int, rng: Random) -> Ciphertext:
    p = pub.params.p
    r = rng.randrange(1, pub.params.q)
    return Ciphertext(pub.params, gpow(pub.params, r), (m % p) * pow(pub.h, r, p) % p)


def elg_decrypt(priv: ElgamalPrivate, ct: Ciphertext) -> int:
    """``c2 / c1^x``, with one pow: c1^(p-1-x) is the inverse of c1^x for
    every c1 in 1..p-1 (Fermat).  A c1 that is 0 mod p has no inverse and
    raises ValueError."""
    p = priv.params.p
    if ct.c1 % p == 0:
        raise ValueError("c1 is not invertible modulo p")
    return ct.c2 * pow(ct.c1, p - 1 - priv.x, p) % p


def hom_mul(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.params != b.params:
        raise CryptoError("ciphertexts from different groups")
    p = a.params.p
    return Ciphertext(a.params, a.c1 * b.c1 % p, a.c2 * b.c2 % p)


def ct_pow(ct: Ciphertext, e: int) -> Ciphertext:
    p = ct.params.p
    e = e % ct.params.q
    return Ciphertext(ct.params, pow(ct.c1, e, p), pow(ct.c2, e, p))


def rerandomize(pub: ElgamalPublic, ct: Ciphertext, rng: Random) -> Ciphertext:
    p = pub.params.p
    r = rng.randrange(1, pub.params.q)
    return Ciphertext(ct.params, ct.c1 * gpow(pub.params, r) % p, ct.c2 * pow(pub.h, r, p) % p)


# --- public-key encryption (ElGamal KEM + symmetric body) ------------------

class BoxPublic(NamedTuple):
    key_id: str
    pub: ElgamalPublic


class BoxPrivate(NamedTuple):
    key_id: str
    priv: ElgamalPrivate


def new_box_keypair(
    key_id: str, rng: Random, params: ElgamalParams = DEFAULT_PARAMS
) -> tuple[BoxPrivate, BoxPublic]:
    priv = elg_keygen(rng, params)
    return BoxPrivate(key_id, priv), BoxPublic(key_id, priv.public)


def _kem_key(box_id: str, shared: int) -> bytes:
    return hash_bytes(b"kem" + box_id.encode() + int_to_bytes(shared))


def pk_enc(
    box: BoxPublic, plaintext: bytes, rng: Random, logs: dict[int, int] | None = None
) -> bytes:
    """KEM element c1 = g^k and the body under a key hashed from h^k.

    ``logs`` maps group elements to their discrete logs base g, for a
    caller that made them: when it holds the log x of h, the shared
    element is g^(k*x mod q) by ``gpow`` instead of h^k.  c1's log k is
    added to it, for ``pk_dec``."""
    params = box.pub.params
    k = rng.randrange(1, params.q)
    c1 = gpow(params, k)
    x = None if logs is None else logs.get(box.pub.h)
    shared = pow(box.pub.h, k, params.p) if x is None else gpow(params, k * x)
    if logs is not None:
        logs[c1] = k
    return int_to_bytes(c1) + sym_enc(_kem_key(box.key_id, shared), plaintext)


def pk_dec(box: BoxPrivate, blob: bytes, logs: Mapping[int, int] | None = None) -> bytes:
    """The plaintext of a ``pk_enc`` blob; the shared element is c1^x, or
    g^(k*x mod q) by ``gpow`` when ``logs`` holds c1's log k, which is
    the same element for any x."""
    if len(blob) < 8:
        raise AuthenticationError("blob too short")
    params = box.priv.params
    c1 = bytes_to_int(blob[:8])
    k = None if logs is None else logs.get(c1)
    x = box.priv.x
    shared = pow(c1, x, params.p) if k is None else gpow(params, k * x)
    return sym_dec(_kem_key(box.key_id, shared), blob[8:])


# --- path polynomials ------------------------------------------------------

def path_poly_eval(q: int, a0: int, step_coeffs: list[int], x: int) -> int:
    """Evaluate the path-encoding polynomial at x modulo the prime q.

    With step coefficients (a_1 .. a_l) the value is
    a_0 * x^l + a_1 * x^(l-1) + ... + a_l, computed Horner style; an empty
    path gives a_0.
    """
    acc = a0 % q
    for c in step_coeffs:
        acc = (acc * x + c) % q
    return acc
