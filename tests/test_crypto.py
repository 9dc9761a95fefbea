"""Crypto toolbox tests: reference oracles, algebraic laws, failure modes."""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest

from pathtrace import crypto as c


# --- hashing, encodings, length extension ----------------------------------

def test_hash_corpus_collision_free():
    rng = random.Random(1)
    seen = set()
    for i in range(10_000):
        data = rng.randbytes(rng.randrange(1, 40)) + i.to_bytes(4, "big")
        seen.add(c.hash_bytes(data))
    assert len(seen) == 10_000


def test_concat_length_prefixed_round_trip():
    parts = [b"", b"a", b"bb", b"\x00" * 5]
    blob = c.concat_length_prefixed(*parts)
    assert c.split_length_prefixed(blob) == parts


def test_concat_raw_is_ambiguous_but_prefixed_is_not():
    assert c.concat_raw(b"ab", b"c") == c.concat_raw(b"a", b"bc")
    assert c.concat_length_prefixed(b"ab", b"c") != c.concat_length_prefixed(b"a", b"bc")


def test_split_rejects_truncation():
    blob = c.concat_length_prefixed(b"abcdef")
    with pytest.raises(c.CryptoError):
        c.split_length_prefixed(blob[:-1])


def test_split_names_every_truncation():
    fields = [b"ab", b"", b"xyz"]
    blob = c.concat_length_prefixed(*fields)
    assert blob == b"\x00\x00\x00\x02ab\x00\x00\x00\x00\x00\x00\x00\x03xyz"
    starts = [0, 6, 10, 17]  # where each length prefix begins, then the end
    for cut in range(len(blob) + 1):
        if cut in starts:  # a cut between fields leaves a shorter valid blob
            assert c.split_length_prefixed(blob[:cut]) == fields[: starts.index(cut)]
            continue
        start = max(s for s in starts if s < cut)
        message = "truncated length prefix" if cut - start < 4 else "truncated field"
        with pytest.raises(c.CryptoError) as info:
            c.split_length_prefixed(blob[:cut])
        assert str(info.value) == message, cut


def test_split_fields_exact_count_returns_the_fields():
    for fields in ([b"a", b""], [b"x" * 3, b"", b"\x00\xff"], [b"1", b"22", b"", b"4444", b"5"]):
        blob = c.concat_length_prefixed(*fields)
        assert c.split_fields(blob, len(fields)) == c.split_length_prefixed(blob) == fields
        assert c.split_fields(blob) == fields


@pytest.mark.parametrize("count", [2, 3, 5])
def test_split_fields_refuses_every_truncation_and_wrong_count(count):
    blob = c.concat_length_prefixed(*(bytes([i]) * i for i in range(1, count + 1)))
    for cut in range(len(blob)):
        assert c.split_fields(blob[:cut], count) is None, cut
    for wrong in range(count + 3):
        if wrong != count:
            assert c.split_fields(blob, wrong) is None, wrong
    assert c.split_fields(blob[:-1]) is None
    assert c.split_fields(blob + b"\x00") is None


def test_sha256_pure_matches_hashlib():
    cases = [b"", b"abc", b"a" * 55, b"a" * 56, b"a" * 64, b"a" * 200]
    rng = random.Random(2)
    cases += [rng.randbytes(rng.randrange(0, 300)) for _ in range(50)]
    for m in cases:
        assert c.sha256_pure(m) == hashlib.sha256(m).digest()


def test_extend_sha256_forges_suffix_digests():
    rng = random.Random(3)
    for _ in range(50):
        secret = rng.randbytes(rng.randrange(1, 80))
        suffix = rng.randbytes(rng.randrange(1, 80))
        digest = hashlib.sha256(secret).digest()
        forged, glue = c.extend_sha256(digest, len(secret), suffix)
        assert hashlib.sha256(secret + glue + suffix).digest() == forged


def test_extend_sha256_needs_full_digest():
    with pytest.raises(c.CryptoError):
        c.extend_sha256(b"\x00" * 16, 10, b"x")


# --- MACs and signatures ---------------------------------------------------

def test_mac_is_keyed():
    assert c.mac(b"k1", b"m") != c.mac(b"k2", b"m")
    assert c.mac(b"k1", b"m") == c.mac(b"k1", b"m")


@pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 200])
def test_mac_equals_the_hmac_module(key_len):
    # keys up to a block are zero-padded and longer ones hashed first, so
    # the lengths around the 64-byte block take different branches
    rng = random.Random(key_len)
    for _ in range(40):
        key = rng.randbytes(key_len)
        data = rng.randbytes(rng.randrange(0, 301))
        assert c.mac(key, data) == hmac.new(key, data, hashlib.sha256).digest()
    for data_len in (0, 1, 55, 56, 63, 64, 65, 119, 128, 300):
        key, data = rng.randbytes(key_len), rng.randbytes(data_len)
        assert c.mac(key, data) == hmac.new(key, data, hashlib.sha256).digest()


def test_sign_verify_round_trip():
    rng = random.Random(4)
    sk, vk = c.new_signing_keypair("alice", rng)
    sig = c.sign(sk, b"hello")
    assert c.verify(vk, sig)
    assert sig.signer == "alice"


def test_signature_and_params_are_immutable():
    sig = c.Signature("alice", b"m", b"t")
    assert repr(sig) == "Signature(signer='alice', message=b'm', tag=b't')"
    with pytest.raises(AttributeError):
        sig.message = b"forged"
    assert repr(c.TEST_PARAMS) == "ElgamalParams(p=23, q=11, g=2)"
    assert c.DEFAULT_PARAMS == c.ElgamalParams(2305843009213699919, 1152921504606849959, 4)
    with pytest.raises(AttributeError):
        c.TEST_PARAMS.g = 3


def test_verify_rejects_forgeries():
    rng = random.Random(5)
    sk, vk = c.new_signing_keypair("alice", rng)
    for _ in range(1000):
        m = rng.randbytes(rng.randrange(1, 30))
        sig = c.sign(sk, m)
        m2 = rng.randbytes(rng.randrange(1, 30))
        if m2 == m:
            continue
        assert not c.verify(vk, c.Signature(sig.signer, m2, sig.tag))


def test_verify_rejects_wrong_signer():
    rng = random.Random(6)
    sk, _ = c.new_signing_keypair("alice", rng)
    _, vk_bob = c.new_signing_keypair("bob", rng)
    assert not c.verify(vk_bob, c.sign(sk, b"m"))


def test_signature_blob_round_trip_and_strip():
    rng = random.Random(7)
    sk, _ = c.new_signing_keypair("alice", rng)
    sig = c.sign(sk, b"payload")
    blob = sig.to_bytes()
    assert c.parse_signature(blob) == sig
    assert c.parse_signature(blob).message == b"payload"
    assert c.parse_signature(b"junk") is None


def old_parse_signature(blob):
    """``parse_signature`` as it was before ``split_fields``."""
    try:
        parts = c.split_length_prefixed(blob)
    except c.CryptoError:
        return None
    if len(parts) != 4 or parts[0] != b"SIG":
        return None
    return c.Signature(parts[1].decode(), parts[2], parts[3])


def signature_mutants(blob, rng):
    """Seeded mutants of a signature blob: cuts, extensions, byte flips and
    byte swaps at every position, and field-level rewrites."""
    for cut in range(len(blob)):
        yield blob[:cut]
    for at in range(len(blob)):
        yield blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]
        yield blob[:at] + bytes([rng.randrange(256)]) + blob[at + 1 :]
    parts = c.split_length_prefixed(blob)
    yield blob + b"\x00"
    yield blob + c.concat_length_prefixed(b"extra")
    yield c.concat_length_prefixed(*parts[:3])
    yield c.concat_length_prefixed(b"SIG", b"\xff\xfe", *parts[2:])  # a signer that is not UTF-8
    yield c.concat_length_prefixed(b"sig", *parts[1:])
    for _ in range(50):
        yield rng.randbytes(rng.randrange(len(blob) + 8))


def test_parse_signature_agrees_with_its_old_definition_on_mutants():
    rng = random.Random(19)
    sk, _ = c.new_signing_keypair("alice", rng)
    blob = c.sign(sk, b"payload").to_bytes()
    parsed = 0
    for mutant in signature_mutants(blob, rng):
        try:
            want = old_parse_signature(mutant)
        except UnicodeDecodeError:
            want = None  # the old parse raised where the new one refuses
        assert c.parse_signature(mutant) == want, mutant.hex()
        parsed += want is not None
    assert parsed > 0


# --- XOR and symmetric encryption ------------------------------------------

def test_xor_bytes_strict_length():
    assert c.xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(c.CryptoError):
        c.xor_bytes(b"a", b"ab")


def test_xor_bytes_matches_bytewise_definition():
    rng = random.Random(11)
    for n in range(301):
        a, b = rng.randbytes(n), rng.randbytes(n)
        assert c.xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert c.xor_bytes(a, a) == bytes(n)  # leading zero bytes survive


def test_expand_key_prefix_is_the_key():
    key = bytes(range(32))
    assert c.expand_key(key, 80)[:32] == key
    assert c.expand_key(key, 16) == key[:16]


def test_xor_stream_involution():
    rng = random.Random(8)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(1, 120))
        key = rng.randbytes(32)
        assert c.xor_stream(c.xor_stream(data, key), key) == data


def test_sym_enc_round_trip_and_determinism():
    key = c.hash_bytes(b"k")
    ct1 = c.sym_enc(key, b"secret value")
    ct2 = c.sym_enc(key, b"secret value")
    assert ct1 == ct2
    assert c.sym_dec(key, ct1) == b"secret value"


def test_sym_dec_rejects_tampering_and_wrong_key():
    key = c.hash_bytes(b"k")
    ct = bytearray(c.sym_enc(key, b"secret value"))
    ct[-1] ^= 1
    with pytest.raises(c.AuthenticationError):
        c.sym_dec(key, bytes(ct))
    with pytest.raises(c.AuthenticationError):
        c.sym_dec(c.hash_bytes(b"other"), c.sym_enc(key, b"m"))


def _sym_matches_cases():
    """Seeded (key, plaintext, ciphertext) triples around the true one."""
    rng = random.Random(12)
    cases = []
    for n in (0, 1, 7, 16, 32, 33, 100):
        key, pt = rng.randbytes(32), rng.randbytes(n)
        ct = c.sym_enc(key, pt)
        variants = {
            "exact": (key, pt, ct),
            "truncated": (key, pt, ct[:-1]),
            "extended": (key, pt, ct + b"\x00"),
            "siv-only": (key, pt, ct[:16]),
            "empty-ciphertext": (key, pt, b""),
            "wrong-key": (rng.randbytes(32), pt, ct),
            "wrong-plaintext": (key, rng.randbytes(n), ct),
        }
        if n:
            body = bytearray(ct)
            body[16 + rng.randrange(n)] ^= 1 << rng.randrange(8)
            variants["flipped-body"] = (key, pt, bytes(body))
        cases += [pytest.param(*case, id=f"{n}B-{name}") for name, case in variants.items()]
    return cases


@pytest.mark.parametrize("key,pt,ct", _sym_matches_cases())
def test_sym_matches_is_equality_with_sym_enc(key, pt, ct):
    assert c.sym_matches(key, pt, ct) == (ct == c.sym_enc(key, pt))


def test_sym_matches_rejects_on_the_siv_without_a_keystream(monkeypatch):
    key = c.hash_bytes(b"k")
    ct = c.sym_enc(key, b"secret value")

    def no_stream(*args):
        raise AssertionError("keystream derived for a wrong SIV")

    monkeypatch.setattr(c, "expand_key", no_stream)
    assert not c.sym_matches(c.hash_bytes(b"other"), b"secret value", ct)
    assert not c.sym_matches(key, b"other value", ct)


# --- ElGamal ---------------------------------------------------------------

@pytest.mark.parametrize("params", [c.TEST_PARAMS, c.DEFAULT_PARAMS])
def test_group_parameters_consistent(params):
    assert params.p == 2 * params.q + 1
    assert pow(params.g, params.q, params.p) == 1
    assert params.g != 1


def test_elgamal_round_trip():
    rng = random.Random(9)
    priv = c.elg_keygen(rng)
    for _ in range(100):
        m = c.encode_exponent(c.DEFAULT_PARAMS, rng.randrange(c.DEFAULT_PARAMS.q))
        assert c.elg_decrypt(priv, c.elg_encrypt(priv.public, m, rng)) == m


def test_homomorphic_multiplication_law():
    rng = random.Random(10)
    priv = c.elg_keygen(rng)
    p = c.DEFAULT_PARAMS.p
    for _ in range(1000):
        a = c.encode_exponent(c.DEFAULT_PARAMS, rng.randrange(c.DEFAULT_PARAMS.q))
        b = c.encode_exponent(c.DEFAULT_PARAMS, rng.randrange(c.DEFAULT_PARAMS.q))
        ct = c.hom_mul(c.elg_encrypt(priv.public, a, rng), c.elg_encrypt(priv.public, b, rng))
        assert c.elg_decrypt(priv, ct) == a * b % p


def test_ciphertext_exponentiation_law():
    rng = random.Random(11)
    priv = c.elg_keygen(rng)
    params = c.DEFAULT_PARAMS
    for _ in range(200):
        k = rng.randrange(params.q)
        e = rng.randrange(1, params.q)
        ct = c.ct_pow(c.elg_encrypt(priv.public, c.encode_exponent(params, k), rng), e)
        assert c.elg_decrypt(priv, ct) == c.encode_exponent(params, k * e)


def test_exponent_encoding_is_additive_under_multiplication():
    params = c.TEST_PARAMS
    for a in range(params.q):
        for b in range(params.q):
            lhs = c.encode_exponent(params, a) * c.encode_exponent(params, b) % params.p
            assert lhs == c.encode_exponent(params, a + b)


def test_rerandomize_changes_bytes_not_plaintext():
    rng = random.Random(12)
    priv = c.elg_keygen(rng)
    m = c.encode_exponent(c.DEFAULT_PARAMS, 42)
    ct = c.elg_encrypt(priv.public, m, rng)
    ct2 = c.rerandomize(priv.public, ct, rng)
    assert (ct.c1, ct.c2) != (ct2.c1, ct2.c2)
    assert c.elg_decrypt(priv, ct2) == m


def test_hom_mul_rejects_mixed_groups():
    rng = random.Random(13)
    a = c.elg_encrypt(c.elg_keygen(rng, c.TEST_PARAMS).public, 2, rng)
    b = c.elg_encrypt(c.elg_keygen(rng).public, 2, rng)
    with pytest.raises(c.CryptoError):
        c.hom_mul(a, b)


def test_box_round_trip_and_wrong_key():
    rng = random.Random(14)
    priv_a, pub_a = c.new_box_keypair("a", rng)
    priv_b, _ = c.new_box_keypair("b", rng)
    blob = c.pk_enc(pub_a, b"layered secret", rng)
    assert c.pk_dec(priv_a, blob) == b"layered secret"
    with pytest.raises(c.AuthenticationError):
        c.pk_dec(priv_b, blob)


def test_box_refuses_a_blob_shorter_than_its_kem_element():
    rng = random.Random(14)
    priv, pub = c.new_box_keypair("a", rng)
    blob = c.pk_enc(pub, b"layered secret", rng)
    for n in range(8):
        with pytest.raises(c.AuthenticationError, match="^blob too short$"):
            c.pk_dec(priv, blob[:n])


def counted_pow(monkeypatch):
    """Shadow the builtin pow in ``crypto``; returns the list of its calls."""
    calls = []

    def spy(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(c, "pow", spy, raising=False)
    return calls


@pytest.mark.parametrize("params", [c.DEFAULT_PARAMS, c.TEST_PARAMS], ids=["default", "test"])
def test_box_with_known_logs_makes_the_same_blob_without_pow(params, monkeypatch):
    rng = random.Random(15)
    priv, pub = c.new_box_keypair("a", rng, params)
    logs = {pub.pub.h: priv.priv.x}
    calls = counted_pow(monkeypatch)
    for seed in range(40):
        known = c.pk_enc(pub, b"layered secret", random.Random(seed), logs)
        assert calls == []
        c1 = c.bytes_to_int(known[:8])
        assert c.gpow(params, logs[c1]) == c1
        assert c.pk_dec(priv, known, logs) == b"layered secret"
        assert calls == []
        # the same draws, the same bytes, through builtin pows
        assert c.pk_enc(pub, b"layered secret", random.Random(seed)) == known
        assert c.pk_dec(priv, known) == b"layered secret"
        assert len(calls) == 2
        calls.clear()


# --- path polynomial -------------------------------------------------------

def oracle_poly_eval(p: int, a0: int, steps: list[int], x: int) -> int:
    """Direct power-sum form: a0 x^l + sum a_i x^(l-i)."""
    l = len(steps)
    total = a0 * pow(x, l, p)
    for i, a in enumerate(steps, start=1):
        total += a * pow(x, l - i, p)
    return total % p


def test_path_poly_example():
    assert c.path_poly_eval(97, 3, [5, 7], 2) == 29  # 3*4 + 5*2 + 7


def test_path_poly_empty_path():
    assert c.path_poly_eval(97, 42, [], 5) == 42


def test_path_poly_matches_direct_form():
    rng = random.Random(16)
    for p in (251, 1009, 2**31 - 1):
        for _ in range(3400):
            steps = [rng.randrange(p) for _ in range(rng.randrange(0, 6))]
            a0, x = rng.randrange(p), rng.randrange(p)
            assert c.path_poly_eval(p, a0, steps, x) == oracle_poly_eval(p, a0, steps, x)


# --- PUF -------------------------------------------------------------------

def test_puf_deterministic_per_device():
    d1 = c.PufDevice("t1", random.Random(17))
    d1b = c.PufDevice("t1", random.Random(17))
    d2 = c.PufDevice("t2", random.Random(18))
    ch = b"challenge"
    assert d1.respond(ch) == d1b.respond(ch)
    assert d1.respond(ch) != d2.respond(ch)


@pytest.mark.parametrize("params", [c.DEFAULT_PARAMS, c.TEST_PARAMS], ids=["default", "test"])
def test_gpow_is_pow_of_the_generator(params):
    q = params.q
    exponents = [0, 1, 255, 256, q - 1, q, q + 5, 2**64 + 3, -1, -q, 2 * q, q * 2**70]
    rng = random.Random(13)
    exponents += [rng.randrange(-(2**80), 2**80) for _ in range(1000)]
    exponents += [q * rng.randrange(-(2**20), 2**20) for _ in range(100)]
    # products of two logs, as the known-log paths raise them
    exponents += [rng.randrange(q) * rng.randrange(q) for _ in range(100)]
    for e in exponents:
        assert c.gpow(params, e) == pow(params.g, e, params.p), e


# --- one-pow decryption ----------------------------------------------------

@pytest.mark.parametrize("params", [c.DEFAULT_PARAMS, c.TEST_PARAMS], ids=["default", "test"])
def test_decrypt_equals_the_inverse_formula(params):
    p = params.p
    rng = random.Random(27)
    priv = c.elg_keygen(rng, params)
    for _ in range(300):
        ct = c.elg_encrypt(priv.public, c.gpow(params, rng.randrange(params.q)), rng)
        # p - c1 lies outside <g>; the formula must hold for it too
        for c1 in (ct.c1, p - ct.c1, rng.randrange(1, p)):
            old = ct.c2 * pow(pow(c1, priv.x, p), -1, p) % p
            assert c.elg_decrypt(priv, c.Ciphertext(params, c1, ct.c2)) == old


def test_decrypt_refuses_a_zero_c1():
    rng = random.Random(28)
    priv = c.elg_keygen(rng)
    for c1 in (0, c.DEFAULT_PARAMS.p):
        with pytest.raises(ValueError):
            c.elg_decrypt(priv, c.Ciphertext(c.DEFAULT_PARAMS, c1, 5))
