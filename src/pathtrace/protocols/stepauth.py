"""Nested hybrid encryption of a single static path.

The issuer wraps the journey inside-out: the innermost plaintext names the
tag and its full path; each enclosing layer encrypts a fresh session key
to one reader's public key, encrypts (step index, next index, tag, inner
blob) under that session key, and signs the result.  A reader that can
open the outermost layer peels it and writes the inner blob back; only
the intended reader of each layer can make progress, so the order of the
path is forced by the encryption itself.  The final reader uncovers the
terminal record and announces the path claim.

Identity lives only inside the encrypted bodies: the over-the-air blobs
carry no tag identifier, and a blob replayed onto a different tag is
rejected when the peeled body names the wrong tag.

The model made every reader key and drew every KEM exponent, so it knows
the discrete log of each KEM element it wrote: ``crypto.pk_enc`` and
``crypto.pk_dec`` raise the generator to the product of the two logs
instead of calling the builtin ``pow``.  A KEM element the model did not
make is decapsulated with ``pow``.  Both give the same shared element, and
every peel still verifies the signature, decapsulates and decrypts.

Storage grows with path length l: one signed layer costs 896 nominal bits
(512 key encapsulation + 256 body + 128 signature) and the terminal record
128, giving 1024 + 896*(l-1) total.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, VerifierPolicyError, register_protocol

KEM_BITS = 512
SYM_BITS = 256
SIG_BITS = 128
LAYER_BITS = KEM_BITS + SYM_BITS + SIG_BITS
TERMINAL_BITS = 128


def secret_size_bits(path_length: int) -> int:
    """Nominal storage for the nested secret of a length-l path."""
    if path_length < 1:
        raise ValueError("path length must be at least 1")
    return TERMINAL_BITS + LAYER_BITS * path_length


@register_protocol
class StepAuth(ProtocolModel):
    name = "stepauth"
    architecture = "offline"
    path_rule = "exactly one"
    path_reader_holds = "box key"
    tag_bits = staticmethod(secret_size_bits)

    def setup(self) -> None:
        self.sign_sk, self.sign_vk = crypto.new_signing_keypair("mgr", self.rng)
        self.box_priv: dict[str, crypto.BoxPrivate] = {}
        self.box_pub: dict[str, crypto.BoxPublic] = {}
        # group element -> its log base g, for every reader key and KEM
        # element the model made; pk_enc and pk_dec raise g to known logs
        self.logs: dict[int, int] = {}
        for token in self.run.readers:
            priv, pub = crypto.new_box_keypair(token, self.rng)
            self.box_priv[token] = priv
            self.box_pub[token] = pub
            self.logs[pub.pub.h] = priv.priv.x

        for tag_token, (path,) in self.paths_of.items():
            blob = self._build_secret(tag_token, path)
            self.run.memory(tag_token).store(
                "secret", blob, nominal_bits=secret_size_bits(len(path))
            )

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        return {"box_x": crypto.int_to_bytes(self.box_priv[reader_token].priv.x, 16)}

    def _build_secret(self, tag_token: str, path: tuple[str, ...]) -> bytes:
        inner = crypto.concat_length_prefixed(
            b"END", tag_token.encode(), *(t.encode() for t in path)
        )
        for i in range(len(path), 0, -1):
            session = self.rng.randbytes(32)
            body = crypto.sym_enc(
                session,
                crypto.concat_length_prefixed(
                    crypto.int_to_bytes(i, 4),
                    crypto.int_to_bytes(i + 1, 4),
                    tag_token.encode(),
                    inner,
                ),
            )
            kem = crypto.pk_enc(self.box_pub[path[i - 1]], session, self.rng, self.logs)
            message = crypto.concat_length_prefixed(kem, body)
            inner = crypto.sign(self.sign_sk, message).to_bytes()
        return inner

    @staticmethod
    def _parse_terminal(blob: bytes) -> tuple[str, tuple[str, ...]] | None:
        parts = crypto.split_fields(blob)
        if parts is None or len(parts) < 3 or parts[0] != b"END":
            return None
        try:
            return parts[1].decode(), tuple(p.decode() for p in parts[2:])
        except UnicodeDecodeError:
            return None

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        mem = self.run.memory(tag_token)
        presented = self.net.transmit(tag_token, reader_token, mem.load("secret"))
        if presented is None:
            return False
        sig = crypto.parse_signature(presented)
        if sig is None or not crypto.verify(self.sign_vk, sig):
            self.net.log_anomaly(
                f"stepauth {reader_token} rejects {tag_token}: bad issuer signature"
            )
            return False
        layer = crypto.split_fields(sig.message, 2)
        if layer is None:
            self.net.log_anomaly(f"stepauth {reader_token} rejects {tag_token}: malformed layer")
            return False
        kem, body = layer
        try:
            session = crypto.pk_dec(self.box_priv[reader_token], kem, self.logs)
            plain = crypto.sym_dec(session, body)
        except crypto.AuthenticationError:
            self.net.log_anomaly(
                f"stepauth {reader_token} cannot peel the layer presented by {tag_token}"
            )
            return False
        step_i, step_next, bound_tag, inner = crypto.split_length_prefixed(plain)
        if bound_tag.decode() != tag_token:
            self.net.log_anomaly(
                f"stepauth {reader_token} rejects {tag_token}: layer bound to another tag"
            )
            return False
        path = self.paths_of[tag_token][0]
        index = crypto.bytes_to_int(step_i)
        terminal = self._parse_terminal(inner)
        if terminal is not None and index != len(path):
            self.net.log_anomaly(
                f"stepauth terminal layer at step {index} of {len(path)} for {tag_token}"
            )
            return False
        written = self.net.transmit(reader_token, tag_token, inner)
        if written is None:
            return False
        bits = secret_size_bits(len(path) - index) if terminal is None else TERMINAL_BITS
        mem.store("secret", written, nominal_bits=bits)
        if terminal is not None:
            claimed_tag, claimed_path = terminal
            self.emit_claim(claimed_tag, claimed_path, reader_token)
        return True

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        checkpoint = self.paths_of[tag_token][0][-1]
        if verifier is not None and verifier != checkpoint:
            raise VerifierPolicyError(
                f"only the checkpoint {checkpoint} can verify, not {verifier}"
            )
        terminal = self._parse_terminal(self.run.memory(tag_token).load("secret"))
        if terminal is None:
            self.net.log_anomaly(f"stepauth checkpoint: {tag_token} has not finished its path")
            return False
        claimed_tag, claimed_path = terminal
        self.emit_claim(claimed_tag, claimed_path, checkpoint)
        return True
