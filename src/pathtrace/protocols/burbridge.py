"""Policy-routed shipments with re-signed travel documents.

A supply-chain controller hands every participant a shipping/receiving
policy derived from the registered paths and issues each tag a signed
travel document.  At every hop the receiver checks that the shipment
arrives over a policy edge, verifies the document against the stage it
claims to come from, and re-signs it for its own stage.  The scheme
never transmits a path statement of its own; the controller afterwards
attributes to each tag the first registered path whose final hop
reported a completed acceptance.

Two key layouts are modeled.  The default collapses every stage onto a
single signing key that all readers hold, which is the variant the
authors chose to avoid one key pair per policy entry; two colluding
readers can then route a tag across another tag's edges and the final
hop still verifies, so the controller attributes the registered path in
full even though one stage was bypassed.  The ``per_tag`` layout gives
the controller one key per tag and readers only an atomic re-signing
step that refuses input documents whose stage transition is not in the
policy, which stops the bypass at the first reader that cannot produce
an onward document.
"""

from __future__ import annotations

from pathtrace import crypto
from pathtrace.protocols.base import ProtocolModel, register_protocol

DOC_BITS = 256


@register_protocol
class Burbridge(ProtocolModel):
    name = "burbridge"
    architecture = "offline"
    modes = ("default", "per_tag")
    path_rule = "at least one"
    verifier = "scc"  # the supply-chain controller, which issues and attributes

    def setup(self) -> None:
        self.per_tag_keys = self.config.mode == "per_tag"

        # the policy edges of each tag: every hop of its registered paths,
        # the first one leaving the controller
        self.edges: dict[str, set[tuple[str, str]]] = {
            tag_token: {edge for path in paths for edge in zip((self.verifier, *path), path)}
            for tag_token, paths in self.paths_of.items()
        }

        self.chain_sk, self.chain_vk = crypto.new_signing_keypair("supply-chain", self.rng)
        self.doc_keys: dict[str, tuple[crypto.SigningKey, crypto.VerifyKey]] = {}
        self._location: dict[str, str] = {}
        for tag_token in self.config.tags:
            if self.per_tag_keys:
                self.doc_keys[tag_token] = crypto.new_signing_keypair(
                    f"doc-{tag_token}", self.rng
                )
            doc = self._issue(tag_token, self.verifier)
            self.run.memory(tag_token).store("doc", doc, nominal_bits=DOC_BITS)
            self._location[tag_token] = self.verifier

        self._accepted: set[tuple[str, str]] = set()

    # --- documents ------------------------------------------------------

    def _doc_message(self, tag_token: str, stage: str) -> bytes:
        return crypto.concat_length_prefixed(tag_token.encode(), stage.encode())

    def _verify_key(self, tag_token: str) -> crypto.VerifyKey:
        if self.per_tag_keys:
            return self.doc_keys[tag_token][1]
        return self.chain_vk

    def _issue(self, tag_token: str, stage: str) -> bytes:
        sk = self.doc_keys[tag_token][0] if self.per_tag_keys else self.chain_sk
        return crypto.sign(sk, self._doc_message(tag_token, stage)).to_bytes()

    def _doc_stage(self, tag_token: str, sig: crypto.Signature | None) -> str | None:
        """Stage a document vouches for, or None when it does not verify."""
        if sig is None or not crypto.verify(self._verify_key(tag_token), sig):
            return None
        fields = crypto.split_fields(sig.message, 2)
        if fields is None or fields[0] != tag_token.encode():
            return None
        try:
            return fields[1].decode()
        except UnicodeDecodeError:
            return None

    def _resign(self, tag_token: str, reader_token: str, sig: crypto.Signature | None) -> bytes | None:
        """Produce the reader's stage document.

        With the shared key any reader signs outright.  The per-tag
        transform is atomic: it only converts a document that verifies
        for a stage from which policy allows shipping to this reader.
        """
        if not self.per_tag_keys:
            return self._issue(tag_token, reader_token)
        stage = self._doc_stage(tag_token, sig)
        if stage is None or (stage, reader_token) not in self.edges[tag_token]:
            return None
        return self._issue(tag_token, reader_token)

    def reader_secrets(self, reader_token: str) -> dict[str, bytes]:
        policy = crypto.concat_length_prefixed(
            *(f"{a}>{b}".encode() for tag in sorted(self.edges) for a, b in sorted(self.edges[tag]))
        )
        secrets = {"policy": policy}
        if not self.per_tag_keys:
            secrets["sign"] = self.chain_sk.secret
        return secrets

    # --- movement -------------------------------------------------------

    def _process_arrival(self, tag_token: str, reader_token: str) -> bool:
        sender = self._location[tag_token]
        dishonest = reader_token in self.net.compromised
        mem = self.run.memory(tag_token)
        blob = self.net.transmit(tag_token, reader_token, mem.load("doc"))
        sig = crypto.parse_signature(blob) if blob is not None else None
        if not dishonest:
            if (sender, reader_token) not in self.edges[tag_token]:
                self.net.log_anomaly(
                    f"burbridge {reader_token} refuses {tag_token} arriving from {sender}"
                )
                return False
            if self._doc_stage(tag_token, sig) != sender:
                self.net.log_anomaly(
                    f"burbridge {reader_token}: document of {tag_token} does not vouch for {sender}"
                )
                return False
        new_doc = self._resign(tag_token, reader_token, sig)
        if new_doc is not None:
            delivered = self.net.transmit(reader_token, tag_token, new_doc)
            if delivered is not None:
                mem.store("doc", delivered, nominal_bits=DOC_BITS)
        self._location[tag_token] = reader_token
        self._accepted.add((tag_token, reader_token))
        return True

    # --- attribution ----------------------------------------------------

    def _process_claim(self, tag_token: str, verifier: str | None) -> bool:
        for path in self.paths_of[tag_token]:
            if (tag_token, path[-1]) in self._accepted:
                self.emit_claim(tag_token, path, self.verifier)
                return True
        self.net.log_anomaly(f"burbridge controller: no completed journey for {tag_token}")
        return False
