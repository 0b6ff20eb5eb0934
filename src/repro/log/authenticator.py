"""Authenticators: signed commitments to a log prefix.

Section 4.3: *the authenticator for an entry ``e_i`` is ``a_i := (s_i, h_i,
sigma(s_i || h_i))``*.  The sender attaches an authenticator (plus ``h_{i-1}``
and the entry fields needed to recompute ``h_i``) to every outgoing message,
and includes one in every acknowledgment, so its communication partners
accumulate non-repudiable commitments to its log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.crypto import hashing
from repro.crypto.keys import KeyPair, KeyStore
from repro.crypto.signatures import BatchVerifyResult
from repro.errors import LogFormatError
from repro.log.entries import EntryType, send_content
from repro.log.hashchain import chain_hash as _chain_hash


@dataclass(frozen=True)
class Authenticator:
    """A signed (sequence, chain-hash) pair issued by ``machine``.

    ``previous_hash`` and ``entry_type``/``content_hash`` are included so the
    recipient can recompute ``h_i`` and confirm that the covered entry really
    is, e.g., ``SEND(m)`` for the message it just received (Section 4.3).
    """

    machine: str
    sequence: int
    chain_hash: bytes
    signature: bytes
    previous_hash: bytes
    entry_type: str
    content_hash: bytes

    def signed_payload(self) -> bytes:
        """The byte string covered by the signature: ``s_i || h_i``."""
        return signed_payload(self.sequence, self.chain_hash)

    def recomputed_chain_hash(self) -> bytes:
        """``h_i`` recomputed from the advertised ``h_{i-1}``, type and content hash."""
        return hashing.hash_concat(
            self.previous_hash,
            hashing.encode_int(self.sequence),
            self.entry_type.encode("utf-8"),
            self.content_hash,
        )

    def verify(self, keystore: KeyStore) -> bool:
        """Verify the signature and internal consistency of the authenticator."""
        if self.recomputed_chain_hash() != self.chain_hash:
            return False
        return keystore.verify(self.machine, self.signed_payload(), self.signature)

    def wire_size(self) -> int:
        """Bytes the authenticator occupies in a message.

        The machine name, an 8-byte sequence, the chain and previous hashes,
        the signature and the entry type.  The content hash travels too,
        except for a SEND entry's authenticator: it rides with the message it
        commits to, from which the receiver recomputes the content hash.
        """
        size = (len(self.machine.encode("utf-8")) + 8 + len(self.chain_hash)
                + len(self.previous_hash) + len(self.signature)
                + len(self.entry_type.encode("utf-8")))
        if self.entry_type != EntryType.SEND.wire_name:
            size += len(self.content_hash)
        return size

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for transport or storage."""
        return {
            "machine": self.machine,
            "sequence": self.sequence,
            "chain_hash": self.chain_hash.hex(),
            "signature": self.signature.hex(),
            "previous_hash": self.previous_hash.hex(),
            "entry_type": self.entry_type,
            "content_hash": self.content_hash.hex(),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Authenticator":
        try:
            return Authenticator(
                machine=str(data["machine"]),
                sequence=int(data["sequence"]),
                chain_hash=bytes.fromhex(data["chain_hash"]),
                signature=bytes.fromhex(data["signature"]),
                previous_hash=bytes.fromhex(data["previous_hash"]),
                entry_type=str(data["entry_type"]),
                content_hash=bytes.fromhex(data["content_hash"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise LogFormatError(f"malformed authenticator: {exc}") from exc


def signed_payload(sequence: int, chain_hash: bytes) -> bytes:
    """Canonical byte string the machine signs: ``s_i || h_i``."""
    return hashing.hash_concat(hashing.encode_int(sequence), chain_hash)


def send_chain_hash(previous_hash: bytes, sequence: int, destination: str,
                    payload: bytes, message_id: str) -> bytes:
    """``h_i`` of the SEND entry that commits to one message (Section 4.3).

    The receiver of a message recomputes it from the sender's ``h_{i-1}``
    and ``s_i`` (both carried by the authenticator) and the message itself,
    and so does an auditor later from the receiver's RECV entry.  The
    authenticator's signature over ``(s_i, h_i)`` then proves the sender
    logged a SEND of exactly this payload, to this destination, under this
    message id.
    """
    return _chain_hash(previous_hash, sequence, EntryType.SEND, send_content(
        destination=destination, payload_hash=hashing.hash_bytes(payload),
        payload_size=len(payload), message_id=message_id))


def batch_verify_authenticators(
        authenticators: Sequence[Authenticator],
        keystore) -> Tuple[List[Authenticator], List[int], BatchVerifyResult]:
    """Verify many authenticators from one machine with batched signatures.

    Splits verification into its two parts: the internal consistency check
    (recompute ``h_i`` from the advertised fields — pure hashing, done per
    authenticator) and the signature check, which is delegated to the
    keystore's verify-many API so a whole batch usually costs one screening
    operation.  Returns ``(valid, invalid_indices, signature_stats)``; a
    single bad authenticator in a large batch is pinpointed, not smeared over
    the batch.

    ``keystore`` may be a :class:`~repro.crypto.keys.KeyStore` or the
    picklable :class:`~repro.crypto.keys.StaticKeyView` the audit engine
    ships to worker processes.  All authenticators must come from the same
    machine (callers group them per target first).
    """
    if not authenticators:
        return [], [], BatchVerifyResult(total=0)
    machine = authenticators[0].machine
    invalid: List[int] = []
    screenable: List[int] = []
    for index, auth in enumerate(authenticators):
        if auth.machine != machine:
            raise LogFormatError(
                f"batch mixes authenticators from {machine!r} and {auth.machine!r}")
        if auth.recomputed_chain_hash() != auth.chain_hash:
            invalid.append(index)
        else:
            screenable.append(index)

    items = [(authenticators[i].signed_payload(), authenticators[i].signature)
             for i in screenable]
    stats = keystore.verify_many(machine, items)
    invalid.extend(screenable[bad] for bad in stats.invalid_indices)
    invalid.sort()
    bad_set = set(invalid)
    valid = [auth for index, auth in enumerate(authenticators)
             if index not in bad_set]
    return valid, invalid, stats


def make_authenticator(keypair: KeyPair, *, sequence: int, chain_hash: bytes,
                       previous_hash: bytes, entry_type: str,
                       content_hash: bytes) -> Authenticator:
    """Create and sign an authenticator for the given log entry fields."""
    signature = keypair.sign(signed_payload(sequence, chain_hash))
    return Authenticator(
        machine=keypair.identity,
        sequence=sequence,
        chain_hash=chain_hash,
        signature=signature,
        previous_hash=previous_hash,
        entry_type=entry_type,
        content_hash=content_hash,
    )
