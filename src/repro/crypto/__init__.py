"""Cryptographic substrate for the XRD reproduction.

This package implements, from scratch, every primitive the paper relies on:

* a prime-order group where the decisional Diffie-Hellman assumption is
  plausible (:mod:`repro.crypto.group` — Ed25519 in pure Python, plus a small
  Schnorr-style modular group used for fast property tests),
* authenticated encryption (:mod:`repro.crypto.aead` — ChaCha20-Poly1305, the
  primitive the paper's NaCl-based prototype uses),
* key derivation (:mod:`repro.crypto.kdf` — HKDF-SHA256),
* non-interactive zero-knowledge proofs (:mod:`repro.crypto.nizk` — Schnorr
  knowledge-of-discrete-log and Chaum-Pedersen discrete-log equality),
* onion encryption in both the baseline (Algorithm 2) and aggregate hybrid
  shuffle (§6.2) flavours (:mod:`repro.crypto.onion`),
* key management (:mod:`repro.crypto.keys`) and a simulated public
  randomness beacon (:mod:`repro.crypto.randomness`).
"""

from repro.crypto.aead import AuthenticatedCiphertext, adec, aenc
from repro.crypto.group import Ed25519Group, ModPGroup, Point
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract, nonce_from_round
from repro.crypto.keys import KeyDirectory, KeyPair
from repro.crypto.nizk import DleqProof, SchnorrProof, prove_dleq, prove_dlog, verify_dleq, verify_dlog
from repro.crypto.randomness import PublicRandomnessBeacon

__all__ = [
    "AuthenticatedCiphertext",
    "DleqProof",
    "Ed25519Group",
    "KeyDirectory",
    "KeyPair",
    "ModPGroup",
    "Point",
    "PublicRandomnessBeacon",
    "SchnorrProof",
    "adec",
    "aenc",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
    "nonce_from_round",
    "prove_dleq",
    "prove_dlog",
    "verify_dleq",
    "verify_dlog",
]
