"""Tests for the crypto/wire fast path (ISSUE 1).

Covers: CRT/plain signature bit-identity, deterministic-keygen enforcement,
signature wire-format validation, verification-cache transparency under
random signature tampering, cache bounds, codec-memo correctness, and
batched multisignature verification.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import fastpath_stats
from repro.core.forwarding import (
    _coverage_cache,
    _coverage_for,
    configure_coverage_cache,
    coverage_cache_stats,
)
from repro.crypto import verify_cache
from repro.crypto.multisig import MultisigGroup, verify_multisig_values_batch
from repro.crypto.rsa import RSAKeyPair, RSASignature
from repro.net import message
from repro.net.topology import grid_topology


# -- CRT signing ---------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    payload=st.binary(max_size=64),
)
def test_crt_signatures_bit_identical_to_plain(seed, payload):
    pair = RSAKeyPair(bits=256, seed=seed)
    assert pair.sign(payload).value == pair.sign_plain(payload).value
    assert pair.public_key.verify(payload, pair.sign(payload))


def test_keypair_requires_explicit_seed():
    with pytest.raises(ValueError, match="seed"):
        RSAKeyPair(bits=256, seed=None)


# -- signature wire format -----------------------------------------------------


def test_signature_from_bytes_rejects_malformed_input():
    pair = RSAKeyPair(bits=256, seed=3)
    wire = pair.sign(b"payload").to_bytes()
    for bad in (b"", b"\x00", b"\x00\x00", wire[:-1], wire + b"\x00", wire[:2]):
        with pytest.raises(ValueError):
            RSASignature.from_bytes(bad)


def test_garbage_signature_bytes_verify_false_not_raise():
    system_bits = 256
    directory_pair = RSAKeyPair(bits=system_bits, seed=5)
    from repro.core.identity import Directory

    directory = Directory(rsa_bits=system_bits, seed=5)
    directory.register(0)
    crypto = directory.crypto_for(0)
    for garbage in (b"", b"\x00", b"\xff" * 3, b"\x00\x10" + b"\x01" * 7):
        assert crypto.verify(0, b"body", garbage) is False
    assert directory_pair is not None  # silence unused warning


def test_non_byte_aligned_modulus_roundtrip():
    pair = RSAKeyPair(bits=257, seed=9)
    assert pair.public_key.bits == 257
    sig = pair.sign(b"odd modulus")
    wire = sig.to_bytes()
    parsed = RSASignature.from_bytes(wire)
    # key_bits rounds up to the serialized width, so the round-trip is
    # byte-exact and the signature still verifies.
    assert parsed.to_bytes() == wire
    assert parsed.value == sig.value
    assert pair.public_key.verify(b"odd modulus", parsed)


# -- verification cache --------------------------------------------------------


def test_verification_cache_is_capacity_bounded():
    cache = verify_cache.VerificationCache(capacity=8)
    for i in range(50):
        assert cache.get(("k", i)) is None
        cache.put(("k", i), i % 2 == 0)
    assert len(cache) == 8
    stats = cache.stats()
    assert stats["evictions"] == 42
    # Recent entries survive, including cached False outcomes.
    assert cache.get(("k", 49)) is False
    assert cache.get(("k", 48)) is True
    assert cache.get(("k", 0)) is None


def test_cache_transparency_under_random_tampering():
    """Cache hits never change a verify outcome: random valid/corrupted
    signatures, checked twice (miss then hit), agree with the raw RSA
    primitive on every call."""
    rng = random.Random(7)
    from repro.core.identity import Directory

    directory = Directory(rsa_bits=256, seed=77)
    directory.register(0)
    cached = directory.crypto_for(0)
    public = directory.rsa_public(0)
    verify_cache.GLOBAL.clear()
    for trial in range(40):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        wire = bytearray(directory._rsa_pairs[0].sign(body).to_bytes())
        if rng.random() < 0.5:  # corrupt a byte (possibly the length prefix)
            index = rng.randrange(len(wire))
            wire[index] ^= 1 + rng.randrange(255)
        wire = bytes(wire)
        try:
            expected = public.verify(body, RSASignature.from_bytes(wire))
        except (ValueError, IndexError):
            expected = False
        assert cached.verify(0, body, wire) == expected  # miss path
        assert cached.verify(0, body, wire) == expected  # hit path


# -- coverage cache bound ------------------------------------------------------


def test_coverage_cache_is_bounded():
    before = coverage_cache_stats()["capacity"]
    try:
        configure_coverage_cache(4)
        for i in range(20):
            adjacency = {j: tuple(x for x in range(4) if x != j) for j in range(4)}
            adjacency[0] = tuple(range(1, 2 + i % 3))  # vary the key
            _coverage_for({**adjacency, 99: (i,)}, max_age=3)
        assert len(_coverage_cache) <= 4
        assert coverage_cache_stats()["evictions"] > 0
        # Repeated lookups of a live entry count as hits.
        _coverage_for({0: (1,), 1: (0,)}, max_age=2)
        hits_before = coverage_cache_stats()["hits"]
        _coverage_for({0: (1,), 1: (0,)}, max_age=2)
        assert coverage_cache_stats()["hits"] == hits_before + 1
    finally:
        configure_coverage_cache(before)


# -- codec memo ----------------------------------------------------------------


def test_codec_memo_preserves_encodings():
    shared = ("record", 17, b"sig-bytes", (1, 2, 3))
    values = [
        (shared, 1),
        (shared, 2),
        [shared, shared],
        {"k": shared, True: "t", 1: "one"},
        frozenset({1, (2, 3)}),
    ]
    for v in values:
        message.configure_codec_memo()  # empty memo: the next encode is cold
        cold = message.encode(v)
        before = message.codec_memo_stats()["hits"]
        hot = message.encode(v)
        assert message.codec_memo_stats()["hits"] > before
        assert hot == cold
        assert message.decode(cold) == v
    # bool/int cousins stay distinct.
    assert message.encode(True) != message.encode(1)
    assert message.encode((True,)) != message.encode((1,))


def test_codec_memo_never_caches_mutable_content():
    message.configure_codec_memo()
    inner = [1, 2]
    holder = (0, inner)
    first = message.encode(holder)
    inner.append(3)
    second = message.encode(holder)
    assert first != second
    assert message.decode(second) == (0, [1, 2, 3])


def test_codec_memo_is_bounded():
    message.configure_codec_memo(capacity=16)
    try:
        for i in range(200):
            message.encode((i, i + 1))
        stats = message.codec_memo_stats()
        assert stats["entries"] <= 16
        assert stats["evictions"] > 0
    finally:
        message.configure_codec_memo(capacity=4096)


# -- batched multisignature verification ---------------------------------------


def test_batch_multisig_matches_individual_verdicts():
    group = MultisigGroup(bits=128, seed=4)
    rng = random.Random(4)
    pairs = [group.keypair(seed=i) for i in range(6)]
    for trial in range(30):
        entries = []
        expected = []
        for i, pair in enumerate(pairs):
            body = b"hb-%d-%d" % (trial, i)
            sig = pair.sign(body).value
            apk = pair.public_key.value
            if rng.random() < 0.4:  # tamper
                sig = (sig + 1 + rng.randrange(group.q - 1)) % group.q
            h = group.hash_to_group(body)
            expected.append((sig * group.g) % group.q == (h * apk) % group.q)
            entries.append((body, sig, apk))
        assert verify_multisig_values_batch(group, entries) == expected
    # Single-entry short circuit.
    body = b"solo"
    sig = pairs[0].sign(body).value
    assert verify_multisig_values_batch(
        group, [(body, sig, pairs[0].public_key.value)]
    ) == [True]
    assert verify_multisig_values_batch(group, []) == []


def test_fastpath_stats_shape():
    stats = fastpath_stats()
    assert set(stats) == {
        "rsa_sign",
        "verify_cache",
        "multisig_batch",
        "codec_memo",
        "frame_cache",
        "coverage_cache",
        "ilp_solver",
        "place_memo",
        "edf_memo",
        "modegen_lookup",
        "quotas",
        "stabilize",
    }
    assert "hit_rate" in stats["verify_cache"]
    assert {"charged", "dropped"} <= set(stats["quotas"])
    assert {"hits", "misses"} <= set(stats["place_memo"])
    assert {"hits", "misses"} <= set(stats["edf_memo"])
    assert {"hits", "misses"} <= set(stats["modegen_lookup"])
    assert "warm_starts" in stats["ilp_solver"]


def test_grid_topology_shape():
    topo = grid_topology(4, 5)
    assert len(topo.nodes) == 20
    # Interior node 6 (row 1, col 1) has 4 neighbors; corner 0 has 2.
    assert len(list(topo.neighbors(6))) == 4
    assert len(list(topo.neighbors(0))) == 2
    with pytest.raises(ValueError):
        grid_topology(0, 3)
