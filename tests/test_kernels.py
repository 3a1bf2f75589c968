"""Differential tests: table-driven codec kernels vs. bit-level references.

Every fast path (byte-wise CRC-24 forward/reverse, keystream whitening,
cached CSA#2 schedules, T-table AES) is cross-checked against the retained
reference implementation over ~1k random inputs, and — because the trial
cache must only ever invalidate, never silently diverge — a fixed-seed
trial panel is asserted byte-identical at the ``TrialResult`` level with
the kernels swapped out via :func:`repro.kernels.reference_kernels`.
"""

import random

import pytest

from repro.crypto.aes import (
    aes128_encrypt_block,
    aes128_encrypt_block_reference,
    expand_key,
)
from repro.crypto.ccm import ccm_decrypt, ccm_encrypt
from repro.errors import CodecError, LinkLayerError, SecurityError
from repro.kernels import REV8, reference_kernels
from repro.ll import csa2 as csa2_module
from repro.ll.csa2 import Csa2, channel_identifier
from repro.phy.crc import (
    crc24,
    crc24_reference,
    reverse_crc24_init,
    reverse_crc24_init_reference,
)
from repro.phy.whitening import whiten, whiten_reference

N_RANDOM = 1000


class TestRev8Table:
    def test_matches_bitwise_reversal(self):
        for value in range(256):
            expected = int(f"{value:08b}"[::-1], 2)
            assert REV8[value] == expected

    def test_involution(self):
        assert all(REV8[REV8[v]] == v for v in range(256))


class TestCrcDifferential:
    def test_forward_random(self):
        rng = random.Random(0xC24)
        for _ in range(N_RANDOM):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 64)))
            init = rng.randrange(1 << 24)
            assert crc24(data, init) == crc24_reference(data, init)

    def test_reverse_random(self):
        rng = random.Random(0xC42)
        for _ in range(N_RANDOM):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 64)))
            value = rng.randrange(1 << 24)
            assert reverse_crc24_init(data, value) == \
                reverse_crc24_init_reference(data, value)

    def test_roundtrip_through_fast_paths(self):
        rng = random.Random(7)
        for _ in range(200):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 40)))
            init = rng.randrange(1 << 24)
            assert reverse_crc24_init(data, crc24(data, init)) == init


class TestWhiteningDifferential:
    def test_random(self):
        rng = random.Random(0x40)
        for _ in range(N_RANDOM):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 64)))
            channel = rng.randrange(40)
            assert whiten(data, channel) == whiten_reference(data, channel)

    def test_beyond_keystream_period(self):
        # Frames longer than the 127-byte keystream period exercise tiling.
        data = bytes(range(256)) * 2
        for channel in (0, 11, 39):
            assert whiten(data, channel) == whiten_reference(data, channel)
            assert whiten(whiten(data, channel), channel) == data


class TestCsa2Differential:
    def test_random_sequences(self):
        rng = random.Random(0x52)
        for _ in range(25):
            aa = rng.randrange(1 << 32)
            channel_map = rng.randrange(1, 1 << 37)
            csa = Csa2(aa, channel_map)
            for _ in range(40):  # 25 * 40 = 1000 cross-checked events
                event = rng.randrange(1 << 16)
                assert csa.channel_for_event(event) == \
                    csa.channel_for_event_reference(event)

    def test_schedule_shared_between_instances(self):
        # Master, Slave and sniffer of one connection read the same blocks.
        csa2_module.clear_schedule_cache()
        a = Csa2(0x71764129)
        b = Csa2(0x71764129)
        assert a._blocks is b._blocks
        a.channel_for_event(0)
        assert 0 in b._blocks

    def test_channel_map_update_switches_schedule(self):
        csa = Csa2(0x71764129)
        before = [csa.channel_for_event(e) for e in range(64)]
        csa.set_channel_map(0x3FF)
        assert all(csa.channel_for_event(e) <= 9 for e in range(200))
        csa.set_channel_map((1 << 37) - 1)
        assert [csa.channel_for_event(e) for e in range(64)] == before

    def test_cache_eviction_keeps_results_correct(self):
        csa2_module.clear_schedule_cache()
        reference = Csa2(0x12345678)
        expected = [reference.channel_for_event_reference(e) for e in range(8)]
        # Overflow the (ch_id, map) LRU so the first schedule is evicted.
        for aa in range(csa2_module._MAX_SCHEDULES + 4):
            Csa2(aa).channel_for_event(0)
        fresh = Csa2(0x12345678)
        assert [fresh.channel_for_event(e) for e in range(8)] == expected


class TestAesDifferential:
    def test_random_blocks(self):
        rng = random.Random(0xAE5)
        for _ in range(N_RANDOM):
            key = bytes(rng.randrange(256) for _ in range(16))
            block = bytes(rng.randrange(256) for _ in range(16))
            assert aes128_encrypt_block(key, block) == \
                aes128_encrypt_block_reference(key, block)

    def test_expand_key_returns_fresh_list(self):
        key = bytes(range(16))
        first = expand_key(key)
        first[0] = b"\x00" * 16  # a caller mutating its copy ...
        assert expand_key(key)[0] == key  # ... must not poison the cache

    def test_ccm_roundtrip_on_fast_path(self):
        key, nonce = bytes(range(16)), bytes(13)
        payload = b"injected frame payload"
        sealed = ccm_encrypt(key, nonce, payload, aad=b"\x02")
        assert ccm_decrypt(key, nonce, sealed, aad=b"\x02") == payload


class TestValidationHoisting:
    """Out-of-range arguments are rejected once, before any per-byte work."""

    def test_crc24_rejects_out_of_range_init(self):
        for bad in (-1, 1 << 24, 1 << 32):
            with pytest.raises(CodecError):
                crc24(b"x", bad)
            with pytest.raises(CodecError):
                crc24_reference(b"x", bad)

    def test_reverse_crc24_rejects_out_of_range_value(self):
        for bad in (-1, 1 << 24):
            with pytest.raises(CodecError):
                reverse_crc24_init(b"x", bad)
            with pytest.raises(CodecError):
                reverse_crc24_init_reference(b"x", bad)

    def test_whiten_rejects_out_of_range_channel(self):
        for bad in (-1, 40, 255):
            with pytest.raises(CodecError):
                whiten(b"\x00", bad)
            with pytest.raises(CodecError):
                whiten_reference(b"\x00", bad)

    def test_csa2_rejects_out_of_range_event(self):
        csa = Csa2(0x71764129)
        for bad in (-1, 1 << 16):
            with pytest.raises(LinkLayerError):
                csa.channel_for_event(bad)
            with pytest.raises(LinkLayerError):
                csa.channel_for_event_reference(bad)

    def test_channel_identifier_rejects_out_of_range_aa(self):
        for bad in (-1, 1 << 32):
            with pytest.raises(LinkLayerError):
                channel_identifier(bad)

    def test_aes_rejects_bad_lengths(self):
        with pytest.raises(SecurityError):
            aes128_encrypt_block(bytes(15), bytes(16))
        with pytest.raises(SecurityError):
            aes128_encrypt_block(bytes(16), bytes(15))
        with pytest.raises(SecurityError):
            aes128_encrypt_block_reference(bytes(16), bytes(15))


class TestReferenceKernelSwap:
    def test_swap_and_restore(self):
        from repro.crypto import aes
        from repro.phy import crc, whitening

        assert crc._crc24_impl is crc._crc24_table
        with reference_kernels():
            assert crc._crc24_impl is crc._crc24_bitwise
            assert whitening._whiten_impl is whitening._whiten_bitwise
            assert aes._encrypt_impl is aes._encrypt_reference
            assert not csa2_module._fast_enabled
            assert crc24(b"abc", 0x555555) == crc24_reference(b"abc", 0x555555)
        assert crc._crc24_impl is crc._crc24_table
        assert csa2_module._fast_enabled


class TestEndToEndDeterminism:
    def test_trial_results_identical_under_reference_kernels(self):
        """The kernel swap must be invisible at the trial-result level.

        A trial run under either kernel set must be byte-identical —
        reports, records and verdicts included — so the fast kernels can
        only speed the paper's results up, never change them.
        """
        from repro.experiments.common import InjectionTrial, run_single_trial

        trials = [
            InjectionTrial(seed=4242, hop_interval=50),
            InjectionTrial(seed=9001, hop_interval=75, pdu_len=22),
            InjectionTrial(seed=777, encrypted=True),
        ]
        fast = [run_single_trial(t) for t in trials]
        with reference_kernels():
            reference = [run_single_trial(t) for t in trials]
        assert fast == reference
