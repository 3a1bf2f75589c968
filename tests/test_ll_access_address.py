"""Unit tests for access-address rules."""

import numpy as np

from repro.ll.access_address import (
    ADVERTISING_ACCESS_ADDRESS,
    generate_access_address,
    is_valid_access_address,
)


class TestValidation:
    def test_advertising_aa_is_invalid_for_data(self):
        assert not is_valid_access_address(ADVERTISING_ACCESS_ADDRESS)

    def test_one_bit_from_advertising_invalid(self):
        for bit in range(32):
            assert not is_valid_access_address(
                ADVERTISING_ACCESS_ADDRESS ^ (1 << bit))

    def test_long_runs_invalid(self):
        assert not is_valid_access_address(0x0000_00FF)  # >6 equal bits
        assert not is_valid_access_address(0xFFFF_FFFF)

    def test_four_equal_bytes_invalid(self):
        assert not is_valid_access_address(0xA5A5A5A5)

    def test_known_good_address(self):
        # Alternating nibble patterns satisfy every rule.
        assert is_valid_access_address(0x9B3D4C56)

    def test_out_of_range(self):
        assert not is_valid_access_address(1 << 32)
        assert not is_valid_access_address(-1)


class TestGeneration:
    def test_generated_addresses_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert is_valid_access_address(generate_access_address(rng))

    def test_deterministic_under_seed(self):
        a = generate_access_address(np.random.default_rng(5))
        b = generate_access_address(np.random.default_rng(5))
        assert a == b

    def test_distinct_draws(self):
        rng = np.random.default_rng(6)
        draws = {generate_access_address(rng) for _ in range(20)}
        assert len(draws) == 20
