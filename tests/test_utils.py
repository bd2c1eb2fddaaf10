"""Unit tests for shared utilities."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils import derive_seed, format_bytes, format_time, parse_bytes, spawn_rng


class TestParseBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, 0),
            (1024, 1024),
            ("2", 2),
            ("8B", 8),
            ("1KiB", 1024),
            ("32kib", 32 * 1024),
            ("1MiB", 1024 * 1024),
            ("1m", 1024 * 1024),
            ("2GiB", 2 * 1024**3),
            ("0.5KiB", 512),
        ],
    )
    def test_accepted(self, value, expected):
        assert parse_bytes(value) == expected

    @pytest.mark.parametrize("value", [
        "-1", "1XB", "abc", -5, 3.5, "0.3B", True,
        float("nan"), float("inf"), float("-inf"),
        pytest.param("9" * 400 + "KiB", id="overflows-float"),
    ])
    def test_rejected(self, value):
        with pytest.raises(ConfigurationError):
            parse_bytes(value)


class TestFormatBytes:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [(2, "2B"), (1024, "1KiB"), (32768, "32KiB"), (1024**2, "1MiB"), (1500, "1500B")],
    )
    def test_format(self, nbytes, expected):
        assert format_bytes(nbytes) == expected

    @given(st.integers(min_value=0, max_value=2**40))
    def test_roundtrip(self, nbytes):
        assert parse_bytes(format_bytes(nbytes)) == nbytes


class TestFormatTime:
    def test_unit_selection(self):
        assert format_time(1.5).endswith("s")
        assert format_time(2e-3).endswith("ms")
        assert format_time(3e-6).endswith("us")
        assert format_time(5e-9).endswith("ns")


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "noise", 3) == derive_seed(1, "noise", 3)

    def test_derive_seed_sensitive_to_components(self):
        seeds = {
            derive_seed(1, "noise", 3),
            derive_seed(1, "noise", 4),
            derive_seed(1, "clock", 3),
            derive_seed(2, "noise", 3),
        }
        assert len(seeds) == 4

    def test_spawn_rng_independent_streams(self):
        a = spawn_rng(0, "x").random(5).tolist()
        b = spawn_rng(0, "y").random(5).tolist()
        assert a != b

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_uint32_range(self, base, name):
        seed = derive_seed(base, name)
        assert 0 <= seed < 2**32
