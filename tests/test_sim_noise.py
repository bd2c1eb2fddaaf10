"""Unit tests for the system-noise models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.noise import NOISE_PROFILES, NoiseModel, NoiseProfile, get_noise_profile
from repro.utils.seeding import spawn_rng


class TestProfiles:
    def test_named_profiles_exist(self):
        for name in ("none", "quiet", "moderate", "noisy"):
            assert get_noise_profile(name).name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            get_noise_profile("chaotic")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(speed_sigma=-0.1),
            dict(spike_probability=1.5),
            dict(spike_duration=-1.0),
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        profile = NoiseProfile("bad", **kwargs)
        with pytest.raises(ConfigurationError):
            NoiseModel(profile, num_ranks=4)


class TestNoiseModel:
    def test_none_profile_is_identity(self):
        model = NoiseModel("none", num_ranks=4, seed=1)
        for rank in range(4):
            assert model.perturb(rank, 0.0, 0.01) == 0.01

    def test_deterministic_given_seed(self):
        a = NoiseModel("noisy", num_ranks=8, seed=42)
        b = NoiseModel("noisy", num_ranks=8, seed=42)
        seq_a = [a.perturb(r, 0.0, 1e-3) for r in range(8) for _ in range(5)]
        seq_b = [b.perturb(r, 0.0, 1e-3) for r in range(8) for _ in range(5)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        a = NoiseModel("noisy", num_ranks=4, seed=1)
        b = NoiseModel("noisy", num_ranks=4, seed=2)
        assert [a.perturb(0, 0.0, 1e-3) for _ in range(10)] != [
            b.perturb(0, 0.0, 1e-3) for _ in range(10)
        ]

    def test_adding_ranks_preserves_existing_streams(self):
        small = NoiseModel("moderate", num_ranks=4, seed=7)
        large = NoiseModel("moderate", num_ranks=8, seed=7)
        for rank in range(4):
            assert small.speed_factor(rank) != 1.0 or small.profile.speed_sigma == 0
            s = [small.perturb(rank, 0.0, 1e-3) for _ in range(3)]
            l = [large.perturb(rank, 0.0, 1e-3) for _ in range(3)]
            assert s == l

    def test_lazy_streams_match_streams_built_up_front(self):
        # Each rank's stream is derived from (seed, rank) alone, so building
        # it on first draw cannot change the draws, in any rank order.
        lazy = NoiseModel("noisy", num_ranks=8, seed=9)
        eager = NoiseModel("noisy", num_ranks=8, seed=9)
        eager._rngs = [spawn_rng(9, "noise", rank) for rank in range(8)]
        assert lazy._rngs == [None] * 8
        order = [5, 2, 5, 7, 0, 2, 3, 3, 6, 1, 4, 0, 5]
        assert ([lazy.perturb(r, 0.0, 1e-3) for r in order]
                == [eager.perturb(r, 0.0, 1e-3) for r in order])
        assert sum(rng is not None for rng in lazy._rngs) == len(set(order))

    def test_persistent_speed_factor_is_stable(self):
        model = NoiseModel("noisy", num_ranks=16, seed=3)
        factors = [model.speed_factor(r) for r in range(16)]
        assert factors == [model.speed_factor(r) for r in range(16)]
        assert np.std(factors) > 0  # ranks genuinely differ

    def test_mean_duration_close_to_nominal(self):
        model = NoiseModel("moderate", num_ranks=1, seed=5)
        samples = np.array([model.perturb(0, 0.0, 1e-3) for _ in range(4000)])
        # Multiplicative noise is mean-one-ish; spikes shift the mean up a bit.
        assert 0.9e-3 * model.speed_factor(0) < samples.mean() < 1.4e-3

    def test_negative_compute_time_rejected(self):
        model = NoiseModel("none", num_ranks=1)
        with pytest.raises(ConfigurationError):
            model.perturb(0, 0.0, -1.0)
