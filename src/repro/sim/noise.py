"""System-noise models for simulated compute phases.

Real clusters delay processes unevenly: core speed variation, OS jitter,
daemons, and network background traffic all make some ranks systematically
or sporadically slower.  This is precisely what produces the non-trivial
process arrival patterns the paper studies (its Fig. 1).  The model combines
three components applied to each compute phase of ``w`` seconds:

* a **persistent per-rank speed factor** (some ranks always run a bit slow;
  sampled once per rank, log-normally distributed),
* **multiplicative jitter** per phase (log-normal, mean 1),
* **OS noise spikes**: with a small probability per phase, a fixed-length
  detour is added (e.g. a daemon stole the core), following the classic
  fixed-work quantum noise model.

All draws come from per-rank :class:`numpy.random.Generator` streams derived
from one seed, so simulations are reproducible and adding ranks does not
perturb existing streams.  A rank's stream is built on its first draw: most
micro-benchmark cells never compute, so they never pay for one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.seeding import spawn_rng


@dataclass(frozen=True)
class NoiseProfile:
    """Parameter set for :class:`NoiseModel`.

    ``speed_sigma`` is the std-dev of the log of the persistent per-rank
    factor; ``jitter_sigma`` the per-phase log-normal sigma;
    ``spike_probability``/``spike_duration`` describe OS-noise detours.
    """

    name: str
    speed_sigma: float = 0.0
    jitter_sigma: float = 0.0
    spike_probability: float = 0.0
    spike_duration: float = 0.0

    def validate(self) -> None:
        if self.speed_sigma < 0 or self.jitter_sigma < 0:
            raise ConfigurationError("noise sigmas must be non-negative")
        if not (0.0 <= self.spike_probability <= 1.0):
            raise ConfigurationError("spike probability must be in [0, 1]")
        if self.spike_duration < 0:
            raise ConfigurationError("spike duration must be non-negative")


#: Named profiles used by the machine presets.
NOISE_PROFILES: dict[str, NoiseProfile] = {
    "none": NoiseProfile("none"),
    "quiet": NoiseProfile(
        "quiet", speed_sigma=0.01, jitter_sigma=0.01, spike_probability=0.001, spike_duration=20e-6
    ),
    "moderate": NoiseProfile(
        "moderate",
        speed_sigma=0.03,
        jitter_sigma=0.03,
        spike_probability=0.01,
        spike_duration=100e-6,
    ),
    "noisy": NoiseProfile(
        "noisy",
        speed_sigma=0.08,
        jitter_sigma=0.06,
        spike_probability=0.03,
        spike_duration=250e-6,
    ),
}


def get_noise_profile(name: str) -> NoiseProfile:
    try:
        return NOISE_PROFILES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown noise profile {name!r}; available: {sorted(NOISE_PROFILES)}"
        ) from None


class NoiseModel:
    """Stateful noise generator attached to a simulation job."""

    def __init__(self, profile: NoiseProfile | str, num_ranks: int, seed: int = 0) -> None:
        if isinstance(profile, str):
            profile = get_noise_profile(profile)
        profile.validate()
        if num_ranks <= 0:
            raise ConfigurationError("num_ranks must be positive")
        self.profile = profile
        self.num_ranks = num_ranks
        self.seed = seed
        # Per-rank streams, each built on the rank's first perturb.
        self._rngs: list[np.random.Generator | None] = [None] * num_ranks
        if profile.speed_sigma > 0:
            factor_rng = spawn_rng(seed, "noise-speed")
            self._speed = np.exp(
                factor_rng.normal(0.0, profile.speed_sigma, size=num_ranks)
            )
        else:
            self._speed = np.ones(num_ranks)

    @property
    def fresh(self) -> bool:
        """True until some rank first draws from its stream."""
        return all(rng is None for rng in self._rngs)

    def streams(self) -> list:
        """A copy of every rank's stream (``None`` where never drawn)."""
        return copy.deepcopy(self._rngs)

    def set_streams(self, streams: list) -> None:
        """Continue from :meth:`streams` of a model with the same profile,
        rank count and seed, as if this model had drawn what it drew."""
        self._rngs = copy.deepcopy(streams)

    def speed_factor(self, rank: int) -> float:
        """Persistent slowdown factor of a rank (1.0 = nominal speed)."""
        return float(self._speed[rank])

    def perturb(self, rank: int, now: float, seconds: float) -> float:
        """Return the actual duration of a nominal ``seconds`` compute phase."""
        if seconds < 0:
            raise ConfigurationError(f"negative compute time {seconds}")
        profile = self.profile
        duration = seconds * self._speed[rank]
        rng = self._rngs[rank]
        if rng is None:
            rng = self._rngs[rank] = spawn_rng(self.seed, "noise", rank)
        if profile.jitter_sigma > 0:
            duration *= float(np.exp(rng.normal(0.0, profile.jitter_sigma)))
        if profile.spike_probability > 0 and rng.random() < profile.spike_probability:
            duration += profile.spike_duration
        return duration


__all__ = ["NoiseProfile", "NoiseModel", "NOISE_PROFILES", "get_noise_profile"]
