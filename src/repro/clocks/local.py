"""Drifting local clock model.

Each rank's clock is modeled as ``local(t) = offset + (1 + drift) * t``
with optional zero-mean Gaussian read jitter (granularity / interpolation
error of the hardware counter).  Typical commodity parameters: offsets up
to seconds (boot times differ), drift in the 1e-6..1e-5 range (ppm), read
jitter of a few nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.seeding import spawn_rng


@dataclass
class LocalClock:
    """One rank's clock: ``local(t) = offset + (1 + drift) * t`` (+ jitter)."""

    offset: float
    drift: float
    read_jitter: float = 0.0
    _rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.drift <= -1.0:
            raise ConfigurationError("drift must be > -1")
        if self.read_jitter < 0:
            raise ConfigurationError("read_jitter must be non-negative")

    def read(self, true_time: float) -> float:
        """The clock's value at true time ``true_time``."""
        value = self.offset + (1.0 + self.drift) * true_time
        if self.read_jitter > 0 and self._rng is not None:
            value += float(self._rng.normal(0.0, self.read_jitter))
        return value

    def true_from_local(self, local_time: float) -> float:
        """Invert the (jitter-free) clock model."""
        return (local_time - self.offset) / (1.0 + self.drift)

    @property
    def jitter_state(self) -> dict | None:
        """The read-jitter RNG's state (``None`` without an RNG).

        Every jittered :meth:`read` draws one normal, so a run resumed
        mid-way restores this to read the same values from there on.
        """
        return None if self._rng is None else self._rng.bit_generator.state

    @jitter_state.setter
    def jitter_state(self, state: dict | None) -> None:
        if (state is None) != (self._rng is None):
            raise ConfigurationError("jitter state does not match the clock's RNG")
        if state is not None:
            self._rng.bit_generator.state = state


class ClockSet:
    """A family of per-rank drifting clocks for one simulation job."""

    def __init__(
        self,
        num_ranks: int,
        seed: int = 0,
        max_offset: float = 0.1,
        drift_ppm: float = 10.0,
        read_jitter: float = 5e-9,
    ) -> None:
        if num_ranks <= 0:
            raise ConfigurationError("num_ranks must be positive")
        if max_offset < 0 or drift_ppm < 0:
            raise ConfigurationError("max_offset and drift_ppm must be non-negative")
        self.num_ranks = num_ranks
        self.seed = seed
        rng = spawn_rng(seed, "clocks")
        offsets = rng.uniform(-max_offset, max_offset, size=num_ranks)
        drifts = rng.uniform(-drift_ppm, drift_ppm, size=num_ranks) * 1e-6
        self.clocks = [
            LocalClock(
                offset=float(offsets[r]),
                drift=float(drifts[r]),
                read_jitter=read_jitter,
                _rng=spawn_rng(seed, "clock-jitter", r),
            )
            for r in range(num_ranks)
        ]

    def __getitem__(self, rank: int) -> LocalClock:
        return self.clocks[rank]

    def read(self, rank: int, true_time: float) -> float:
        return self.clocks[rank].read(true_time)


__all__ = ["LocalClock", "ClockSet"]
