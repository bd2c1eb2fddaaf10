"""MPIX_Harmonize analogue: start all ranks at an agreed global instant.

The paper's micro-benchmarks (Listing 1) synchronize processes *in time*
before applying an arrival pattern: ``MPIX_Harmonize()`` agrees on a common
future start time, each rank busy-waits until its (synchronized) clock
reaches it, then applies its pattern skew.  This module provides the same
operation over the simulated clock stack.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.errors import ConfigurationError
from repro.clocks.local import LocalClock
from repro.clocks.sync import LinearCorrection
from repro.collectives.base import binomial_tree
from repro.sim.mpi import TAG_CLOCK, ProcContext

_MSG_BYTES = 16
_TAG = TAG_CLOCK + 50


def harmonize(
    ctx: ProcContext,
    clock: LocalClock | None = None,
    correction: LinearCorrection | None = None,
    slack: float = 500e-6,
    tag: int = _TAG,
    *,
    resume: float | None = None,
    on_quiet: Callable[[float, list[float]], None] | None = None,
) -> Generator[tuple, None, tuple[float, bool]]:
    """Agree on a common start instant and wait for it.

    The ranks' current global-clock readings reduce (max) up a binomial
    tree; rank 0 proposes ``max + slack``; the target propagates back down;
    every rank then waits until its own corrected clock reads the target.
    Returns ``(target, ok)`` where ``ok`` is False if this rank only reached
    the target after it had passed (the MPIX_Harmonize failure flag — retry
    with more slack).

    With ``clock``/``correction`` omitted the rank uses the simulator's
    perfect global clock, which is the paper's ``#ifdef SIMULATOR`` branch.

    The fan-in ends where rank 0 computes its target, the first point that
    reads ``slack``.  Two keywords let a caller replay everything up to
    there once and resume from it later, bit for bit:

    * ``on_quiet(latest, entries)`` is called on rank 0 at that instant if
      the engine is quiet there (:meth:`~repro.sim.engine.Engine.quiet_point`:
      every other rank parked on its fan-out receive), with the fan-in
      maximum and each rank's fan-out entry time;
    * ``resume=latest`` enters at the fan-out: rank 0 proposes from
      ``latest`` and every other rank posts its fan-out receive at once.
      Entered at the captured entry times, with each clock's jitter state
      restored, the run continues as the captured one did.
    """
    if slack <= 0:
        raise ConfigurationError(f"slack must be positive, got {slack}")
    p = ctx.size
    parent, children = binomial_tree(ctx.rank, p, 0)

    def now_global() -> float:
        if clock is None:
            return ctx.time()
        corr = correction if correction is not None else LinearCorrection()
        return corr.apply(clock.read(ctx.time()))

    if resume is None:
        # Fan-in: max of every rank's current global-clock reading.
        latest = now_global()
        for child in children:
            req = yield from ctx.recv(child, tag)
            latest = max(latest, float(req.payload))
        if parent is not None:
            yield from ctx.send(parent, _MSG_BYTES, tag, payload=latest)
    else:
        latest = resume
    if parent is None:
        if on_quiet is not None:
            parked = {r: (binomial_tree(r, p, 0)[0], tag + 1)
                      for r in range(1, p)}
            entries = ctx.engine.quiet_point(ctx.rank, parked)
            if entries is not None:
                on_quiet(latest, entries)
        target = latest + slack
    else:
        req = yield from ctx.recv(parent, tag + 1)
        target = float(req.payload)
    for child in reversed(children):
        yield from ctx.send(child, _MSG_BYTES, tag + 1, payload=target)

    arrived = now_global()
    ok = arrived <= target
    if clock is None:
        yield ctx.wait_until(target)
    else:
        corr = correction if correction is not None else LinearCorrection()
        true_target = clock.true_from_local(corr.local_for_global(target))
        yield ctx.wait_until(true_target)
    return target, ok


__all__ = ["harmonize"]
