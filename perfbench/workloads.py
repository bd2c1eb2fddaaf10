"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup()`` and then runs
whole passes of its timed body.  A pass returns its host seconds, the
operations it completed with their latencies, and the output digests that
are checked against ``reference.json``.

* ``paper_fast`` — ``repro-mpi all --fast``: every figure driver and table,
  serial, no result cache, exact engine.  Operation: one executor cell.
* ``tune_store`` — a 16-rank tuning campaign (alltoall/allreduce/reduce at
  three sizes) into a fresh store and result cache with lint, then the
  identical campaign again warm.  Operation: one executor cell.
* ``serve_mix`` — a closed loop of selection requests from one client
  through ``InProcessClient`` (NDJSON encode/decode on the path) over a
  store built in set-up.  Operation: one request.
* ``scale_hybrid`` — three hydra alltoall cases on the hybrid flow engine.
  Operation: one case.  The reference is the exact engine's output.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

_now = time.perf_counter


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def result_digest(result) -> str:
    """Bitwise digest of a BenchResult's per-repetition arrival/exit arrays."""
    h = hashlib.sha256()
    for timing in result.timings:
        h.update(timing.arrivals.tobytes())
        h.update(timing.exits.tobytes())
    return h.hexdigest()[:16]


@dataclass
class PassResult:
    seconds: float
    ops: int
    #: Per-operation host seconds.
    latencies: list[float]
    #: (unit name, output digest, operations the unit covers)
    units: list[tuple[str, str, int]] = field(default_factory=list)


class Workload:
    name = ""
    #: Distinct inputs the seed maps onto (each has a committed reference).
    variants = 1

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        self.seed = seed
        self.variant = seed % self.variants
        self.workdir = workdir
        #: This workload's section of reference.json.
        self.reference = reference
        self.tracer = None
        #: The run's host-speed sampler (``calibrate.Calibrator``), set by
        #: the worker; long passes sample inside, see ``_calibrate``.
        self.calibrator = None
        #: Host seconds of the current pass spent in calibration.
        self.paused = 0.0
        #: Summed obs counters of the sessions the traced passes ran in.
        self.obs_counters: dict[str, dict] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def reference_key(self) -> str:
        return f"v{self.variant}"

    def check(self, units) -> tuple[int, int, list[str]]:
        """(operations checked, operations failed, failed unit names)."""
        expected = dict(self.reference.get(self.reference_key(), {}))
        attempted = failed = 0
        bad = []
        for name, value, ops in units:
            attempted += ops
            if expected.pop(name, None) != value:
                failed += ops
                bad.append(name)
        for name in expected:  # a reference unit the pass never produced
            attempted += 1
            failed += 1
            bad.append(name)
        return attempted, failed, bad

    def _calibrate(self) -> None:
        """Inside a pass: take a host-speed sample if one is due, and
        leave its time out of the pass (``paused``)."""
        if self.calibrator is not None:
            self.paused += self.calibrator.maybe_sample()

    def _absorb(self, octx) -> None:
        if self.tracer is None:
            return
        for key, snap in octx.metrics.snapshot().items():
            if snap.get("kind") == "counter":
                slot = self.obs_counters.setdefault(key, {"value": 0})
                slot["value"] += snap["value"]

    def _timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn``, as a span named ``name`` when tracing."""
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, name)
        return fn(*args, **kwargs)


class _CellProbe:
    """Times every executor cell and, when ``digests`` is set, digests its
    arrival/exit arrays (inside the timed pass, so only where they are
    checked).

    Installed over ``repro.bench.executor.run_cell``, the function the
    executor calls per simulated cell, in traced and untraced runs alike.
    """

    def __init__(self, digests: bool) -> None:
        import repro.bench.executor as executor

        self.latencies: list[float] = []
        self.digests: list[str] = []
        original = executor.run_cell

        def run_cell(spec):
            start = _now()
            result = original(spec)
            self.latencies.append(_now() - start)
            if digests:
                self.digests.append(result_digest(result))
            return result

        executor.run_cell = run_cell

    def take_latencies(self) -> list[float]:
        latencies = self.latencies
        self.latencies = []
        self.digests.clear()
        return latencies


# --------------------------------------------------------------------- #


class PaperFast(Workload):
    name = "paper_fast"
    variants = 2

    def setup(self) -> None:
        import repro.cli as cli
        # Every driver module the ``all`` command imports lazily.
        from repro.experiments import (  # noqa: F401
            fig1_ft_trace, fig2_notation, fig3_patterns, fig4_simulation,
            fig5_runtimes, fig6_robustness, fig7_ft_vs_micro,
            fig8_normalized, fig9_prediction,
        )
        from repro.obs.context import current

        self.cli = cli
        self.probe = _CellProbe(digests=True)
        self.units: list[tuple[str, str, int]] = []
        self.session = None
        original = cli._run_one

        def run_one(command, args):
            self._calibrate()
            self.session = current()
            report = original(command, args)
            cells = list(self.probe.digests)
            self.probe.digests.clear()
            label = (f"{command}.{args.collective}"
                     if command in ("fig4", "fig5", "fig6") else command)
            self.units.append((label, digest(report, *cells), max(len(cells), 1)))
            return report

        cli._run_one = run_one

    def run_pass(self) -> PassResult:
        self.units = []
        self.paused = 0.0
        out = io.StringIO()
        start = _now()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(["all", "--fast", "--seed", str(self.variant)])
        seconds = _now() - start - self.paused
        if code != 0:
            raise RuntimeError(f"repro-mpi all exited with {code}")
        latencies = self.probe.take_latencies()
        if self.session is not None:
            self._absorb(self.session)
        units = self.units + [("stdout", digest(out.getvalue()), 1)]
        return PassResult(seconds, len(latencies), latencies, units)


class TuneStore(Workload):
    name = "tune_store"
    variants = 4
    COLLECTIVES = ("alltoall", "allreduce", "reduce")
    SIZES = (8, 1024, 65536)

    def setup(self) -> None:
        from repro import obs
        from repro.bench.campaign import TuningCampaign
        from repro.experiments.common import ExperimentConfig
        from repro.errors import ConfigurationError
        import repro.lint  # noqa: F401 - imported lazily by lint_after
        from repro.selection.ompi_rules import write_ompi_rules_file
        import repro.store  # noqa: F401

        self.ConfigurationError = ConfigurationError
        self.write_rules = write_ompi_rules_file
        self.obs = obs
        self.config = ExperimentConfig(nodes=4, cores_per_node=4,
                                       seed=self.variant)
        self.TuningCampaign = TuningCampaign
        # The campaign's outputs are digested whole (``_outputs``).
        self.probe = _CellProbe(digests=False)
        self.passes = 0

    def _campaign(self, root: Path):
        return self.TuningCampaign(
            bench=self.config.make_bench(nrep=2),
            collectives=self.COLLECTIVES, msg_sizes=self.SIZES,
            seed=self.variant, cache_dir=root / "cache",
            store=root / "store.db", lint_after=True)

    def _run(self, root: Path, span: str, out: str):
        campaign = self._campaign(root)
        with self.obs.session(meta={"command": "tune"},
                              record_spans=False) as octx:
            try:
                result = self._timed(span, campaign.run)
            finally:
                campaign.close()
        self._absorb(octx)
        return result, self._outputs(result, root / out)

    def _outputs(self, result, outdir: Path) -> str:
        """Digest of the winners, the selection table, the raw sweeps and
        the Open MPI rules file.

        ``TuningCampaign.save`` cannot be used: reduce/knomial has no Open
        MPI algorithm id, so the rules export refuses any table where it
        wins.  The refusal message stands in for the rules bytes then.
        """
        outdir.mkdir(parents=True)
        result.table.save_json(outdir / "selection_table.json")
        try:
            self.write_rules(outdir / "rules.conf", result.table)
            rules = (outdir / "rules.conf").read_bytes()
        except self.ConfigurationError as exc:
            rules = f"refused: {exc}"
        sweeps = json.dumps({f"{c}:{int(s)}": sweep.to_dict()
                             for (c, s), sweep in result.sweeps.items()},
                            sort_keys=True)
        winners = sorted((c, s, w) for (c, s), w in result.winners.items())
        return digest(winners, (outdir / "selection_table.json").read_bytes(),
                      rules, sweeps)

    def run_pass(self) -> PassResult:
        self.passes += 1
        root = self.workdir / f"tune{self.passes}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        start = _now()
        cold, cold_digest = self._run(root, "bench.campaign.run", "cold")
        warm, warm_digest = self._run(root, "bench.campaign.rerun", "warm")
        seconds = _now() - start
        shutil.rmtree(root, ignore_errors=True)
        latencies = self.probe.take_latencies()
        return PassResult(
            seconds, cold.stats.cells + warm.stats.cells, latencies,
            [("cold", cold_digest, cold.stats.cells),
             ("warm", warm_digest, warm.stats.cells)])


class ServeMix(Workload):
    name = "serve_mix"
    #: Requests per phase.  A pass runs the four ``repro.bench.loadgen``
    #: workloads in equal parts, in loadgen's order (see ``build_stream``).
    PHASE = 8000
    #: A store write plus ``op:reload`` every this many reload_churn
    #: requests: loadgen's 50 ms reload interval at the ~25 us a hot
    #: request costs on this path.
    RELOAD_EVERY = 2000
    #: Query axes beyond loadgen's defaults: 20 communicator sizes, 20
    #: message sizes and one more pattern make an 8000-key space, larger
    #: than the service's default 4096-entry reply cache, so a cold phase
    #: (about 5000 distinct keys) evicts.
    COMM_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
                  384, 512, 768, 1024, 1536)
    MSG_BYTES = tuple(float(2 ** k) for k in range(20))
    PATTERNS = (None, "no_delay", "ascending", "descending", "random")

    def setup(self) -> None:
        from repro.bench.loadgen import LoadGenConfig, build_mix
        from repro.service import SelectionService
        from repro.service.client import InProcessClient
        from repro.store import TuningStore

        path = self.workdir / "serve.db"
        self.writer = TuningStore(path)
        self.rules = build_store(self.writer)
        self.service = SelectionService(path, watch_store=False)
        self.client = InProcessClient(self.service)
        self.config = LoadGenConfig(
            queries=self.PHASE, seed=self.seed, comm_sizes=self.COMM_SIZES,
            msg_bytes=self.MSG_BYTES, patterns=self.PATTERNS)
        self.stream = build_stream(self.config, build_mix, self.RELOAD_EVERY)
        #: Position of every key in the query space (loadgen's order),
        #: which is its slot in the reference digest string.
        self.key_index = {query_key(q): i
                          for i, q in enumerate(query_space(self.config))}

    def close(self) -> None:
        self.service.close()
        self.writer.close()

    def run_pass(self) -> PassResult:
        request = self.client.request
        latencies: list[float] = []
        replies: list[tuple[str, object, object]] = []
        rules = self.rules
        start = _now()
        for kind, payload in self.stream:
            t0 = _now()
            if kind == "query" or kind == "batch":
                reply = request(payload)
            elif kind == "write":
                # An external tuner re-writes one rule (same algorithm, so
                # replies stay comparable), then asks for a reload.
                self.writer.add_rule(*rules[payload % len(rules)])
                reply = request({"op": "reload"})
            else:
                reply = request({"op": "reload"})
            latencies.append(_now() - t0)
            replies.append((kind, payload, reply))
        seconds = _now() - start
        return PassResult(seconds, len(latencies), latencies,
                          self._match(replies))

    def _match(self, replies) -> list[tuple[str, str, int]]:
        """One unit per request: ``ok`` when every reply item matches the
        committed reference digest of its key, else ``error``."""
        expected = self.reference.get("replies", "")
        index = self.key_index
        seen: dict[str, str] = {}
        units = []
        for kind, payload, reply in replies:
            if kind in ("reload", "write"):
                ok = reply.get("ok") is True and reply.get("op") == "reload"
                units.append((kind, "ok" if ok else "error", 1))
                continue
            ok = reply.get("ok") is True
            items = ([(payload, reply)] if kind == "query" else
                     list(zip(payload["queries"], reply.get("replies", ()))))
            if kind == "batch" and len(items) != len(payload["queries"]):
                ok = False
            for query, item in items:
                text = json.dumps(item, sort_keys=True)
                d = seen.get(text)
                if d is None:
                    d = seen[text] = reply_digest(text)
                i = index[query_key(query)]
                ok = ok and expected[8 * i:8 * i + 8] == d
            units.append((kind, "ok" if ok else "error", 1))
        return units

    def check(self, units) -> tuple[int, int, list[str]]:
        failed = [name for name, value, _ops in units if value != "ok"]
        return len(units), len(failed), sorted(set(failed))

    def reference_replies(self) -> str:
        """The reply digest of every key of the query space, in order."""
        return "".join(
            reply_digest(json.dumps(self.client.request(q), sort_keys=True))
            for q in query_space(self.config))


def query_key(q: dict) -> str:
    return f"{q['collective']}|{q['comm_size']}|{q['msg_bytes']}|{q['pattern']}"


def reply_digest(text: str) -> str:
    return digest(text)[:8]


def query_space(config) -> list[dict]:
    """Every key of ``config``'s axes, in ``build_mix``'s order."""
    return [{"collective": c, "comm_size": n, "msg_bytes": m, "pattern": p}
            for c in config.collectives
            for n in config.comm_sizes
            for m in config.msg_bytes
            for p in config.patterns]


def build_store(store) -> list[tuple]:
    """Fill ``store`` with a fixed rule set; returns the rules written.

    Rules cover alltoall/allreduce/reduce (bcast queries fall back to the
    fixed decision) over a comm-size and message-size grid wider than the
    query space, plus per-pattern rules for two arrival patterns.  The
    algorithm of each rule is a fixed hash of its coordinates, so the
    store, and every reply, is the same in every run.
    """
    from repro.collectives.base import list_algorithms
    from repro.store import PATTERN_BEST

    rules = []
    for coll in ("alltoall", "allreduce", "reduce"):
        algorithms = list_algorithms(coll)
        for comm_size in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            for k in range(12):
                msg = float(4 ** k)
                for strategy, pattern in (("robust_average", ""),
                                          (PATTERN_BEST, "ascending"),
                                          (PATTERN_BEST, "random")):
                    pick = zlib.crc32(
                        f"{coll}:{comm_size}:{msg}:{pattern}".encode())
                    rules.append((strategy, coll, comm_size, msg,
                                  algorithms[pick % len(algorithms)]))
                    store.add_rule(*rules[-1], pattern=pattern)
    return [r for r in rules if r[0] != PATTERN_BEST]


def build_stream(config, build_mix, reload_every: int) -> list[tuple[str, object]]:
    """The request stream of one pass: ``repro.bench.loadgen``'s four
    workloads, as ``run_suite`` runs them, from one closed-loop client.

    Each phase starts with an ``op:reload``, which empties the reply cache
    as loadgen's fresh service per workload does, so every pass sees the
    same hits and misses.  The phases: ``hot_cache`` (single queries on 8
    hot keys), ``cold_mix`` (single queries over the whole key space),
    ``batch`` (the cold mix as ``op:batch`` requests of
    ``config.batch_size`` queries) and ``reload_churn`` (the hot mix with a
    store write plus ``op:reload`` every ``reload_every`` queries).  Both
    key mixes are ``build_mix``'s, from ``config.seed``.
    """
    hot = build_mix(config, distinct=8)
    cold = build_mix(config)
    size = config.batch_size
    stream: list[tuple[str, object]] = [("reload", None)]
    stream += [("query", q) for q in hot]
    stream.append(("reload", None))
    stream += [("query", q) for q in cold]
    stream.append(("reload", None))
    stream += [("batch", {"op": "batch", "queries": cold[i:i + size]})
               for i in range(0, len(cold), size)]
    stream.append(("reload", None))
    for i, q in enumerate(hot):
        if i and i % reload_every == 0:
            stream.append(("write", i // reload_every))
        stream.append(("query", q))
    return stream


class ScaleHybrid(Workload):
    name = "scale_hybrid"
    variants = 4
    MSG_BYTES = 1024.0
    #: (label, nodes, cores per node, algorithm, arrival pattern)
    CASES = (
        ("pairwise_1024x1", 1024, 1, "pairwise", None),
        ("linear_128x4_nodelay", 128, 4, "basic_linear", None),
        ("linear_128x4_random", 128, 4, "basic_linear", "random"),
    )
    #: Maximum process skew of the random pattern: about 1.5x the
    #: case's no-delay runtime (the paper's skew rule).
    MAX_SKEW = 2e-3
    #: Payload items per contribution.  The modelled message stays
    #: MSG_BYTES, so timings do not depend on it; the harness default of
    #: 64 items makes the 1024-rank inputs about 1 GB, which measures
    #: memory traffic rather than the engines.
    COUNT = 1

    engine_mode = "hybrid"

    def setup(self) -> None:
        from repro import obs
        from repro.bench.micro import MicroBenchmark
        from repro.patterns.generator import generate_pattern
        from repro.sim.platform import get_machine

        spec = get_machine("hydra")
        self.obs = obs
        self.cases = []
        for label, nodes, cores, algorithm, shape in self.CASES:
            bench = MicroBenchmark.from_machine(
                spec, nodes=nodes, cores_per_node=cores, nrep=1,
                count=self.COUNT, engine_mode=self.engine_mode)
            pattern = (generate_pattern(shape, nodes * cores, self.MAX_SKEW,
                                        seed=self.variant)
                       if shape else None)
            self.cases.append((label, bench, algorithm, pattern))

    def run_pass(self) -> PassResult:
        latencies, units = [], []
        self.paused = 0.0
        start = _now()
        with self.obs.session(meta={"workload": self.name},
                              record_spans=False) as octx:
            for label, bench, algorithm, pattern in self.cases:
                self._calibrate()
                t0 = _now()
                result = bench.run("alltoall", algorithm, self.MSG_BYTES,
                                   pattern)
                latencies.append(_now() - t0)
                units.append((label, result_digest(result), 1))
        seconds = _now() - start - self.paused
        self._absorb(octx)
        return PassResult(seconds, len(latencies), latencies, units)


WORKLOADS = {cls.name: cls for cls in (PaperFast, TuneStore, ServeMix,
                                       ScaleHybrid)}
