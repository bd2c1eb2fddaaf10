"""Fabric link telemetry: recording, attribution, parity, and rendering.

Covers the ``record_links=True`` path end to end: a hand-computed
shared-NIC case where the attributed contention wait equals the known
serialization delay, exact-vs-hybrid per-link aggregate parity, pinned
digests of every record on each claim path, export round trips, the
labeled fallback-reason counters, ring-overflow surfacing, and the
ASCII/SVG renderers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.collectives import make_input, run_collective
from repro.collectives.base import CollArgs
from repro.obs.analysis import TraceAnalysis
from repro.obs.expose import render_prometheus
from repro.obs.linkstats import RX, TX, LinkStatsRecorder, link_name, port_name
from repro.reporting.weather import render_weather_map
from repro.sim.flow import FlowConfig
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform

HETERO = Platform(name="hetero", nodes=16, cores_per_node=4)
ARGS = CollArgs(count=8, msg_bytes=2048.0)


def _alltoall_prog(algorithm):
    def prog(ctx):
        data = np.arange(ctx.size * ARGS.count,
                         dtype=np.float64).reshape(ctx.size, -1)
        out = yield from run_collective(
            ctx, "alltoall", algorithm, ARGS, data + ctx.rank
        )
        return out

    return prog


def _linked_run(platform, prog, flow=None, **session_kw):
    with obs.session(record_links=True, **session_kw) as octx:
        run_processes(platform, prog, flow=flow)
    return octx


# --------------------------------------------------------------------- #
# Hand-computed contention: two ranks share one node NIC
# --------------------------------------------------------------------- #


class TestHandComputedSharedNIC:
    """2 nodes x 2 cores: ranks 0 and 1 each send one inter-node message
    at t=0.  Both claims queue on node 0's shared injection port, so the
    second message's recorded wait must equal the first message's
    transmission time — the serialization delay, exactly."""

    platform = Platform(name="links", nodes=2, cores_per_node=2)

    @staticmethod
    def _prog(ctx):
        if ctx.rank < 2:
            yield from ctx.send(ctx.rank + 2, nbytes=4096)
        else:
            yield from ctx.recv(ctx.rank - 2, nbytes=4096)

    def test_second_claim_waits_one_serialization(self):
        octx = _linked_run(self.platform, self._prog)
        tx = sorted((r for r in octx.links
                     if r[0] == -1 and r[2] == TX),  # node 0 injection port
                    key=lambda r: r[3])
        assert len(tx) == 2
        first, second = tx
        assert first[8] == 0.0                  # wait: port was idle
        assert second[8] == first[5]            # wait == first's busy time
        assert second[3] == first[4]            # starts when first ends
        assert first[9] is None and second[9] is None   # raw p2p traffic

    def test_extraction_port_serializes_too(self):
        octx = _linked_run(self.platform, self._prog)
        rx = sorted((r for r in octx.links
                     if r[0] == -2 and r[2] == RX),  # node 1 extraction port
                    key=lambda r: r[3])
        assert len(rx) == 2
        assert rx[1][3] >= rx[0][4]             # FIFO: no overlap

    def test_attribution_charges_the_wait(self):
        octx = _linked_run(self.platform, self._prog)
        ana = TraceAnalysis.from_context(octx)
        attr = {(r["port"], r["cls"], r["direction"]): r
                for r in ana.link_attribution()}
        tx = sorted((r for r in octx.links if r[0] == -1 and r[2] == TX),
                    key=lambda r: r[3])
        key = (-1, tx[0][1], TX)
        assert attr[key]["activity"] == "p2p"
        assert attr[key]["wait"] == tx[0][5]    # the serialization delay
        assert ana.link_hotspots(top=1)[0]["link"] == link_name(*key)


# --------------------------------------------------------------------- #
# Exact vs hybrid: same case, same per-link picture
# --------------------------------------------------------------------- #


class TestExactHybridLinkParity:
    def _usage(self, flow):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"), flow=flow)
        if flow is not None:
            # Guard: the hybrid run actually took the flow path.
            assert len(octx.links) < 1000
        return TraceAnalysis.from_context(octx)

    def test_per_link_bytes_and_messages_identical(self):
        exact = self._usage(None)
        hybrid = self._usage(FlowConfig(declared_spread=0.0,
                                        payloads=False))
        ue = {(u["port"], u["cls"], u["direction"]): u
              for u in exact.link_usage()}
        uh = {(u["port"], u["cls"], u["direction"]): u
              for u in hybrid.link_usage()}
        assert set(ue) == set(uh) and len(ue) > 0
        for key in ue:
            assert ue[key]["bytes"] == uh[key]["bytes"]          # exact
            assert ue[key]["messages"] == uh[key]["messages"]    # exact

    def test_top_hotspot_agrees(self):
        exact = self._usage(None)
        hybrid = self._usage(FlowConfig(declared_spread=0.0,
                                        payloads=False))
        he = exact.link_hotspots(top=1)[0]
        hh = hybrid.link_hotspots(top=1)[0]
        assert (he["port"], he["cls"], he["direction"]) == \
            (hh["port"], hh["cls"], hh["direction"])


# --------------------------------------------------------------------- #
# Record pins: every link tuple, bit for bit
# --------------------------------------------------------------------- #


GROUPED = Platform(name="grouped", nodes=4, cores_per_node=4, nodes_per_group=2)


def _links_digest(octx) -> tuple[int, str]:
    """(record count, digest of every record tuple's repr) — repr keeps
    each float's exact value and each field's type."""
    records = list(octx.links)
    return len(records), hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _claim_paths_prog(ctx):
    """Eager, rendezvous and self sends to an intra-node, an inter-node and
    a cross-group peer, then a pairwise alltoall.  Rank-dependent entry
    times put some messages on the expected path (receive already posted)
    and some on the unexpected one; odd ranks send before they receive."""
    r = ctx.rank
    yield ctx.wait_until((r % 3) * 3e-6)
    for nbytes in (1024, 65536):
        reqs = []
        for sending in ((True, False) if r % 2 else (False, True)):
            for peer in (r ^ 1, r ^ 4, r ^ 8, r):
                reqs.append(ctx.isend(peer, nbytes) if sending
                            else ctx.irecv(peer, nbytes=nbytes))
        yield ctx.waitall(reqs)
    data = np.arange(ctx.size * 4, dtype=np.float64).reshape(ctx.size, -1)
    yield from run_collective(ctx, "alltoall", "pairwise",
                              CollArgs(count=4, msg_bytes=1024.0), data)


#: Network variant -> (params, record count, digest).  Captured before the
#: engine's ports moved into one index space with one claim path; any
#: change here is a cost-model or telemetry change, not a refactor.
EXACT_LINK_PINS = {
    "default": (NetworkParams(), 672, "f3f9e00d2bd5cf5c"),
    "private_nic": (NetworkParams(shared_node_nic=False),
                    672, "ae8563ccde4a4233"),
    "no_rx_serialization": (NetworkParams(rx_serialization=False),
                            336, "77a23844882d8852"),
}

#: Hybrid case -> (collective, algorithm, nodes, cores, args, record count,
#: digest) of the flow engine's per-batch aggregates.
HYBRID_LINK_PINS = {
    "alltoall_basic_linear_16x4": (
        "alltoall", "basic_linear", 16, 4,
        CollArgs(count=8, msg_bytes=2048.0), 160, "d64f854c0dfe6012"),
    "alltoall_pairwise_64x1": (
        "alltoall", "pairwise", 64, 1,
        CollArgs(count=4, msg_bytes=1024.0), 128, "6f590cd41c416511"),
    "allreduce_ring_8x8": (
        "allreduce", "ring", 8, 8,
        CollArgs(count=128, msg_bytes=524288.0), 128, "3d91d884c4b1aacc"),
}


class TestLinkRecordPins:
    """Every record of every claim path, pinned: eager and rendezvous
    claims, private and shared node ports, with and without extraction
    serialization, all three link classes, and the flow aggregates."""

    @pytest.mark.parametrize("name", sorted(EXACT_LINK_PINS))
    def test_exact_engine_records(self, name):
        params, count, digest = EXACT_LINK_PINS[name]
        with obs.session(record_links=True) as octx:
            run_processes(GROUPED, _claim_paths_prog, params=params)
        assert octx.links.dropped == 0
        assert {r[1] for r in octx.links} == {1, 2, 3}
        assert _links_digest(octx) == (count, digest)

    @pytest.mark.parametrize("name", sorted(HYBRID_LINK_PINS))
    def test_hybrid_aggregates(self, name):
        collective, algorithm, nodes, cores, args, count, digest = \
            HYBRID_LINK_PINS[name]
        plat = Platform(name=name, nodes=nodes, cores_per_node=cores)

        def prog(ctx):
            data = make_input(collective, ctx.rank, ctx.size, args.count)
            yield from run_collective(ctx, collective, algorithm, args, data)

        flow = FlowConfig(declared_spread=0.0, payloads=False)
        with obs.session(record_links=True) as octx:
            run_processes(plat, prog, flow=flow)
            batches = octx.metrics.snapshot()[
                f'flow.batches{{algorithm="{algorithm}"}}']["value"]
        assert batches == 1
        assert _links_digest(octx) == (count, digest)


# --------------------------------------------------------------------- #
# Export round trips
# --------------------------------------------------------------------- #


class TestLinkExportRoundTrip:
    def test_jsonl_and_perfetto_round_trip(self, tmp_path):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        source = TraceAnalysis.from_context(octx)
        loaded_jsonl = TraceAnalysis.from_file(
            obs.export_jsonl(tmp_path / "t.jsonl", octx))
        loaded_perfetto = TraceAnalysis.from_file(
            obs.export_perfetto(tmp_path / "t.json", octx))
        for loaded in (loaded_jsonl, loaded_perfetto):
            assert loaded.link_usage() == source.link_usage()
            assert loaded.link_attribution() == source.link_attribution()
            assert loaded.dropped_links == 0

    def test_metrics_payload_counts_links(self):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        payload = obs.metrics_payload(octx)
        assert payload["links"]["recorded"] == len(octx.links)
        assert payload["links"]["dropped"] == 0

    def test_analysis_payload_links_section(self):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        payload = TraceAnalysis.from_context(octx).analysis_payload()
        assert payload["links"]["records"] == len(octx.links)
        assert payload["links"]["hotspots"][0]["wait"] >= \
            payload["links"]["hotspots"][-1]["wait"]


# --------------------------------------------------------------------- #
# Labeled fallback-reason counters
# --------------------------------------------------------------------- #


class TestFallbackReasonLabels:
    def _labeled(self, algorithm, flow):
        with obs.session() as octx:
            run_processes(HETERO, _alltoall_prog(algorithm), flow=flow)
        return octx.metrics.snapshot()

    def test_shared_contention_reason(self):
        snap = self._labeled(
            "pairwise", FlowConfig(declared_spread=0.0))
        key = obs.metric_key("flow.fallback_calls",
                             {"reason": "shared_contention"})
        assert snap[key]["value"] == 1
        mkey = obs.metric_key("flow.fallback_messages",
                              {"reason": "shared_contention"})
        assert snap[mkey]["value"] == 64 * 63

    def test_spread_reason(self):
        # Stepped plans on shared node ports need aligned entries.
        snap = self._labeled(
            "pairwise",
            FlowConfig(declared_spread=100e-6))
        key = obs.metric_key("flow.fallback_calls", {"reason": "spread"})
        assert snap[key]["value"] == 1

    def test_no_plan_reason(self):
        # bruck has no flow descriptor: previously uncounted, now labeled.
        snap = self._labeled(
            "bruck", FlowConfig(declared_spread=0.0))
        key = obs.metric_key("flow.fallback_calls", {"reason": "no_plan"})
        assert snap[key]["value"] == 1
        mkey = obs.metric_key("flow.fallback_messages", {"reason": "no_plan"})
        assert snap[mkey]["value"] == 0


# --------------------------------------------------------------------- #
# Ring overflow surfacing
# --------------------------------------------------------------------- #


class TestLinkRingOverflow:
    def test_overflow_reaches_warning_and_report(self):
        from repro.obs.report import render_report

        with obs.session(record_links=True, link_capacity=8) as octx:
            run_processes(HETERO, _alltoall_prog("basic_linear"))
        assert octx.links.dropped > 0
        assert len(octx.links) == 8
        warning = obs.dropped_span_warning(octx)
        assert warning is not None and "link record(s) dropped" in warning
        html = render_report(TraceAnalysis.from_context(octx))
        assert "class='warn'" in html and "link record(s)" in html

    def test_no_overflow_no_warning(self):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        assert obs.dropped_span_warning(octx) is None


# --------------------------------------------------------------------- #
# Rendering and exposition
# --------------------------------------------------------------------- #


class TestLinkRendering:
    def test_weather_map_shades_hot_links(self):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        ana = TraceAnalysis.from_context(octx)
        out = render_weather_map(ana.link_timeline(bins=32),
                                 ana.link_usage(), max_rows=10)
        lines = out.splitlines()
        assert "time →" in lines[0]
        hotspot = ana.link_hotspots(top=1)[0]["link"]
        assert lines[1].startswith(hotspot)      # hottest-wait-first order
        assert "cooler links not shown" in lines[-1]

    def test_report_fabric_section(self):
        from repro.obs.report import render_report

        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        html = render_report(TraceAnalysis.from_context(octx))
        assert "<h2>Fabric links</h2>" in html
        assert "Contention attribution" in html

    def test_gauges_reach_prometheus(self):
        octx = _linked_run(HETERO, _alltoall_prog("basic_linear"))
        published = octx.links.publish_gauges(octx.metrics)
        assert published == len({(r[0], r[1], r[2]) for r in octx.links})
        text = render_prometheus(octx.metrics)
        assert 'link_busy_seconds{' in text
        assert 'port="node0"' in text

    def test_recorder_port_names(self):
        assert port_name(3) == "rank3"
        assert port_name(-1) == "node0"
        rec = LinkStatsRecorder(capacity=2)
        rec.record(0, 1, TX, 0.0, 1.0, 8.0, 0.0, "a/b")
        rec.record_batch(-1, 2, RX, 0.0, 4.0, 2.0, 64.0, 4, 1.0, None)
        rec.record(1, 1, TX, 1.0, 2.0, 8.0, 0.0, "a/b")
        assert rec.dropped == 1 and len(rec) == 2
        dicts = rec.to_dicts()
        assert dicts[0]["messages"] == 4 and dicts[0]["busy"] == 2.0
        assert dicts[1]["port"] == 1
