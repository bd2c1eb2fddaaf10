"""Tests for the tuning-campaign orchestrator."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.bench import MicroBenchmark, TuningCampaign
from repro.collectives.base import get_algorithm
from repro.selection import NoDelaySelector, SelectionTable
from repro.sim.platform import get_machine


@pytest.fixture(scope="module")
def bench():
    return MicroBenchmark.from_machine(
        get_machine("hydra"), nodes=4, cores_per_node=4, nrep=1
    )


@pytest.fixture(scope="module")
def small_campaign_result(bench):
    campaign = TuningCampaign(
        bench=bench,
        collectives=("alltoall",),
        msg_sizes=(64, "32KiB"),
        shapes=("first_delayed", "random"),
    )
    return campaign, campaign.run()


class TestTuningCampaign:
    def test_winners_cover_the_grid(self, small_campaign_result):
        campaign, result = small_campaign_result
        assert set(result.winners) == {("alltoall", 64.0), ("alltoall", 32768.0)}
        for winner in result.winners.values():
            assert winner in ("basic_linear", "pairwise", "bruck", "linear_sync")

    def test_table_lookup_matches_winners(self, small_campaign_result):
        campaign, result = small_campaign_result
        for (coll, size), winner in result.winners.items():
            assert result.table.lookup(coll, 16, size) == winner

    def test_progress_callback_invoked(self, bench):
        seen = []
        campaign = TuningCampaign(
            bench=bench, collectives=("reduce",), msg_sizes=(8,),
            shapes=("last_delayed",),
        )
        campaign.run(progress=lambda c, s: seen.append((c, s)))
        assert seen == [("reduce", 8)]

    def test_save_writes_three_artifacts(self, small_campaign_result, tmp_path):
        campaign, result = small_campaign_result
        paths = campaign.save(result, tmp_path / "out")
        assert paths["table"].exists()
        assert paths["rules"].exists()
        sweeps = json.loads(paths["sweeps"].read_text())
        assert "alltoall:64" in sweeps and "alltoall:32768" in sweeps
        table = SelectionTable.load_json(paths["table"])
        assert table.lookup("alltoall", 16, 64) == result.winners[("alltoall", 64.0)]

    def test_save_exports_an_ompi_algorithm_when_the_winner_has_no_id(
            self, bench, tmp_path):
        # knomial wins this cell but has no coll_tuned id.
        campaign = TuningCampaign(bench=bench, collectives=("reduce",),
                                  msg_sizes=(8,))
        result = campaign.run()
        assert result.winners == {("reduce", 8.0): "knomial"}
        paths = campaign.save(result, tmp_path / "out")
        assert all(path.exists() for path in paths.values())
        assert "reduce:8" in json.loads(paths["sweeps"].read_text())
        table = SelectionTable.load_json(paths["table"])
        assert table.lookup("reduce", 16, 8) == "knomial"
        assert result.table.lookup("reduce", 16, 8) == "knomial"
        rules = paths["rules"].read_text()
        assert "knomial" not in rules
        rule_lines = [line.split("#") for line in rules.splitlines()
                      if len(line.split("#")[0].split()) == 4]
        assert rule_lines
        for fields, algorithm in rule_lines:
            info = get_algorithm("reduce", algorithm.strip())
            assert info.ompi_id is not None
            assert int(fields.split()[1]) == info.ompi_id

    def test_strategy_is_pluggable(self, bench):
        campaign = TuningCampaign(
            bench=bench, collectives=("alltoall",), msg_sizes=(64,),
            shapes=("last_delayed",), strategy=NoDelaySelector(),
        )
        result = campaign.run()
        assert result.table.strategy_name == "no_delay"

    def test_string_sizes_parsed(self, bench):
        campaign = TuningCampaign(
            bench=bench, collectives=("alltoall",), msg_sizes=("1KiB",),
            shapes=("random",),
        )
        result = campaign.run()
        assert ("alltoall", 1024.0) in result.winners

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(collectives=()),
            dict(collectives=("teleport",)),
            dict(msg_sizes=()),
            dict(msg_sizes=("many",)),
        ],
    )
    def test_validation(self, bench, kwargs):
        base = dict(bench=bench, collectives=("alltoall",), msg_sizes=(64,))
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            TuningCampaign(**base)
