"""Tests for the dense-RF worlds and the occupancy sweep."""

import pytest

from repro.campaign.registry import get_experiment, run_unit_trial
from repro.errors import ConfigurationError
from repro.experiments.common import SETTLE_US
from repro.experiments.dense import (
    LAYOUTS,
    OCCUPANCY_LOAD_LEVELS,
    DenseTrial,
    build_dense_topology,
    run_dense_trial,
    run_dense_trial_world,
    summarize_occupancy,
    trial_units,
)
from tests.test_experiments import report_time_us


class TestWorldBuilders:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_all_populations_placed(self, layout):
        topo, pairs, wifi = build_dense_topology(layout, n_pairs=5, n_wifi=2)
        assert len(pairs) == 5 and len(wifi) == 2
        for name in ("peripheral", "central", "attacker"):
            topo.position_of(name)
        for m_name, s_name in pairs:
            topo.position_of(m_name)
            topo.position_of(s_name)
        for name in wifi:
            topo.position_of(name)

    def test_apartment_separates_rooms_with_walls(self):
        topo, pairs, _ = build_dense_topology("apartment", n_pairs=3, n_wifi=0)
        # The victim room and a background room are divided by >= 1 wall;
        # a background pair inside one room is not.
        m0, s0 = pairs[0]
        assert len(topo.walls_between("peripheral", m0)) >= 1
        assert topo.walls_between(m0, s0) == ()

    def test_stadium_is_free_space(self):
        topo, pairs, _ = build_dense_topology("stadium", n_pairs=4, n_wifi=1)
        m0, _ = pairs[0]
        assert topo.walls_between("peripheral", m0) == ()

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            build_dense_topology("submarine", 1, 1)

    def test_negative_population_rejected(self):
        with pytest.raises(ConfigurationError):
            build_dense_topology("apartment", -1, 0)


class TestDenseTrial:
    def test_quiet_world_trial_succeeds(self):
        result = run_dense_trial(DenseTrial(seed=301, connections=0,
                                            wifi_interferers=0))
        assert result.success
        assert result.occupancy == 0.0

    def test_terminate_ind_effect_is_the_disconnect(self):
        # A 4-byte PDU is LL_TERMINATE_IND: the bulb stays powered and its
        # visible effect is the dropped link, judged as in 3-device trials.
        result = run_dense_trial(DenseTrial(seed=5, connections=0,
                                            wifi_interferers=0, pdu_len=4))
        assert result.success and result.attempts == 1
        assert result.effect_observed
        assert not result.connection_survived

    def test_trial_ends_one_settle_after_the_report(self):
        result, sim = run_dense_trial_world(
            DenseTrial(seed=5, connections=2, wifi_interferers=1),
            trace_enabled=True)
        assert result.success
        assert sim.now == pytest.approx(report_time_us(sim) + SETTLE_US)

    def test_loaded_world_measures_occupancy(self):
        result = run_dense_trial(DenseTrial(seed=302, connections=3,
                                            wifi_interferers=1))
        assert result.occupancy is not None and result.occupancy > 0.0

    def test_trial_is_deterministic(self):
        trial = DenseTrial(seed=303, connections=2, wifi_interferers=1)
        a, b = run_dense_trial(trial), run_dense_trial(trial)
        assert (a.success, a.attempts, a.occupancy) == \
            (b.success, b.attempts, b.occupancy)

    def test_collect_metrics_ships_snapshot(self):
        result = run_dense_trial(DenseTrial(seed=304, connections=1,
                                            collect_metrics=True))
        assert result.metrics is not None
        assert result.metrics["gauges"]["dense.ambient_links"] == 1.0


class TestOccupancySweep:
    def test_units_cover_grid_with_derived_seeds(self):
        units = trial_units(base_seed=9, n_connections=2)
        assert len(units) == 2 * len(OCCUPANCY_LOAD_LEVELS)
        labels = [label for label, _ in units]
        assert set(labels) == set(OCCUPANCY_LOAD_LEVELS)
        seeds = [t.seed for _, t in units]
        assert len(set(seeds)) == len(seeds)

    def test_registry_dispatch(self):
        defn = get_experiment("occupancy")
        units = defn.units(base_seed=9, n_connections=1,
                           levels={"one": (1, 0)})
        result = run_unit_trial(units[0][1])
        assert result.occupancy is not None

    def test_summary_row_per_level(self):
        units = trial_units(base_seed=9, n_connections=1,
                            levels={"a": (0, 0), "b": (1, 0)})
        grouped = {}
        for label, trial in units:
            grouped.setdefault(label, []).append(run_dense_trial(trial))
        rows = summarize_occupancy(grouped)
        assert [row[0] for row in rows] == ["a", "b"]
        assert all(len(row) == 4 for row in rows)
