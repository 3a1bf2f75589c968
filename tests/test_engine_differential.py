"""Differential tests: the fast engine must be indistinguishable.

The analytic fast-forward engine (:mod:`repro.sim.fastforward`) promises
*byte-identical traces* and *bit-identical results* against the reference
event-by-event path.  These tests hold it to that across a smoke panel of
all six experiment modules, the tapped dense and defense worlds, and an
adversarial world that forces the engine to disengage mid-run and
re-engage after the disturbance.

``run_both_engines`` is the reusable harness: give it a callable that
builds and runs a world for a named engine, and it asserts the two traces
serialize identically (after canonicalizing process-global frame ids).
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

from repro.experiments import (
    ablations,
    common,
    distance,
    hop_interval,
    payload_size,
    wall,
)
from repro.experiments.common import (
    TRIAL_DEADLINE_US,
    InjectionTrial,
    run_trial_world,
)
from repro.experiments.defense import DefenseTrial, run_defense_trial_world
from repro.experiments.dense import DenseTrial, run_dense_trial_world
from repro.experiments.scenarios import (
    ScenarioTrial,
    resolve_scenario,
    run_scenario_trial,
)
from repro.sim import fastforward

#: Trace detail keys whose values are process-global frame ids.
FRAME_ID_KEYS = ("frame_id", "locked_to")


def canonical_trace(sim) -> list:
    """The trace as comparable tuples, frame ids remapped in first-seen
    order (the global frame-id counter differs between runs)."""
    remap: dict = {}
    out = []
    for rec in sim.trace:
        detail = dict(rec.detail)
        for key in FRAME_ID_KEYS:
            if key in detail:
                detail[key] = remap.setdefault(detail[key], len(remap))
        out.append((repr(rec.time_us), rec.source, rec.kind,
                    tuple((k, repr(v)) for k, v in detail.items())))
    return out


def run_both_engines(build_and_run):
    """Run ``build_and_run(engine)`` for both engines; assert byte-identical
    traces.  Returns the two simulators for further assertions.

    ``build_and_run`` must construct a *fresh* world (same seed) and return
    its :class:`~repro.sim.simulator.Simulator` with tracing enabled.
    """
    sim_ref = build_and_run(fastforward.ENGINE_REFERENCE)
    sim_fast = build_and_run(fastforward.ENGINE_FAST)
    ref, fast = canonical_trace(sim_ref), canonical_trace(sim_fast)
    assert len(ref) == len(fast), (
        f"trace length diverged: reference={len(ref)} fast={len(fast)}")
    for i, (a, b) in enumerate(zip(ref, fast)):
        assert a == b, f"trace diverged at record {i}:\n ref: {a}\nfast: {b}"
    return sim_ref, sim_fast


def _first_trial(units) -> InjectionTrial:
    return units[0][1]


def _assert_world_differential(run_world, trial,
                               continue_to_us=None) -> dict:
    """``run_world(trial, engine=..., trace_enabled=True)`` for both
    engines: identical non-empty traces and equal results, which it
    returns by engine name.

    With ``continue_to_us``, each returned world keeps running to that
    time before the traces are compared.  A trial ends a few seconds
    after its injection report; continuing it covers the engine over a
    long post-injection stretch as well.
    """
    results = {}

    def build_and_run(engine):
        result, sim = run_world(trial, engine=engine, trace_enabled=True)
        results[engine] = result
        if continue_to_us is not None:
            sim.run(until_us=continue_to_us)
        return sim

    sim_ref, _ = run_both_engines(build_and_run)
    assert len(sim_ref.trace) > 0
    fast = results["fast"]
    if fast.metrics is not None:
        fast = replace(fast, metrics=_world_metrics(fast.metrics))
    assert results["reference"] == fast
    return results


def _assert_trial_differential(trial: InjectionTrial) -> None:
    """Reference vs fast on one trial world, continued to the deadline.

    The fast engine must have fast-forwarded events before the attack
    starts, i.e. in the connection set-up the attacker spends following
    the link: engaging only in the settle after the report would leave
    the follower lane of the kernel untested.
    """
    before_attack: list = []
    run_attack = common.run_attack

    def counting_run_attack(*args, **kwargs):
        before_attack.append(fastforward.events_fast_forwarded())
        return run_attack(*args, **kwargs)

    fastforward.reset_fast_forward_count()
    with mock.patch.object(common, "run_attack", counting_run_attack):
        _assert_world_differential(run_trial_world, trial,
                                   continue_to_us=TRIAL_DEADLINE_US)
    # One reading per engine; the reference run leaves the counter at 0.
    assert before_attack[0] == 0
    assert before_attack[1] > 0, (
        "fast engine never engaged during set-up — the follower lane is "
        "untested")


class TestExperimentPanels:
    """One trial from each sweep module, reference vs fast."""

    def test_hop_interval(self):
        _assert_trial_differential(_first_trial(
            hop_interval.trial_units(n_connections=1)))

    def test_payload_size(self):
        # Every grid point, the LL_TERMINATE_IND one (pdu_len=4) included:
        # it tears the connection down, but its set-up is as quiet as any.
        for _, trial in payload_size.trial_units(n_connections=1):
            _assert_trial_differential(trial)

    def test_distance(self):
        _assert_trial_differential(_first_trial(
            distance.trial_units(n_connections=1)))

    def test_wall(self):
        _assert_trial_differential(_first_trial(
            wall.trial_units(n_connections=1)))

    def test_ablations(self):
        _assert_trial_differential(_first_trial(
            ablations.trial_units(n_connections=1)))

    @pytest.mark.parametrize("scenario", ["A", "B", "C", "D"])
    def test_scenarios(self, scenario, monkeypatch):
        trial = ScenarioTrial(seed=5, scenario=resolve_scenario(scenario),
                              device="lightbulb")
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                           fastforward.ENGINE_REFERENCE)
        ref = run_scenario_trial(trial)
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                           fastforward.ENGINE_FAST)
        fast = run_scenario_trial(trial)
        assert ref == fast


def _world_metrics(snapshot: dict) -> dict:
    """``snapshot`` without the fast engine's own ``ff.*`` counters (why
    it stood down), which describe the engine, not the world."""
    counters = {name: value for name, value in snapshot["counters"].items()
                if not name.startswith("ff.")}
    return dict(snapshot, counters=counters)


class TestTrialMetrics:
    """Metrics-enabled trials: the fast engine must reproduce every
    counter and histogram bucket, the follower's included."""

    @pytest.mark.parametrize("trial", [
        _first_trial(hop_interval.trial_units(n_connections=1)),
        distance.trial_units(n_connections=1)[-1][1],  # F (10 m)
    ], ids=["hop", "distance-F"])
    def test_metrics_snapshots_equal(self, trial):
        trial = replace(trial, collect_metrics=True)
        snapshots = {
            engine: run_trial_world(trial, engine=engine)[0].metrics
            for engine in (fastforward.ENGINE_REFERENCE,
                           fastforward.ENGINE_FAST)}
        reference = snapshots[fastforward.ENGINE_REFERENCE]
        fast = snapshots[fastforward.ENGINE_FAST]
        assert _world_metrics(fast) == reference
        assert any(name.startswith("ff.disengage.")
                   for name in fast["counters"])
        drift = reference["histograms"]["sniffer.anchor_drift_us"]
        assert drift["count"] > 0
        assert reference["counters"]["sniffer.events"] > 0


class TestTappedWorlds:
    """Dense and monitored worlds, reference vs fast.

    The occupancy meter is an airtime-only tap, so the engine runs dense
    worlds — every background pair, the Wi-Fi tracks and the victim link
    with its follower — and credits the meter with what it skips.  The
    detector bank reads more than airtime and keeps the engine off.  The
    traces must match record for record either way, and the occupancy bit
    for bit.
    """

    def test_idle_apartment_dense_trial(self):
        self.test_dense_trial(
            DenseTrial(seed=5, connections=0, wifi_interferers=0))

    @pytest.mark.parametrize("trial", [
        DenseTrial(seed=5, connections=4, wifi_interferers=1),
        DenseTrial(seed=7, connections=10, wifi_interferers=2,
                   collect_metrics=True),
        DenseTrial(seed=3, connections=10, wifi_interferers=2,
                   layout="stadium", collect_metrics=True),
    ], ids=["sparse", "busy", "busy-stadium"])
    def test_dense_trial(self, trial):
        fastforward.reset_fast_forward_count()
        results = _assert_world_differential(run_dense_trial_world, trial)
        assert results["fast"].occupancy.hex() \
            == results["reference"].occupancy.hex()
        assert fastforward.events_fast_forwarded() > 0, (
            "the fast engine never engaged in the dense world")
        if trial.collect_metrics:
            # Busy worlds hear foreign frames in open windows all the
            # time; the kernel must absorb some rather than cut on each.
            counters = results["fast"].metrics["counters"]
            assert counters.get("ff.contact.inert", 0) > 0

    @pytest.mark.parametrize("traffic", ["benign", "dense-ambient"])
    def test_defense_trial(self, traffic):
        _assert_world_differential(
            run_defense_trial_world, DefenseTrial(seed=5, traffic=traffic))


class TestAdversarialDisengage:
    """A foreign transmission mid-quiet-phase must not perturb anything."""

    @staticmethod
    def _build(engine, attacker_tx_at=None, counts=None):
        from repro.devices.lightbulb import Lightbulb
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.sim.fastforward import install_engine
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology
        from repro.sim.transceiver import Transceiver

        sim = Simulator(seed=11, trace_enabled=True)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        topo.place("attacker", -2.0, 0.0)
        medium = Medium(sim, topo)
        bulb = Lightbulb(sim, medium, "peripheral")
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:02"),
            interval=36, timeout=300)
        attacker_radio = Transceiver(sim, medium, "attacker")
        install_engine(sim, medium, [(central, bulb.ll)], engine=engine)
        bulb.power_on()
        central.connect(bulb.address)
        sim.run(until_us=2_000_000)
        assert central.is_connected and bulb.ll.is_connected
        if attacker_tx_at is not None:
            def rogue_tx():
                conn = central.conn
                attacker_radio.transmit(
                    conn.params.access_address, b"\x01\x00",
                    0xBADBAD, conn.current_channel or 0)
            sim.schedule_at(attacker_tx_at, rogue_tx, "attacker-rogue-tx")
        if counts is not None:
            # Pause past the disturbance to read the fast-forward counter.
            sim.run(until_us=12_000_000)
            counts.append(fastforward.events_fast_forwarded())
        sim.run(until_us=30_000_000)
        if counts is not None:
            counts.append(fastforward.events_fast_forwarded())
        return sim

    def test_quiet_world_fast_forwards(self):
        fastforward.reset_fast_forward_count()
        ref, fast = run_both_engines(self._build)
        assert fastforward.events_fast_forwarded() > 0

    def test_mid_window_attacker_tx_bails_out_cleanly(self):
        # The rogue frame adds a 4th live event, so the engine must stand
        # down, let the reference path absorb the disturbance (collisions,
        # retransmissions, missed events and all), then re-engage — with
        # traces still byte-identical throughout.
        counts = {}

        def build_and_run(engine):
            fastforward.reset_fast_forward_count()
            counts[engine] = []
            return self._build(engine, attacker_tx_at=10_000_000.0,
                               counts=counts[engine])

        _, fast = run_both_engines(build_and_run)
        assert any(rec.source == "attacker" and rec.kind == "tx"
                   for rec in fast.trace), "the rogue frame was never sent"
        at_pause, at_end = counts[fastforward.ENGINE_FAST]
        assert at_pause > 0
        assert at_end > at_pause, (
            "fast engine never re-engaged after the rogue frame")


class TestKernelFaults:
    """A committed cycle that breaks a post-draw invariant raises."""

    def test_fade_below_the_floor_raises(self, monkeypatch):
        from repro.errors import SimulationError
        from repro.sim.medium import _LinkShadow

        take = _LinkShadow.take

        def deep_fade(self, seq, count):
            draws = take(self, seq, count)
            draws[-1] = 500.0  # dB: far past the 8-sigma engagement margin
            return draws

        monkeypatch.setattr(_LinkShadow, "take", deep_fade)
        with pytest.raises(SimulationError,
                           match="master frame faded below the slave's"):
            TestAdversarialDisengage._build(fastforward.ENGINE_FAST)


class TestCsa2Connection:
    """The kernel reads CSA#2 channels in bulk off the memoised schedule."""

    @staticmethod
    def _build(engine):
        from repro.sim.fastforward import install_engine
        from tests.test_csa2_end_to_end import build_csa2_world

        sim, medium, bulb, phone, _attacker = build_csa2_world()
        install_engine(sim, medium, [(phone, bulb.ll)], engine=engine)
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=20_000_000)
        assert phone.is_connected and bulb.ll.is_connected
        return sim

    def test_traces_byte_identical(self):
        fastforward.reset_fast_forward_count()
        run_both_engines(self._build)
        assert fastforward.events_fast_forwarded() > 0


class TestIndexedVsBroadcast:
    """The indexed medium must be a pure optimisation: same traces, same
    results as the O(world) broadcast medium, under both engines."""

    @staticmethod
    def _build(engine, indexed):
        from repro.core.attacker import Attacker
        from repro.core.injection import InjectionConfig
        from repro.devices.lightbulb import Lightbulb
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress
        from repro.sim.fastforward import install_engine
        from repro.sim.interference import WifiInterferer
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=23, trace_enabled=True)
        topo = Topology()
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        topo.place("attacker", -2.0, 0.0)
        topo.place("wifi", 1.0, 3.0)
        medium = Medium(sim, topo, indexed=indexed)
        bulb = Lightbulb(sim, medium, "peripheral")
        central = MasterLinkLayer(
            sim, medium, "central",
            BdAddress.from_str("C0:FF:EE:00:00:02"),
            interval=36, timeout=300)
        attacker = Attacker(sim, medium, "attacker",
                            injection_config=InjectionConfig(max_attempts=100))
        # Co-located Wi-Fi bursts give collision resolution real work, so
        # the equivalence covers the interference path too.
        WifiInterferer(sim, medium, "wifi", duty_cycle=0.10).start()
        install_engine(sim, medium, [(central, bulb.ll)], engine=engine)
        attacker.sniff_new_connections()
        bulb.power_on()
        central.connect(bulb.address)
        sim.run(until_us=2_000_000)
        if attacker.synchronized:
            handle = bulb.gatt.find_characteristic(0xFF11).value_handle
            from repro.experiments.common import build_injection_payload

            payload, llid = build_injection_payload(14, handle)
            attacker.inject(payload, llid)
        sim.run(until_us=10_000_000)
        return sim

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_traces_byte_identical(self, engine):
        indexed = canonical_trace(self._build(engine, indexed=True))
        broadcast = canonical_trace(self._build(engine, indexed=False))
        assert len(indexed) == len(broadcast), (
            f"trace length diverged: indexed={len(indexed)} "
            f"broadcast={len(broadcast)}")
        for i, (a, b) in enumerate(zip(indexed, broadcast)):
            assert a == b, (
                f"trace diverged at record {i}:\n  indexed: {a}\nbroadcast: {b}")

    def test_trial_results_bit_identical(self, monkeypatch):
        # The stock experiment world, forced through each medium mode.
        from repro.sim.medium import Medium

        trial = InjectionTrial(seed=21)
        original_init = Medium.__init__
        outcomes = {}
        for mode in (True, False):
            def patched(self, sim, topology=None, *args, _mode=mode, **kwargs):
                kwargs.setdefault("indexed", _mode)
                original_init(self, sim, topology, *args, **kwargs)

            monkeypatch.setattr(Medium, "__init__", patched)
            result, sim = run_trial_world(trial, engine="reference",
                                          trace_enabled=True)
            outcomes[mode] = (result, canonical_trace(sim))
        assert outcomes[True] == outcomes[False]


class TestEngineSelection:
    def test_resolve_engine_explicit(self):
        assert fastforward.resolve_engine("reference") == "reference"
        assert fastforward.resolve_engine("fast") == "fast"

    def test_resolve_engine_env(self, monkeypatch):
        monkeypatch.setenv(fastforward.ENGINE_ENV_VAR, "reference")
        assert fastforward.resolve_engine() == "reference"
        monkeypatch.delenv(fastforward.ENGINE_ENV_VAR)
        assert fastforward.resolve_engine() == "fast"

    def test_resolve_engine_rejects_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fastforward.resolve_engine("warp")

    def test_install_engine_reference_is_noop(self):
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=1)
        assert fastforward.install_engine(
            sim, None, engine="reference") is None
        assert sim._fast_forward is None
