"""The fast-forward audit's versioned verdicts, the link and track sets,
and random worlds at the eligibility boundary.

A link enrols in the engine when its connection forms and leaves when it
ends; a track while it runs.  A link's and a follower's set-up verdict is
cached with the versions it was derived at; every event that can change
it bumps one of them.  The world below runs each such event on one link
and checks, after every event time, that no cached verdict differs from
a fresh derivation, so a bump left out shows as soon as its event has
fired.
The boundary worlds then check fast = reference where verdicts flip.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.attacker import Attacker
from repro.experiments.dense import ESTABLISH_STAGGER_US
from repro.ll.device import LinkLayerDevice
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.control import EncReq, EncRsp, PhyUpdateInd
from repro.ll.slave import SlaveLinkLayer
from repro.sim import fastforward
from repro.sim.interference import RogueAdvertiser, WifiInterferer
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology
from tests.test_engine_differential import fast_forwarded, run_both_engines
from tests.test_properties import (
    FORCED_OVERLAP_WORLD,
    _run_multi_link_world,
    _world_result,
)


def _link_world(ltk=None):
    """One link with a following attacker, on the fast engine."""
    sim = Simulator(seed=11, trace_enabled=False,
                    engine=fastforward.ENGINE_FAST)
    topo = Topology()
    topo.place("m", 0.0, 0.0)
    topo.place("s", 2.0, 0.0)
    topo.place("attacker", 1.0, 2.0)
    medium = Medium(sim, topo)
    engine = sim.fast_forward
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    slave = SlaveLinkLayer(sim, medium, "s", BdAddress.generate(
        sim.streams.get("addr-s")), ltk=ltk)
    master = MasterLinkLayer(sim, medium, "m", BdAddress.generate(
        sim.streams.get("addr-m")), interval=24, timeout=300)
    slave.start_advertising()
    sim.schedule_at(1_000.0, lambda: master.connect(slave.address), "connect")
    return sim, engine, master, slave, attacker


#: What :func:`_run_checked` records while no link is enrolled.
NO_LINK = "no-link"


def _assert_fresh(engine):
    """Every cached verdict equals a fresh derivation."""
    topology = engine.medium.topology.version
    for link in engine.links:
        cached = engine._link_verdict(link, topology)
        assert cached == engine._link_setup_reason(link)
        lane = link.follower
        if lane is None:
            continue
        cached = engine._follower_verdict(link, lane)
        fresh = "follower-not-passive" if not lane.following \
            or lane.paused or lane.on_event is not None else None
        assert cached == fresh


def _run_checked(sim, engine, until_us):
    """Run to ``until_us`` one event time at a time, checking the verdicts
    after each; returns the verdicts seen on the link (:data:`NO_LINK`
    while none is enrolled), in order, without repeats."""
    seen = []
    while True:
        next_us = sim._queue.peek_time()
        if next_us is None or next_us > until_us:
            break
        sim.run(until_us=next_us)
        _assert_fresh(engine)
        verdict = engine.links[0].verdict if engine.links else NO_LINK
        if not seen or seen[-1] != verdict:
            seen.append(verdict)
    return seen


def _connected(sim, engine):
    _run_checked(sim, engine, 400_000.0)
    assert engine.links[0].verdict is None


def test_connection_forming_and_terminating_move_the_verdict():
    """No link is enrolled before the connection forms; it enrols not yet
    established, becomes eligible, and has left once it is terminated."""
    sim, engine, master, slave, attacker = _link_world()
    assert engine.links == []
    seen = _run_checked(sim, engine, 400_000.0)
    assert seen == [NO_LINK, "link-not-connected", None]
    (link,) = engine.links
    assert (link.master, link.slave, link.follower) \
        == (master, slave, attacker.sniffer)
    master.terminate()
    seen = _run_checked(sim, engine, sim.now + 100_000.0)
    assert seen[-1] == NO_LINK
    assert engine.links == [] and engine._parts == {}


@pytest.mark.parametrize("procedure", [
    lambda master: master.request_connection_update(interval=30),
    lambda master: master.request_channel_map_update((1 << 37) - 1 - 1),
    lambda master: master.request_phy_update(0x02),
    # Armed on the connection directly, as a test world may.
    lambda master: master.conn.schedule_phy(PhyUpdateInd(
        instant=(master.conn.event_count + 8) & 0xFFFF)),
])
def test_armed_and_applied_procedures_move_the_verdict(procedure):
    sim, engine, master, _slave, _ = _link_world()
    _connected(sim, engine)
    procedure(master)
    seen = _run_checked(sim, engine, sim.now + 600_000.0)
    # Armed, then fallen due: the cache follows both (a PHY armed on one
    # end alone leaves the two ends out of step).
    assert "link-busy" in seen and seen[-1] != "link-busy"


def test_encryption_moves_the_verdict():
    sim, engine, master, _slave, _ = _link_world(ltk=bytes(16))
    _connected(sim, engine)
    master.start_encryption(bytes(16))
    seen = _run_checked(sim, engine, sim.now + 300_000.0)
    assert seen[-1] == "link-encrypted"


def test_a_new_connection_rederives_the_verdict():
    """A new connection between the same two devices enrols a new link,
    whose verdict is derived afresh, here with a Slave set to widen
    beyond a quarter of the interval."""
    sim, engine, master, slave, _ = _link_world()
    _connected(sim, engine)
    old = engine.links[0]
    master.terminate()
    _run_checked(sim, engine, sim.now + 100_000.0)
    assert engine.links == []
    slave.widening_scale = 1_000.0
    slave.start_advertising()
    master.connect(slave.address)
    _run_checked(sim, engine, sim.now + 400_000.0)
    (link,) = engine.links
    assert link is not old and link.master.conn.established
    assert engine._link_verdict(link, engine.medium.topology.version) \
        == "link-out-of-step"


def test_an_encryption_response_at_the_master_alone_moves_the_verdict():
    """An LL_ENC_RSP the Slave never sent (an injected one) turns on the
    Master's encryption with no Slave-side event before it."""
    sim, engine, master, _slave, _ = _link_world()
    _connected(sim, engine)
    master._ltk = bytes(16)
    master._enc_req = EncReq(rand=1, ediv=2, skd_m=3, iv_m=4)
    master._handle_control(EncRsp(skd_s=5, iv_s=6))
    link = engine.links[0]
    assert engine._link_verdict(link, engine.medium.topology.version) \
        == "link-encrypted"


def test_follower_hook_moves_the_follower_verdict():
    sim, engine, _master, _slave, attacker = _link_world()
    _connected(sim, engine)
    assert attacker.sniffer.following
    link = engine.links[0]
    attacker.sniffer.on_event = lambda event: None
    assert engine._follower_verdict(link, attacker.sniffer) \
        == "follower-not-passive"
    attacker.sniffer.on_event = None
    attacker.sniffer.paused = True
    assert engine._follower_verdict(link, attacker.sniffer) \
        == "follower-not-passive"
    attacker.sniffer.paused = False
    assert engine._follower_verdict(link, attacker.sniffer) is None
    attacker.sniffer.following = False
    assert engine._follower_verdict(link, attacker.sniffer) \
        == "follower-not-passive"


def test_stopped_track_leaves_the_engine(monkeypatch):
    """A Wi-Fi track stopped mid-run no longer keeps the engine off:
    the fast engine replaces events after the stop, fast = reference."""
    stop_us = 1_500_000.0
    start = WifiInterferer.start
    at_stop: list = []
    results = {}

    def start_and_stop(self):
        start(self)

        def stop():
            engine = self.sim.fast_forward
            at_stop.append(0 if engine is None
                           else engine.events_fast_forwarded)
            self.stop()
            if engine is not None:
                assert self not in engine.tracks

        self.sim.schedule_at(stop_us, stop, "stop-wifi")

    def build_and_run(engine):
        results[engine], sim = _run_multi_link_world(engine,
                                                     FORCED_OVERLAP_WORLD)
        return sim

    monkeypatch.setattr(WifiInterferer, "start", start_and_stop)
    _sim_ref, sim_fast = run_both_engines(build_and_run)
    assert results[fastforward.ENGINE_REFERENCE] \
        == _world_result(results[fastforward.ENGINE_FAST])
    _, fast_at_stop = at_stop
    assert fast_forwarded(sim_fast) > fast_at_stop


# ----------------------------------------------------------------------
# Random worlds at the eligibility boundary
# ----------------------------------------------------------------------

#: Worlds drawn across the audit's set-up limits rather than well inside
#: them: links from 2 m to 45 m long (the 8-sigma margin at 0 dBm runs
#: out near 35 m), every sleep-clock accuracy, intervals of 6 to 80 and
#: Slave windows widened up to 100-fold (at 7.5 ms and 50 + 50 ppm the
#: widening reaches a quarter of the interval near 57-fold), a rogue
#: advertiser switched on and off at
#: random times, the first link torn down (an LL_TERMINATE_IND, or its
#: Slave carried out of range until supervision drops it) and the Wi-Fi
#: track stopped, each at a random time or never.  A link is ``(interval,
#: length in m, Master SCA, Slave SCA, widening scale)``; times are in µs.
_SCA = st.sampled_from((20.0, 50.0, 150.0, 500.0))
BOUNDARY_WORLDS = st.fixed_dictionaries({
    "seed": st.integers(0, 1 << 16),
    "links": st.lists(st.tuples(st.sampled_from((6, 9, 24, 80)),
                                st.floats(2.0, 45.0), _SCA, _SCA,
                                st.sampled_from((1.0, 40.0, 100.0))),
                      min_size=1, max_size=3),
    "rogue": st.none() | st.tuples(st.floats(200_000.0, 1_500_000.0),
                                   st.floats(50_000.0, 500_000.0)),
    "drop": st.none() | st.tuples(st.sampled_from(("terminate", "walk")),
                                  st.floats(300_000.0, 1_500_000.0)),
    "stop_track_us": st.none() | st.floats(300_000.0, 1_800_000.0),
})

#: Two short links fast-forwarded from the start, the first walking out
#: of range and the track stopping while the other still runs.
WALK_AWAY_WORLD = {
    "seed": 7, "links": [(6, 2.0, 50.0, 150.0, 1.0),
                         (24, 3.0, 20.0, 500.0, 40.0)],
    "rogue": (900_000.0, 100_000.0), "drop": ("walk", 600_000.0),
    "stop_track_us": 1_200_000.0,
}

BOUNDARY_SECONDS = 2


def _run_boundary_world(engine, world):
    """Build and run one boundary world; its simulator and whether each
    link is still connected at the end."""
    sim = Simulator(seed=world["seed"], trace_enabled=True,
                    metrics_enabled=True, engine=engine)
    topo = Topology()
    medium = Medium(sim, topo)
    links = []
    for i, (interval, length_m, master_sca, slave_sca, widening) in \
            enumerate(world["links"]):
        topo.place(f"m{i}", 0.0, 5.0 * i)
        topo.place(f"s{i}", length_m, 5.0 * i)
        slave = SlaveLinkLayer(
            sim, medium, f"s{i}",
            BdAddress.generate(sim.streams.get(f"addr-s{i}")),
            adv_interval_ms=40.0 + 7.0 * i, sca_ppm=slave_sca,
            widening_scale=widening)
        master = MasterLinkLayer(
            sim, medium, f"m{i}",
            BdAddress.generate(sim.streams.get(f"addr-m{i}")),
            interval=interval, timeout=50, sca_ppm=master_sca)
        slave.start_advertising()
        sim.schedule_at(ESTABLISH_STAGGER_US * (i + 1),
                        lambda m=master, s=slave: m.connect(s.address),
                        "connect")
        links.append((master, slave))
    topo.place("wifi", 15.0, 10.0)
    wifi = WifiInterferer(sim, medium, "wifi",
                          channels=tuple(range(11, 21)), duty_cycle=0.10)
    wifi.start()
    # The world's run is split at each change and the change made between
    # runs: an event queued for it would keep the engine off until then.
    changes = []
    if world["stop_track_us"] is not None:
        changes.append((world["stop_track_us"], wifi.stop))
    if world["rogue"] is not None:
        on_us, for_us = world["rogue"]
        topo.place("rogue-adv", 5.0, 2.0)
        rogue = RogueAdvertiser(sim, medium)
        changes += [(on_us, rogue.start), (on_us + for_us, rogue.stop)]
    if world["drop"] is not None:
        how, at_us = world["drop"]
        master, _slave = links[0]
        if how == "terminate":
            def drop():
                if master.is_connected:
                    master.terminate()
        else:
            def drop():
                topo.place("s0", 500.0, 0.0)
        changes.append((at_us, drop))
    for at_us, change in sorted(changes, key=lambda change: change[0]):
        sim.run(until_us=at_us)
        change()
    sim.run(until_us=BOUNDARY_SECONDS * 1_000_000)
    return sim, [m.is_connected and s.is_connected for m, s in links]


@settings(max_examples=5, deadline=None)
@given(world=BOUNDARY_WORLDS)
@example(world=WALK_AWAY_WORLD)
def test_engines_agree_at_the_eligibility_boundary(world):
    results = {}

    def build_and_run(engine):
        sim, results[engine] = _run_boundary_world(engine, world)
        return sim

    run_both_engines(build_and_run)
    assert results[fastforward.ENGINE_REFERENCE] \
        == results[fastforward.ENGINE_FAST]


def test_the_walk_away_world_crosses_the_boundary(monkeypatch):
    """The hand-picked boundary world engages the fast engine, and its
    first link dies while the second lives on.  Once both ends have
    dropped the dead link, the engine replaces events on the second link
    again (fast = reference on this world is the boundary test's
    example)."""
    disconnect = LinkLayerDevice.disconnect
    at_death: list = []

    def recording_disconnect(self, reason):
        if self.name in ("m0", "s0") and self.conn is not None:
            at_death.append(fast_forwarded(self.sim))
        disconnect(self, reason)

    monkeypatch.setattr(LinkLayerDevice, "disconnect", recording_disconnect)
    sim, connected = _run_boundary_world(fastforward.ENGINE_FAST,
                                         WALK_AWAY_WORLD)
    assert connected == [False, True]
    assert len(at_death) == 2 and at_death[-1] > 0
    assert fast_forwarded(sim) > at_death[-1]
