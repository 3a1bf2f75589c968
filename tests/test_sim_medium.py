"""Integration tests for the radio medium: delivery, locking, collisions."""

import numpy as np
import pytest

from repro.phy.path_loss import PathLossModel
from repro.sim.medium import Medium, _LinkShadow
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology
from repro.sim.transceiver import Transceiver


def build_world(seed=1, positions=None, **medium_kwargs):
    sim = Simulator(seed=seed)
    topo = Topology()
    for name, (x, y) in (positions or {
        "tx": (0.0, 0.0), "rx": (2.0, 0.0), "other": (1.0, 1.7),
    }).items():
        topo.place(name, x, y)
    medium = Medium(sim, topo, **medium_kwargs)
    radios = {name: Transceiver(sim, medium, name) for name in topo.positions}
    return sim, medium, radios


class TestDelivery:
    def test_listening_receiver_gets_frame(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append((f, rssi))
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"abc", 0, 7))
        sim.run()
        assert len(got) == 1
        frame, rssi = got[0]
        assert frame.pdu == b"abc" and not frame.corrupted
        assert rssi < 0  # some path loss happened

    def test_delivery_at_frame_end(self):
        sim, medium, radios = build_world()
        seen_at = []
        radios["rx"].on_frame = lambda f, rssi: seen_at.append(sim.now)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, bytes(14), 0, 7))
        sim.run()
        assert seen_at[0] == pytest.approx(10.0 + 176.0)

    def test_wrong_channel_not_delivered(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(8)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"x", 0, 7))
        sim.run()
        assert got == []

    def test_not_listening_not_delivered(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"x", 0, 7))
        sim.run()
        assert got == []

    def test_late_tuner_misses_frame(self):
        # A receiver that tunes in mid-frame cannot sync on the preamble.
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, bytes(20), 0, 7))
        sim.schedule_at(50.0, lambda: radios["rx"].listen(7))
        sim.run()
        assert got == []

    def test_out_of_range_receiver_misses(self):
        sim, medium, radios = build_world(
            positions={"tx": (0.0, 0.0), "rx": (4000.0, 0.0)},
            path_loss=PathLossModel(shadowing_sigma_db=0.0),
        )
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"x", 0, 7))
        sim.run()
        assert got == []

    def test_sender_does_not_hear_itself(self):
        sim, medium, radios = build_world()
        got = []
        radios["tx"].on_frame = lambda f, rssi: got.append(f)
        radios["tx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"x", 0, 7))
        sim.run()
        assert got == []


class TestLocking:
    def test_receiver_locks_first_frame(self):
        """The first-frame lock is the mechanism InjectaBLE's race exploits."""
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0,
                        lambda: radios["tx"].transmit(0x11111111, bytes(20), 0, 7))
        sim.schedule_at(60.0,
                        lambda: radios["other"].transmit(0x22222222, bytes(20), 0, 7))
        sim.run()
        # Only the first frame is delivered; the second was interference.
        assert len(got) == 1
        assert got[0].access_address == 0x11111111

    def test_equal_power_collision_often_corrupts(self):
        corrupted = 0
        for seed in range(30):
            sim, medium, radios = build_world(seed=seed)
            got = []
            radios["rx"].on_frame = lambda f, rssi: got.append(f)
            radios["rx"].listen(7)
            sim.schedule_at(10.0, lambda r=radios: r["tx"].transmit(
                0x11111111, bytes(20), 0, 7))
            sim.schedule_at(60.0, lambda r=radios: r["other"].transmit(
                0x22222222, bytes(20), 0, 7))
            sim.run()
            if got and got[0].corrupted:
                corrupted += 1
        assert 5 < corrupted < 30  # probabilistic capture, not all-or-nothing

    def test_receiver_free_after_frame_ends(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0,
                        lambda: radios["tx"].transmit(0x11111111, b"a", 0, 7))
        sim.schedule_at(500.0,
                        lambda: radios["other"].transmit(0x22222222, b"b", 0, 7))
        sim.run()
        assert [f.access_address for f in got] == [0x11111111, 0x22222222]

    def test_abandoned_lock_not_delivered(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0,
                        lambda: radios["tx"].transmit(0x11111111, bytes(30), 0, 7))
        sim.schedule_at(50.0, radios["rx"].stop_listening)
        sim.run()
        assert got == []

    def test_lock_end_query(self):
        sim, medium, radios = build_world()
        radios["rx"].listen(7)
        observed = []
        sim.schedule_at(10.0,
                        lambda: radios["tx"].transmit(0x11111111, bytes(30), 0, 7))
        sim.schedule_at(50.0,
                        lambda: observed.append(medium.lock_end_of(radios["rx"])))
        sim.run()
        assert observed[0] == pytest.approx(10.0 + (1 + 4 + 30 + 3) * 8.0)


class TestHalfDuplex:
    def test_transmitting_receiver_cannot_lock(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        # rx transmits its own long frame, overlapping tx's frame.
        sim.schedule_at(5.0,
                        lambda: radios["rx"].transmit(0x33333333, bytes(40), 0, 7))
        sim.schedule_at(10.0,
                        lambda: radios["tx"].transmit(0x11111111, b"x", 0, 7))
        sim.run()
        assert got == []


class TestPathCache:
    """The medium caches distance/walls per pair; mutations must invalidate."""

    def test_moving_a_device_invalidates_cached_paths(self):
        sim, medium, radios = build_world(
            path_loss=PathLossModel(shadowing_sigma_db=0.0))
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        # Move the receiver out of radio range between the two frames.
        sim.schedule_at(500.0, lambda: medium.topology.place("rx", 4000.0, 0.0))
        sim.schedule_at(600.0, lambda: radios["tx"].transmit(1 << 20, b"b", 0, 7))
        sim.run()
        assert [f.pdu for f in got] == [b"a"]

    def test_adding_a_wall_invalidates_cached_paths(self):
        sim, medium, radios = build_world(
            path_loss=PathLossModel(shadowing_sigma_db=0.0))
        rssi_seen = []
        radios["rx"].on_frame = lambda f, rssi: rssi_seen.append(rssi)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.schedule_at(500.0, lambda: medium.topology.add_wall(
            1.0, -10.0, 1.0, 10.0, attenuation_db=30.0))
        sim.schedule_at(600.0, lambda: radios["tx"].transmit(1 << 20, b"b", 0, 7))
        sim.run()
        assert len(rssi_seen) == 2
        assert rssi_seen[1] == pytest.approx(rssi_seen[0] - 30.0)


class TestInterestSets:
    """The indexed medium tracks listeners per channel via note_listen."""

    def test_retune_away_and_back_still_delivered(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        radios["rx"].listen(12)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.run()
        assert [f.pdu for f in got] == [b"a"]

    def test_stop_listening_removes_interest(self):
        sim, medium, radios = build_world()
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        radios["rx"].stop_listening()
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.run()
        assert got == []

    def test_broadcast_mode_still_delivers(self):
        sim, medium, radios = build_world(indexed=False)
        got = []
        radios["rx"].on_frame = lambda f, rssi: got.append(f)
        radios["rx"].listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.run()
        assert [f.pdu for f in got] == [b"a"]


def _crowded_world(**medium_kwargs):
    """30 co-channel listeners within a few metres of the transmitter, and
    one 4 km away that no fade can reach."""
    positions = {"tx": (0.0, 0.0), "far": (4000.0, 0.0)}
    for i in range(30):
        positions[f"n{i:02d}"] = (1.0 + 0.05 * i, 0.5)
    return build_world(positions=positions,
                       path_loss=PathLossModel(shadowing_sigma_db=0.0),
                       **medium_kwargs)


class TestGridIndex:
    """The indexed medium's range pruning on a crowded channel: the
    out-of-range listener is pruned, a device moved into range hears the
    next frame, and delivery matches the broadcast medium."""

    def test_out_of_range_pruned_in_crowded_world(self):
        sim, medium, radios = _crowded_world()
        got = []
        radios["far"].on_frame = lambda f, rssi: got.append(f)
        for name, radio in radios.items():
            if name != "tx":
                radio.listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.run()
        assert got == []

    def test_moved_device_not_stuck_in_stale_cell(self):
        # The per-pair path cache is rebuilt when the topology version
        # moves, so a device that walked into range receives again.
        sim, medium, radios = _crowded_world()
        got = []
        radios["far"].on_frame = lambda f, rssi: got.append(f)
        for name, radio in radios.items():
            if name != "tx":
                radio.listen(7)
        sim.schedule_at(10.0, lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
        sim.schedule_at(500.0, lambda: medium.topology.place("far", 2.0, 1.0))
        sim.schedule_at(600.0, lambda: radios["tx"].transmit(1 << 20, b"b", 0, 7))
        sim.run()
        assert [f.pdu for f in got] == [b"b"]

    def test_crowded_delivery_matches_broadcast(self):
        def run(indexed):
            sim, medium, radios = _crowded_world(indexed=indexed)
            got = []
            for name, radio in radios.items():
                if name != "tx":
                    radio.listen(7)
                    radio.on_frame = \
                        lambda f, rssi, n=name: got.append((n, f.pdu, rssi))
            sim.schedule_at(10.0,
                            lambda: radios["tx"].transmit(1 << 20, b"a", 0, 7))
            sim.run()
            return got

        assert run(indexed=True) == run(indexed=False)

    @pytest.mark.parametrize("n_pairs", [8, 32])
    def test_paired_world_delivery_matches_broadcast(self, n_pairs):
        def run(indexed):
            sim, sent, got = paired_world(n_pairs, indexed=indexed)
            sim.run(until_us=PAIRED_WORLD_US)
            return sent, got

        sent, got = run(indexed=True)
        assert sent and got
        assert (sent, got) == run(indexed=False)


#: Simulated stretch of a :func:`paired_world`; one frame per 2 ms per pair.
PAIRED_WORLD_US = 200_000.0
_PAIR_FRAME_PERIOD_US = 2_000.0


def paired_world(n_pairs, indexed=True):
    """``n_pairs`` transmitter/receiver pairs on a 4 m x 8 m grid.

    Pair ``i`` uses data channel ``i % 37``, and its transmitter sends a
    12-byte PDU every 2 ms from a start staggered by pair.  There is no
    link layer: the world loads only the medium (interest sets, locks,
    power sampling), and every receiver in range of a pair's channel
    hears its frames.  Returns ``(sim, sent, deliveries)``; run ``sim``
    to :data:`PAIRED_WORLD_US`.  ``sent`` lists every transmission as
    ``(pair, time)`` and ``deliveries`` every frame received as
    ``(pair, pdu, rssi, corrupted)``.
    """
    sim = Simulator(seed=42, trace_enabled=False)
    topo = Topology()
    for i in range(n_pairs):
        x, y = 4.0 * (i % 10), 8.0 * (i // 10)
        topo.place(f"tx{i:03d}", x, y)
        topo.place(f"rx{i:03d}", x + 2.0, y)
    medium = Medium(sim, topo, indexed=indexed)
    sent: list = []
    deliveries: list = []

    def fire(n, radio, channel):
        radio.transmit(0x50000000 + n, bytes(12), 0, channel)
        sent.append((n, sim.now))
        at = sim.now + _PAIR_FRAME_PERIOD_US
        if at < PAIRED_WORLD_US:
            sim.schedule_at(at, lambda: fire(n, radio, channel))

    for i in range(n_pairs):
        tx = Transceiver(sim, medium, f"tx{i:03d}")
        rx = Transceiver(sim, medium, f"rx{i:03d}")
        channel = i % 37
        rx.listen(channel)
        rx.on_frame = (lambda frame, rssi, n=i:
                       deliveries.append((n, frame.pdu, rssi,
                                          frame.corrupted)))
        sim.schedule_at(float(7 * i % 1000),
                        lambda n=i, tx=tx, ch=channel: fire(n, tx, ch))
    return sim, sent, deliveries


class TestLinkShadow:
    """Per-link counter-indexed shadowing draws are pure in (link, seq)."""

    def test_out_of_order_requests_match_in_order(self):
        in_order = _LinkShadow(np.random.default_rng(42), sigma=2.0)
        expected = {seq: in_order.value(seq) for seq in range(70)}
        shuffled = _LinkShadow(np.random.default_rng(42), sigma=2.0)
        order = [seq for pair in zip(range(69, 34, -1), range(35))
                 for seq in pair]
        for seq in order:
            assert shuffled.value(seq) == expected[seq]

    def test_sparse_requests_skip_unclaimed_draws(self):
        dense = _LinkShadow(np.random.default_rng(7), sigma=1.5)
        expected = {seq: dense.value(seq) for seq in range(200)}
        sparse = _LinkShadow(np.random.default_rng(7), sigma=1.5)
        for seq in (0, 63, 64, 199, 100):
            assert sparse.value(seq) == expected[seq]

    @pytest.mark.parametrize("first, count", [
        (3, 1), (3, 70), (5, 27), (40, 500), (100, 3)])
    def test_bulk_take_equals_scalar_values(self, first, count):
        scalar = _LinkShadow(np.random.default_rng(3), sigma=2.5)
        bulk = _LinkShadow(np.random.default_rng(3), sigma=2.5)
        # Both links already hold produced-but-unclaimed draws past seq 2.
        for shadow in (scalar, bulk):
            shadow.value(2)
        expected = [scalar.value(seq) for seq in range(first, first + count)]
        assert bulk.take(first, count).tolist() == expected
        assert bulk._produced == scalar._produced
        assert bulk._pending == scalar._pending
        assert bulk._rng.bit_generator.state == \
            scalar._rng.bit_generator.state

    def test_scalar_requests_after_bulk_take_return_same_draws(self):
        reference = _LinkShadow(np.random.default_rng(9), sigma=2.0)
        expected = {seq: reference.value(seq) for seq in range(900)}
        shadow = _LinkShadow(np.random.default_rng(9), sigma=2.0)
        assert shadow.value(10) == expected[10]
        shadow.take(20, 600)
        # Out of order: skipped indexes below the bulk read, then past it.
        for seq in (899, 3, 700, 15, 620, 11, 650):
            assert shadow.value(seq) == expected[seq]

    def test_pruning_keeps_the_recent_horizon(self):
        # A receiver that hears one frame in seven leaves unclaimed draws
        # behind, so pruning runs.  It only drops what lies _PENDING_MAX
        # behind the watermark: after a bulk read, every unclaimed draw
        # within the recent-frame horizon of the newest frame stays
        # claimable.
        horizon = 450  # most frames one link sends in RECENT_HORIZON_US
        limit = _LinkShadow._PENDING_MAX
        reference = _LinkShadow(np.random.default_rng(5), sigma=2.0)
        expected = [reference.value(seq) for seq in range(3 * limit)]
        shadow = _LinkShadow(np.random.default_rng(5), sigma=2.0)
        for seq in range(0, 2 * limit, 7):
            assert shadow.value(seq) == expected[seq]
        first, count = 2 * limit, 300
        assert shadow.take(first, count).tolist() == \
            expected[first:first + count]
        assert 1 not in shadow._pending  # pruned
        assert len(shadow._pending) <= limit
        newest = first + count - 1
        for seq in range(newest - horizon, first):
            if seq % 7:
                assert shadow.value(seq) == expected[seq]


class TestTap:
    def test_tap_sees_every_frame(self):
        sim, medium, radios = build_world()
        seen = []
        medium.add_tap(lambda frame: seen.append(frame.access_address))
        sim.schedule_at(1.0, lambda: radios["tx"].transmit(0xAAAA0001, b"a", 0, 3))
        sim.schedule_at(500.0,
                        lambda: radios["other"].transmit(0xAAAA0002, b"b", 0, 9))
        sim.run()
        assert seen == [0xAAAA0001, 0xAAAA0002]
