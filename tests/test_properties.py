"""Property-based tests (hypothesis) on codecs, crypto and core invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import aes128_encrypt_block
from repro.crypto.ccm import MIC_LEN, ccm_decrypt, ccm_encrypt
from repro.host.att.pdus import (
    ReadReq,
    ReadRsp,
    WriteCmd,
    WriteReq,
    decode_att_pdu,
)
from repro.host.gap import AdElement, build_adv_data, parse_adv_data
from repro.host.l2cap import l2cap_decode, l2cap_encode
from repro.ll.csa1 import Csa1
from repro.ll.csa2 import Csa2
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.control import (
    ChannelMapInd,
    ConnectionUpdateInd,
    TerminateInd,
    decode_control_pdu,
)
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.timing import window_widening_us
from repro.phy.crc import crc24, reverse_crc24_init
from repro.phy.whitening import whiten
from repro.sim.clock import SCA_FIELD_PPM

# ---------------------------------------------------------------------------
# PHY invariants
# ---------------------------------------------------------------------------


class TestPhyProperties:
    @given(data=st.binary(max_size=80), channel=st.integers(0, 39))
    def test_whitening_involution(self, data, channel):
        assert whiten(whiten(data, channel), channel) == data

    @given(data=st.binary(max_size=60), init=st.integers(0, (1 << 24) - 1))
    def test_crc_reverse_recovers_init(self, data, init):
        assert reverse_crc24_init(data, crc24(data, init)) == init

    @given(data=st.binary(min_size=1, max_size=60),
           init=st.integers(0, (1 << 24) - 1),
           bit=st.integers(0, 7), pos=st.integers(0, 59))
    def test_crc_detects_single_bit_flips(self, data, init, bit, pos):
        if pos >= len(data):
            pos = pos % len(data)
        mutated = bytearray(data)
        mutated[pos] ^= 1 << bit
        assert crc24(bytes(mutated), init) != crc24(data, init)

    @given(master=st.floats(0, 500), slave=st.floats(0, 500),
           interval=st.floats(0, 4_000_000))
    def test_widening_at_least_32us(self, master, slave, interval):
        assert window_widening_us(master, slave, interval) >= 32.0

    @given(master=st.floats(0, 500), slave=st.floats(0, 500),
           a=st.floats(0, 1_000_000), b=st.floats(0, 1_000_000))
    def test_widening_monotone_in_interval(self, master, slave, a, b):
        low, high = sorted((a, b))
        assert window_widening_us(master, slave, low) <= \
            window_widening_us(master, slave, high)


# ---------------------------------------------------------------------------
# Channel selection invariants
# ---------------------------------------------------------------------------


class TestCsaProperties:
    @given(hop=st.integers(5, 16),
           channel_map=st.integers(1, (1 << 37) - 1),
           steps=st.integers(1, 100))
    def test_csa1_only_uses_mapped_channels(self, hop, channel_map, steps):
        csa = Csa1(hop, channel_map)
        for _ in range(steps):
            channel = csa.next_channel()
            assert (channel_map >> channel) & 1

    @given(aa=st.integers(0, (1 << 32) - 1),
           channel_map=st.integers(1, (1 << 37) - 1),
           event=st.integers(0, 65535))
    def test_csa2_only_uses_mapped_channels(self, aa, channel_map, event):
        csa = Csa2(aa, channel_map)
        channel = csa.channel_for_event(event)
        assert (channel_map >> channel) & 1

    @given(hop=st.integers(5, 16), start=st.integers(0, 36))
    def test_csa1_clone_equivalence(self, hop, start):
        a = Csa1(hop, (1 << 37) - 1, last_unmapped=start)
        b = a.clone()
        assert [a.next_channel() for _ in range(40)] == \
            [b.next_channel() for _ in range(40)]


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------


class TestCodecProperties:
    @given(llid=st.sampled_from([LLID.DATA_CONTINUATION, LLID.DATA_START,
                                 LLID.CONTROL]),
           payload=st.binary(max_size=100),
           sn=st.integers(0, 1), nesn=st.integers(0, 1),
           md=st.integers(0, 1))
    def test_data_pdu_round_trip(self, llid, payload, sn, nesn, md):
        pdu = DataPdu.make(llid, payload, sn=sn, nesn=nesn, md=md)
        assert DataPdu.from_bytes(pdu.to_bytes()) == pdu

    @given(win_size=st.integers(0, 255), win_offset=st.integers(0, 65535),
           interval=st.integers(0, 65535), latency=st.integers(0, 65535),
           timeout=st.integers(0, 65535), instant=st.integers(0, 65535))
    def test_connection_update_round_trip(self, win_size, win_offset,
                                          interval, latency, timeout,
                                          instant):
        pdu = ConnectionUpdateInd(win_size, win_offset, interval, latency,
                                  timeout, instant)
        assert decode_control_pdu(pdu.to_payload()) == pdu

    @given(channel_map=st.integers(0, (1 << 37) - 1),
           instant=st.integers(0, 65535))
    def test_channel_map_round_trip(self, channel_map, instant):
        pdu = ChannelMapInd(channel_map, instant)
        assert decode_control_pdu(pdu.to_payload()) == pdu

    @given(code=st.integers(0, 255))
    def test_terminate_round_trip(self, code):
        assert decode_control_pdu(TerminateInd(code).to_payload()) == \
            TerminateInd(code)

    @given(value=st.integers(0, (1 << 48) - 1), random=st.booleans())
    def test_bd_address_round_trip(self, value, random):
        addr = BdAddress(value, random)
        assert BdAddress.from_bytes(addr.to_bytes(), random) == addr
        assert BdAddress.from_str(str(addr), random).value == value

    @given(handle=st.integers(0, 65535), value=st.binary(max_size=50))
    def test_att_write_round_trip(self, handle, value):
        assert decode_att_pdu(WriteReq(handle, value).to_bytes()) == \
            WriteReq(handle, value)
        assert decode_att_pdu(WriteCmd(handle, value).to_bytes()) == \
            WriteCmd(handle, value)

    @given(handle=st.integers(0, 65535))
    def test_att_read_round_trip(self, handle):
        assert decode_att_pdu(ReadReq(handle).to_bytes()) == ReadReq(handle)

    @given(value=st.binary(max_size=60))
    def test_att_read_rsp_round_trip(self, value):
        assert decode_att_pdu(ReadRsp(value).to_bytes()) == ReadRsp(value)

    @given(cid=st.integers(0, 65535), payload=st.binary(max_size=100))
    def test_l2cap_round_trip(self, cid, payload):
        assert l2cap_decode(l2cap_encode(cid, payload)) == (cid, payload)

    @given(elements=st.lists(
        st.tuples(st.integers(1, 255), st.binary(max_size=8)),
        max_size=3))
    def test_adv_data_round_trip(self, elements):
        ads = [AdElement(t, d) for t, d in elements]
        total = sum(len(d) + 2 for _, d in elements)
        if total > 31:
            return
        parsed = parse_adv_data(build_adv_data(*ads))
        assert [(e.ad_type, e.data) for e in parsed] == elements


# ---------------------------------------------------------------------------
# Crypto invariants
# ---------------------------------------------------------------------------


class TestCryptoProperties:
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_aes_is_a_permutation_per_key(self, key, block):
        # Injectivity spot check: flipping one input bit changes output.
        out = aes128_encrypt_block(key, block)
        mutated = bytes([block[0] ^ 1]) + block[1:]
        assert aes128_encrypt_block(key, mutated) != out

    @given(key=st.binary(min_size=16, max_size=16),
           nonce=st.binary(min_size=13, max_size=13),
           plaintext=st.binary(max_size=60),
           aad=st.binary(max_size=4))
    @settings(max_examples=30)
    def test_ccm_round_trip(self, key, nonce, plaintext, aad):
        ct = ccm_encrypt(key, nonce, plaintext, aad)
        assert len(ct) == len(plaintext) + MIC_LEN
        assert ccm_decrypt(key, nonce, ct, aad) == plaintext


# ---------------------------------------------------------------------------
# ARQ state machine invariant
# ---------------------------------------------------------------------------


class TestArqProperties:
    @given(ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                        max_size=40))
    def test_counters_stay_binary(self, ops):
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        state = ConnectionState(make_params(), Role.SLAVE)
        for sn, nesn in ops:
            state.on_received_bits(sn, nesn)
            assert state.transmit_seq_num in (0, 1)
            assert state.next_expected_seq_num in (0, 1)

    @given(ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                        max_size=40))
    def test_new_data_iff_sn_matches(self, ops):
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        state = ConnectionState(make_params(), Role.SLAVE)
        for sn, nesn in ops:
            expected_new = sn == state.next_expected_seq_num
            is_new, _ = state.on_received_bits(sn, nesn)
            assert is_new == expected_new


# ---------------------------------------------------------------------------
# Forged-bit invariant (paper eq. 6)
# ---------------------------------------------------------------------------


class TestForgedBitsProperty:
    @given(sn_s=st.integers(0, 1), nesn_s=st.integers(0, 1))
    def test_forged_frame_always_reads_as_new_data(self, sn_s, nesn_s):
        """Whatever the Slave's last bits were, the attacker's forged frame
        must be accepted as new data and acknowledge the Slave's last."""
        from repro.core.state import SniffedConnection
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        conn = SniffedConnection(make_params())
        conn.slave_bits.sn = sn_s
        conn.slave_bits.nesn = nesn_s
        conn.slave_bits.seen = True
        sn_a, nesn_a = conn.forged_bits()

        # Model the Slave's Link Layer at the matching state.
        slave = ConnectionState(make_params(), Role.SLAVE)
        slave.next_expected_seq_num = nesn_s  # NESN_s is what it expects
        slave.transmit_seq_num = sn_s         # SN_s was its last frame
        slave.note_sent(DataPdu.empty())
        is_new, acked = slave.on_received_bits(sn_a, nesn_a)
        assert is_new   # the Slave accepts the injected data
        assert acked    # and sees its own last frame acknowledged


# ---------------------------------------------------------------------------
# Fast-forward engine = reference engine on random quiet worlds
# ---------------------------------------------------------------------------

#: Quiet Master/Slave worlds: polls and acks only, no third radio.
QUIET_WORLDS = st.fixed_dictionaries({
    "seed": st.integers(0, 1 << 16),
    "interval": st.integers(6, 160),
    "master_sca_ppm": st.sampled_from(SCA_FIELD_PPM),
    "slave_sca_ppm": st.sampled_from(SCA_FIELD_PPM),
    "distance_m": st.floats(0.5, 15.0),
    "master_jitter_us": st.one_of(st.just(0.0), st.floats(0.1, 8.0)),
    "slave_jitter_us": st.one_of(st.just(0.0), st.floats(0.1, 8.0)),
    "sigma_db": st.one_of(st.just(0.0), st.floats(0.5, 6.0)),
    "widening_scale": st.just(1.0),
    "seconds": st.sampled_from([4, 12]),
})

#: 25 s at the shortest interval: one engagement of ~3,300 cycles, which
#: the kernel runs in several blocks.
MULTI_BLOCK_WORLD = {
    "seed": 3, "interval": 6, "master_sca_ppm": 50.0,
    "slave_sca_ppm": 50.0, "distance_m": 2.0, "master_jitter_us": 1.0,
    "slave_jitter_us": 1.0, "sigma_db": 2.0, "widening_scale": 1.0,
    "seconds": 25,
}

#: Master jitter of 3 ms against a 7.5 ms interval, and Slave windows
#: widened to catch most of it: now and then a Master draw lands its next
#: event before the current response ends, so the next-master clamp binds
#: inside a block and the kernel restarts from the clamped time.
CLAMP_WORLD = dict(MULTI_BLOCK_WORLD, master_jitter_us=3000.0,
                   widening_scale=50.0)


def _world_result(result):
    """A fast run's result without the engine's own ``ff.*`` counters."""
    from dataclasses import replace

    from tests.test_engine_differential import _world_metrics

    return replace(result, metrics=_world_metrics(result.metrics))


def _run_quiet_world(engine, world):
    """Build and run one quiet world; its result and simulator."""
    from repro.devices.lightbulb import Lightbulb
    from repro.experiments.common import TrialResult
    from repro.ll.master import MasterLinkLayer
    from repro.phy.path_loss import PathLossModel
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.topology import Topology

    sim = Simulator(seed=world["seed"], trace_enabled=True,
                    metrics_enabled=True, engine=engine)
    topo = Topology()
    topo.place("peripheral", 0.0, 0.0)
    topo.place("central", world["distance_m"], 0.0)
    medium = Medium(sim, topo, path_loss=PathLossModel(
        shadowing_sigma_db=world["sigma_db"]))
    bulb = Lightbulb(sim, medium, "peripheral",
                     sca_ppm=world["slave_sca_ppm"])
    central = MasterLinkLayer(
        sim, medium, "central", BdAddress.from_str("C0:FF:EE:00:00:07"),
        interval=world["interval"], timeout=300,
        sca_ppm=world["master_sca_ppm"])
    bulb.ll.clock.jitter_us = world["slave_jitter_us"]
    central.clock.jitter_us = world["master_jitter_us"]
    bulb.ll.widening_scale = world["widening_scale"]
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=world["seconds"] * 1_000_000)
    result = TrialResult(
        success=False, attempts=0,
        connection_survived=central.is_connected and bulb.ll.is_connected,
        metrics=sim.metrics.snapshot())
    return result, sim


#: Quiet worlds with an attacker following the link from its CONNECT_REQ:
#: victims 2 m apart, the attacker on the far side of the Peripheral,
#: behind a wall when ``wall_db`` > 0.  Its distance, the wall and the
#: shadowing decide whether it hears every frame, misses some, or is
#: provably deaf (when the follower lane must stand down).
FOLLOWER_WORLDS = st.fixed_dictionaries({
    "seed": st.integers(0, 1 << 16),
    "interval": st.integers(6, 80),
    "attacker_distance_m": st.floats(1.5, 40.0),
    "wall_db": st.sampled_from([0.0, 8.0, 20.0]),
    "sigma_db": st.one_of(st.just(0.0), st.floats(0.5, 5.0)),
    "seconds": st.just(3),
})

#: An attacker near its sensitivity floor: about one frame in a hundred
#: fades below it, so a miss cuts a block in the middle of an engagement.
NEAR_FLOOR_WORLD = {
    "seed": 2, "interval": 6, "attacker_distance_m": 11.0,
    "wall_db": 20.0, "sigma_db": 3.0, "seconds": 3,
}


class _ScriptedStream:
    """Stands in for a Wi-Fi track's numpy stream: hands out preset values
    in order, whatever distribution is asked for (gaps, burst lengths and
    channel indexes alike)."""

    def __init__(self, values):
        self._values = iter(values)

    def exponential(self, scale=1.0):
        return next(self._values)

    def integers(self, low, high=None):
        return next(self._values)


def _one_burst(start_us, pdu_len):
    """A scripted track's stream for one burst of ``pdu_len`` bytes at
    ``start_us`` (the track starting at time 0) on its first channel,
    then silence."""
    return [start_us, 8.0 * (pdu_len + 8) + 4.0, 0] + [1e12] * 8


def _run_follower_world(engine, world, tracks=()):
    """Build and run one quiet world with a following attacker; its
    result and simulator.

    ``tracks`` adds Wi-Fi tracks next to the attacker, each a
    ``(name, channel, stream values)`` triple played through a
    :class:`_ScriptedStream`.
    """
    from repro.core.attacker import Attacker
    from repro.devices.lightbulb import Lightbulb
    from repro.experiments.common import TrialResult
    from repro.ll.master import MasterLinkLayer
    from repro.phy.path_loss import PathLossModel
    from repro.sim.interference import WifiInterferer
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.topology import Topology

    sim = Simulator(seed=world["seed"], trace_enabled=True,
                    metrics_enabled=True, engine=engine)
    topo = Topology()
    topo.place("peripheral", 0.0, 0.0)
    topo.place("central", 2.0, 0.0)
    topo.place("attacker", -world["attacker_distance_m"], 0.0)
    if world["wall_db"] > 0:
        topo.add_wall(-1.0, -50.0, -1.0, 50.0,
                      attenuation_db=world["wall_db"])
    medium = Medium(sim, topo, path_loss=PathLossModel(
        shadowing_sigma_db=world["sigma_db"]))
    bulb = Lightbulb(sim, medium, "peripheral")
    central = MasterLinkLayer(
        sim, medium, "central", BdAddress.from_str("C0:FF:EE:00:00:08"),
        interval=world["interval"], timeout=300)
    attacker = Attacker(sim, medium, "attacker")
    for i, (name, channel, values) in enumerate(tracks):
        topo.place(name, -world["attacker_distance_m"], 1.0 + i)
        interferer = WifiInterferer(sim, medium, name, channels=(channel,))
        interferer._rng = _ScriptedStream(values)
        interferer.start()
    attacker.sniff_new_connections()
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=world["seconds"] * 1_000_000)
    result = TrialResult(
        success=attacker.synchronized, attempts=0,
        connection_survived=central.is_connected and bulb.ll.is_connected,
        metrics=sim.metrics.snapshot())
    return result, sim


class TestFastForwardProperties:
    @settings(max_examples=6, deadline=None)
    @given(world=QUIET_WORLDS)
    @example(world=MULTI_BLOCK_WORLD)
    @example(world=CLAMP_WORLD)
    def test_engines_agree_on_quiet_worlds(self, world):
        from tests.test_engine_differential import run_both_engines

        results = {}

        def build_and_run(engine):
            results[engine], sim = _run_quiet_world(engine, world)
            return sim

        run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])

    @settings(max_examples=6, deadline=None)
    @given(world=FOLLOWER_WORLDS)
    @example(world=NEAR_FLOOR_WORLD)
    def test_engines_agree_with_a_following_attacker(self, world):
        from tests.test_engine_differential import run_both_engines

        results = {}

        def build_and_run(engine):
            results[engine], sim = _run_follower_world(engine, world)
            return sim

        run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])

    def test_near_floor_miss_cuts_an_engagement(self, monkeypatch):
        # The near-floor attacker misses a frame now and then: the kernel
        # must commit the cycles before the miss and hand the missed cycle
        # to the reference path (the differential above checks the rest).
        from repro.sim.fastforward import QuietCycleEngine
        from repro.sim.medium import _LinkShadow

        given_back: list = []
        cut_engagements: list = []
        give_back, run = _LinkShadow.give_back, QuietCycleEngine._run

        def spy_give_back(shadow, seq, draws):
            given_back.append(len(draws))
            give_back(shadow, seq, draws)

        def spy_run(self, *args):
            given_back.clear()
            fired = run(self, *args)
            if fired and given_back:
                cut_engagements.append(fired)
            return fired

        monkeypatch.setattr(_LinkShadow, "give_back", spy_give_back)
        monkeypatch.setattr(QuietCycleEngine, "_run", spy_run)
        result, sim = _run_follower_world("fast", NEAR_FLOOR_WORLD)
        assert result.success, "the attacker never synchronised"
        data_frames = [r.detail["frame_id"] for r in sim.trace
                       if r.kind == "tx" and r.detail["channel"] < 37]
        heard = {r.detail["frame_id"] for r in sim.trace
                 if r.kind == "rx" and r.source == "attacker"}
        first = next(i for i, frame in enumerate(data_frames)
                     if frame in heard)
        assert any(frame not in heard for frame in data_frames[first:]), (
            "the attacker missed no data frame once following")
        assert cut_engagements, "no miss ever cut an engagement"

    @staticmethod
    def _engagements(world, monkeypatch):
        """Run ``world`` fast; the trace and each engagement's record span."""
        from repro.sim.fastforward import QuietCycleEngine

        spans = []
        advance = QuietCycleEngine.advance

        def spy(self, until_us, budget):
            before = len(self.sim.trace)
            fired = advance(self, until_us, budget)
            if fired:
                spans.append((before, len(self.sim.trace), fired))
            return fired

        monkeypatch.setattr(QuietCycleEngine, "advance", spy)
        _, sim = _run_quiet_world("fast", world)
        return list(sim.trace), spans

    def test_multi_block_world_spans_several_blocks(self, monkeypatch):
        from repro.sim.fastforward import _BLOCK_CYCLES

        _, spans = self._engagements(MULTI_BLOCK_WORLD, monkeypatch)
        assert max(fired for _, _, fired in spans) > 2 * 6 * _BLOCK_CYCLES

    def test_clamp_world_hands_over_clamped_master_events(self,
                                                          monkeypatch):
        # The kernel commits the cycle whose next-master clamp binds and
        # hands the reference path a master event at that cycle's
        # response end -- a time only the clamp produces.
        records, spans = self._engagements(CLAMP_WORLD, monkeypatch)
        clamped = 0
        for begin, end, _ in spans:
            heard = [r.time_us for r in records[begin:end]
                     if r.kind == "slave-heard"]
            following = next((r.time_us for r in records[end:]
                              if r.kind == "master-tx"), None)
            clamped += bool(heard) and following == heard[-1]
        assert clamped > 0


#: Worlds of several quiet background links, as the dense occupancy worlds
#: build them: each pair a master at ``(x, y)`` and its slave 2 m away,
#: on a hop interval of the dense worlds' cycle, all registered with the
#: engine; a wall through the middle, and up to two Wi-Fi tracks.  Each
#: pair draws its own channel selection algorithm and its Master's and
#: Slave's sleep-clock accuracy, so one block holds rows of different
#: periods, selectors, drift and bail cycles.  (A pair is ``(interval, x,
#: y)``, or ``(interval, x, y, use_csa2, master_sca_ppm, slave_sca_ppm)``;
#: ``wifi`` is one track's settings, a list of them, or ``None``.)
_SCA_PPM = st.sampled_from((20.0, 50.0, 150.0, 500.0))
MULTI_LINK_WORLDS = st.fixed_dictionaries({
    "seed": st.integers(0, 1 << 16),
    "pairs": st.lists(st.tuples(st.sampled_from((24, 36, 48)),
                                st.floats(0.0, 30.0), st.floats(0.0, 30.0),
                                st.booleans(), _SCA_PPM, _SCA_PPM),
                      min_size=2, max_size=5),
    "wall_db": st.sampled_from([0.0, 8.0, 20.0]),
    "wifi": st.lists(st.sampled_from([
        {"channels": (11, 12, 13, 14, 15, 16, 17, 18, 19, 20),
         "duty_cycle": 0.10},
        {"channels": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), "duty_cycle": 0.05}]),
        max_size=2),
    "channel_map": st.just((1 << 37) - 1),
    "seconds": st.just(2),
})

#: Two co-located links hopping over the same two channels, and a Wi-Fi
#: track bursting on them at a 30 % duty cycle: a frame overlaps another
#: on its channel inside nearly every block.
FORCED_OVERLAP_WORLD = {
    "seed": 4, "pairs": [(24, 0.0, 0.0), (36, 4.0, 0.0)], "wall_db": 0.0,
    "wifi": {"channels": (5, 6), "duty_cycle": 0.30},
    "channel_map": (1 << 5) | (1 << 6), "seconds": 3,
}


#: Two co-located links on the same two channels, an attacker following
#: the first from its CONNECT_REQ, and a Wi-Fi track of short, sparse
#: bursts on both channels: the attacker stays parked on the first link's
#: channel between its events, so bursts and the second link's frames land
#: in its open window in most blocks, and it drops them at the
#: access-address check (inert contacts).
FORCED_CONTACT_WORLD = {
    "seed": 4, "pairs": [(24, 0.0, 0.0), (36, 4.0, 0.0)], "wall_db": 0.0,
    "wifi": {"channels": (5, 6), "duty_cycle": 0.02, "mean_burst_us": 60.0},
    "channel_map": (1 << 5) | (1 << 6), "seconds": 3, "follower": True,
}

#: CSA#1 and CSA#2 links of different drift side by side, the attacker
#: following the first (a CSA#2 link), and two Wi-Fi tracks.
MIXED_SELECTOR_WORLD = {
    "seed": 31, "pairs": [(24, 0.0, 0.0, True, 50.0, 150.0),
                          (36, 6.0, 3.0, False, 20.0, 500.0),
                          (48, 20.0, 10.0, True, 500.0, 20.0)],
    "wall_db": 8.0,
    "wifi": [{"channels": (11, 12, 13, 14, 15, 16, 17, 18, 19, 20),
              "duty_cycle": 0.10},
             {"channels": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
              "duty_cycle": 0.05}],
    "channel_map": (1 << 37) - 1, "seconds": 2, "follower": True,
}


#: Two links whose Masters stand at one spot, the attacker following the
#: first: now and then a burst lands in a Master's response window while
#: the attacker listens on the same channel, so two foreign listeners,
#: in window order not medium-id order, absorb one burst.
TWO_LISTENER_WORLD = {
    "seed": 222, "pairs": [(24, 0.0, 0.0), (24, 0.0, 0.0)], "wall_db": 0.0,
    "wifi": {"channels": (5, 6), "duty_cycle": 0.02, "mean_burst_us": 60.0},
    "channel_map": (1 << 5) | (1 << 6) | (1 << 7), "seconds": 2,
    "follower": True,
}


def _run_multi_link_world(engine, world):
    """Build and run one multi-link world; its result and simulator.

    With ``world["follower"]``, an attacker camps on an advertising
    channel from the start and follows the first link, the first to
    connect, joining it as that link's follower.
    """
    from repro.core.attacker import Attacker
    from repro.experiments.common import TrialResult
    from repro.experiments.dense import ESTABLISH_STAGGER_US
    from repro.ll.master import MasterLinkLayer
    from repro.ll.slave import SlaveLinkLayer
    from repro.sim.interference import WifiInterferer
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.topology import Topology

    sim = Simulator(seed=world["seed"], trace_enabled=True,
                    metrics_enabled=True, engine=engine)
    topo = Topology()
    # (interval, x, y, use CSA#2, Master SCA, Slave SCA) per pair.
    pairs = [tuple(pair) + (False, 50.0, 50.0)[len(pair) - 3:]
             for pair in world["pairs"]]
    wifi = world["wifi"]
    tracks = [] if wifi is None else [wifi] if isinstance(wifi, dict) \
        else list(wifi)
    for i, (_interval, x, y, *_) in enumerate(pairs):
        topo.place(f"m{i}", x, y)
        topo.place(f"s{i}", x + 2.0, y)
    for j in range(max(1, len(tracks))):
        topo.place("wifi" if j == 0 else f"wifi{j}", 15.0 - 12.0 * j,
                   10.0 + 15.0 * j)
    if world["wall_db"] > 0:
        topo.add_wall(15.0, -10.0, 15.0, 50.0,
                      attenuation_db=world["wall_db"])
    medium = Medium(sim, topo)
    attacker = None
    if world.get("follower"):
        topo.place("attacker", 1.0, 2.0)
        attacker = Attacker(sim, medium, "attacker", use_csa2=pairs[0][3])
        attacker.sniff_new_connections()
    links = []
    for i, (interval, _x, _y, use_csa2, master_sca, slave_sca) in \
            enumerate(pairs):
        slave = SlaveLinkLayer(
            sim, medium, f"s{i}",
            BdAddress.generate(sim.streams.get(f"addr-s{i}")),
            adv_interval_ms=40.0 + 7.0 * i, use_csa2=use_csa2,
            sca_ppm=slave_sca)
        master = MasterLinkLayer(
            sim, medium, f"m{i}",
            BdAddress.generate(sim.streams.get(f"addr-m{i}")),
            interval=interval, timeout=300,
            channel_map=world["channel_map"], use_csa2=use_csa2,
            sca_ppm=master_sca)
        slave.start_advertising()
        sim.schedule_at(ESTABLISH_STAGGER_US * (i + 1),
                        lambda m=master, s=slave: m.connect(s.address),
                        "connect")
        links.append((master, slave))
    for j, settings in enumerate(tracks):
        interferer = WifiInterferer(sim, medium,
                                    "wifi" if j == 0 else f"wifi{j}",
                                    **settings)
        interferer.start()
    sim.run(until_us=world["seconds"] * 1_000_000)
    result = TrialResult(
        success=False, attempts=0,
        connection_survived=all(m.is_connected and s.is_connected
                                for m, s in links),
        metrics=sim.metrics.snapshot())
    return result, sim


class TestMultiLinkProperties:
    @settings(max_examples=5, deadline=None)
    @given(world=MULTI_LINK_WORLDS)
    @example(world=FORCED_OVERLAP_WORLD)
    @example(world=FORCED_CONTACT_WORLD)
    @example(world=TWO_LISTENER_WORLD)
    @example(world=MIXED_SELECTOR_WORLD)
    def test_engines_agree_on_multi_link_worlds(self, world):
        from tests.test_engine_differential import (
            fast_forwarded,
            run_both_engines,
        )

        results = {}

        def build_and_run(engine):
            results[engine], sim = _run_multi_link_world(engine, world)
            return sim

        _, sim_fast = run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])
        assert fast_forwarded(sim_fast) > 0

    def test_cut_cycles_are_not_respeculated(self, monkeypatch):
        # A cross-link cut hands the cycles it involves to the reference
        # path; the engine must not speculate on that cut again: each
        # interaction stops exactly one speculation.
        from repro.sim.fastforward import QuietCycleEngine

        cuts: list = []
        first_interaction = QuietCycleEngine._first_interaction
        run = QuietCycleEngine._run

        def spy_interaction(self, runs, tracks, horizon):
            found = first_interaction(self, runs, tracks, horizon)
            if found[0] < horizon:
                cuts[-1].append(found[0])
            return found

        def spy_run(self, *args):
            cuts.append([])
            return run(self, *args)

        monkeypatch.setattr(QuietCycleEngine, "_first_interaction",
                            spy_interaction)
        monkeypatch.setattr(QuietCycleEngine, "_run", spy_run)
        _run_multi_link_world("fast", FORCED_OVERLAP_WORLD)
        hits = [hit for speculation in cuts for hit in speculation]
        assert len(hits) > 5, "the forced overlaps never cut a block"
        assert len(set(hits)) == len(hits), (
            "a cut was speculated on more than once")

    def test_forced_contacts_are_absorbed(self, monkeypatch):
        # Most blocks of the forced-contact world hear foreign frames in
        # the attacker's window; the kernel absorbs them instead of
        # cutting, and says why each engagement ended: one ff.cut.* count
        # per engagement.
        from repro.sim.fastforward import QuietCycleEngine

        engagements: list = []
        advance = QuietCycleEngine.advance

        def spy(self, until_us, budget):
            fired = advance(self, until_us, budget)
            if fired:
                engagements.append(fired)
            return fired

        monkeypatch.setattr(QuietCycleEngine, "advance", spy)
        result, _ = _run_multi_link_world("fast", FORCED_CONTACT_WORLD)
        counters = result.metrics["counters"]
        cuts = sum(count for name, count in counters.items()
                   if name.startswith("ff.cut."))
        assert cuts == len(engagements) > 0
        assert counters["ff.contact.inert"] > 10 * len(engagements)

    def test_track_bursts_drawn_past_a_cut_are_taken_over(self,
                                                          monkeypatch):
        # A cut leaves the bursts the kernel planned past it in the
        # interferer's plan, and the reference path fires them from
        # there.  Fast and reference must still agree.
        from repro.sim.interference import WifiInterferer
        from tests.test_engine_differential import run_both_engines

        # Per engine, whether each burst event found its burst planned.
        from_plan: list = []
        burst = WifiInterferer._burst

        def spy_burst(self):
            from_plan[-1].append(self.head < len(self.plan_t))
            burst(self)

        monkeypatch.setattr(WifiInterferer, "_burst", spy_burst)
        results = {}

        def build_and_run(engine):
            from_plan.append([])
            results[engine], sim = _run_multi_link_world(
                engine, FORCED_OVERLAP_WORLD)
            return sim

        run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])
        reference, fast = from_plan
        # Alone, the burst event draws its own burst when it fires.
        assert reference and not any(reference)
        assert any(fast), (
            "the reference path fired no burst the kernel planned past a "
            "cut")

    def test_track_stopped_after_the_kernel_planned_ahead(self,
                                                          monkeypatch):
        # The first corrupted frame after a second stops the Wi-Fi track
        # from inside the reference path.  On the fast engine the plan
        # then holds bursts the kernel drew ahead; they never fire, and
        # fast and reference agree.
        from repro.sim.interference import WifiInterferer
        from repro.sim.trace import Trace
        from tests.test_engine_differential import run_both_engines

        interferers: list = []
        # Per engine: (stop time, bursts planned and dropped).
        stops: list = []
        start, record = WifiInterferer.start, Trace.record

        def spy_start(self):
            interferers.append(self)
            start(self)

        def spy_record(self, time_us, source, kind, **detail):
            record(self, time_us, source, kind, **detail)
            wifi = interferers[-1]
            if kind == "crc-error" and time_us > 1e6 and wifi._running:
                stops.append((time_us, len(wifi.plan_t) - wifi.head))
                wifi.stop()

        monkeypatch.setattr(WifiInterferer, "start", spy_start)
        monkeypatch.setattr(Trace, "record", spy_record)
        results = {}

        def build_and_run(engine):
            results[engine], sim = _run_multi_link_world(
                engine, FORCED_OVERLAP_WORLD)
            return sim

        sim_ref, _ = run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])
        (stop_us, _), (_, dropped) = stops
        assert dropped > 0, "the kernel had planned no burst past the stop"
        assert not [r for r in sim_ref.trace if r.source == "wifi"
                    and r.kind == "tx" and r.time_us > stop_us]


class TestInertContacts:
    """A foreign frame heard inside a listener's window is absorbed only
    when the listener's handler drops it and nothing else can tell; any
    near miss of that rule still cuts the block.  Fast = reference on
    every world either way."""

    WORLD = {"seed": 5, "interval": 24, "attacker_distance_m": 3.0,
             "wall_db": 0.0, "sigma_db": 2.0, "seconds": 3}

    #: Bytes of every scripted burst, and its air time.
    PDU_LEN = 20

    @classmethod
    def _parked_window(cls, monkeypatch):
        """The channel the attacker is parked on before one of its
        sniff-opens 1.5 s in, that sniff-open's time and the victims'
        access address, from a reference run: no frame of the victims'
        falls within 1 ms before the sniff-open."""
        from repro.core.sniffer import ConnectionSniffer

        arms = []
        arm = ConnectionSniffer._arm

        def spy(self, channel, open_us, close_us):
            arms.append((channel, open_us, close_us,
                         self.connection.params.access_address))
            arm(self, channel, open_us, close_us)

        with monkeypatch.context() as patch:
            patch.setattr(ConnectionSniffer, "_arm", spy)
            _run_follower_world("reference", cls.WORLD)
        k = next(i for i, arm in enumerate(arms) if arm[1] > 1_500_000.0)
        channel, _, last_close, _ = arms[k - 1]
        _, open_us, _, access_address = arms[k]
        assert last_close < open_us - 1_000.0
        return channel, open_us, access_address

    def _run(self, monkeypatch, starts):
        """Bursts of one scripted track each at ``starts``, on the parked
        channel; both engines' traces compared.  The fast run's metrics
        and the reference trace."""
        from tests.test_engine_differential import run_both_engines

        channel = self._parked_window(monkeypatch)[0]
        tracks = [(f"wifi-{i}", channel, _one_burst(start, self.PDU_LEN))
                  for i, start in enumerate(starts)]
        results = {}

        def build_and_run(engine):
            results[engine], sim = _run_follower_world(engine, self.WORLD,
                                                       tracks)
            return sim

        sim_ref, _ = run_both_engines(build_and_run)
        assert results["reference"] == _world_result(results["fast"])
        counters = results["fast"].metrics["counters"]
        return counters, list(sim_ref.trace)

    @classmethod
    def _air_us(cls):
        from repro.phy.modulation import PhyMode, air_time_us

        return air_time_us(cls.PDU_LEN, PhyMode.LE_1M)

    @staticmethod
    def _attacker(records, kind):
        return [r for r in records
                if r.source == "attacker" and r.kind == kind]

    def test_burst_inside_the_parked_window_is_absorbed(self, monkeypatch):
        open_us = self._parked_window(monkeypatch)[1]
        counters, records = self._run(monkeypatch, [open_us - 700.0])
        assert len(self._attacker(records, "rx")) > 0
        assert counters.get("ff.contact.inert") == 1

    def test_burst_ending_at_the_retune_cuts(self, monkeypatch):
        from repro.sim.events import TIME_EPS_US

        open_us = self._parked_window(monkeypatch)[1]
        start = open_us - 0.5 * TIME_EPS_US - self._air_us()
        counters, records = self._run(monkeypatch, [start])
        burst = next(r for r in records
                     if r.source == "wifi-0" and r.kind == "tx")
        end = burst.time_us + self._air_us()
        assert abs(end - open_us) <= TIME_EPS_US
        assert any(r.detail["frame_id"] == burst.detail["frame_id"]
                   for r in self._attacker(records, "rx"))
        assert "ff.contact.inert" not in counters

    def test_follower_retuning_while_locked_cuts(self, monkeypatch):
        open_us = self._parked_window(monkeypatch)[1]
        counters, records = self._run(monkeypatch, [open_us - 100.0])
        assert self._attacker(records, "rx-abandoned")
        assert "ff.contact.inert" not in counters

    def test_overlapping_bursts_in_the_window_cut(self, monkeypatch):
        open_us = self._parked_window(monkeypatch)[1]
        counters, records = self._run(monkeypatch,
                                      [open_us - 700.0, open_us - 600.0])
        assert self._attacker(records, "rx-busy")
        assert "ff.contact.inert" not in counters

    def test_burst_with_the_listeners_access_address_cuts(self,
                                                          monkeypatch):
        # A burst carrying the victims' access address: the attacker takes
        # it for the Master's frame and anchors on it, so the contact is
        # not inert.
        from repro.sim import fastforward, interference

        victims_aa = self._parked_window(monkeypatch)[2]
        for module in (interference, fastforward):
            monkeypatch.setattr(module, "NOISE_ACCESS_ADDRESS", victims_aa)
        open_us = self._parked_window(monkeypatch)[1]
        counters, records = self._run(monkeypatch, [open_us - 700.0])
        burst = next(r for r in records
                     if r.source == "wifi-0" and r.kind == "tx")
        assert burst.detail["aa"] == victims_aa
        assert any(r.detail["frame_id"] == burst.detail["frame_id"]
                   for r in self._attacker(records, "rx"))
        assert "ff.contact.inert" not in counters
