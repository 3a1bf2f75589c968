"""Analytic fast-forward of quiet BLE connection-event cycles.

An established connection with nothing to say is *quiet*: Master and
Slave exchange empty data PDUs (poll / ack) every connection interval.
Event by event, each such connection event costs 6-9 heap operations, two
``RadioFrame`` allocations, closures, and medium lock bookkeeping.  A §VII
trial (and scenario A) is quiet for nearly all of its simulated time: the
connection set-up, during which the attacker follows the link passively
(re-anchoring on every Master frame and recording both sides' SN/NESN
bits), and the settle — a supervision timeout plus a margin — after its
injection report.  A dense occupancy world is quiet for most of its time
too, only with many links at once: its background pairs poll each other
while Wi-Fi-style interferers burst on their block of channels.  The
attack itself is not quiet (the attacker transmits, and it counts
followed events while an injection is queued), and neither is a world
with a tap that reads more than airtime (the defense bench's detector
bank) or an attacker that stays on air (scenarios B-D), so the engine
stays off there.

:class:`QuietCycleEngine` replaces those stretches with closed-form
arithmetic.  A world registers its *links* — (master, slave) pairs, each
optionally with a *follower*, a passive
:class:`~repro.core.sniffer.ConnectionSniffer` on the link — and its
*tracks*, the :class:`~repro.sim.interference.WifiInterferer` sources.
Whenever the event queue holds exactly each link's steady-state trio (the
Slave's window-open and window-close events and the Master's connection
event), each following follower's sniff-open/sniff-close pair and each
track's next burst, and a conservative eligibility audit passes, the
engine computes a block of cycles per link as numpy arrays — CSA channel,
SN/NESN ARQ bits, SleepClock drift/jitter, path-loss shadowing, and the
follower's listening windows and received power — draws each track's
bursts ahead from its own stream, and merges every link's and track's
frames by start time.  It commits everything up to the first cycle it
cannot replicate: a cycle a link's own audit rejects, or a cross-link
interaction (two frames overlapping on one channel, a frame heard in
another source's listening window unless that contact is *inert*, or two
sources' events within float tolerance of each other).  A contact is
inert when the listener locks onto the frame alone on its channel, keeps
listening past its end and drops it at the access-address check; the
engine then commits the lock and delivery as bookkeeping (the listener's
shadowing draw, its ``rx-lock``/``rx`` records and ``medium.rx``).  It
emits the *same* trace records, metric increments, airtime-tap credits
and RNG stream consumption the reference path would produce, writes the
end state back and lets the reference engine resume.  Anything it cannot replicate
bit-for-bit (pending procedures, queued data, a follower with an
``on_event`` callback or one that would miss a frame, a window edge within
float tolerance of a frame boundary) cuts the block with none of that
cycle's draws consumed, so the reference path takes over mid-trial with no
divergence.

Correctness contract (enforced by ``tests/test_engine_differential.py``):
byte-identical traces and bit-identical results against the reference
engine.  See DESIGN.md, "Epoch scheduler & analytic fast-forward", for the
invariants and the full bail-out list.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import replace
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.ll.csa1 import NUM_DATA_CHANNELS
from repro.ll.master import _RESPONSE_GRACE_US, MasterState
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_crc
from repro.ll.slave import SlaveState
from repro.ll.timing import (
    WINDOW_WIDENING_CONSTANT_US,
    WORST_CASE_SLAVE_SCA_PPM,
)
from repro.phy import signal as _signal
from repro.phy.modulation import PhyMode, air_time_us
from repro.phy.signal import RadioFrame
from repro.sim.events import TIME_EPS_US, Event
from repro.sim.interference import NOISE_ACCESS_ADDRESS
from repro.sim.medium import (
    LINK_MARGIN_SIGMAS,
    RECENT_HORIZON_US,
    Medium,
    _ActiveTransmission,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace
from repro.utils.units import PPM, T_IFS_US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sniffer import ConnectionSniffer
    from repro.ll.master import MasterLinkLayer
    from repro.ll.slave import SlaveLinkLayer
    from repro.sim.interference import WifiInterferer
    from repro.sim.transceiver import Transceiver

#: Environment variable consulted by :func:`resolve_engine`.  The CLI's
#: ``--engine`` flag sets it so worker processes inherit the choice.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine names accepted by :func:`resolve_engine`.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
_VALID_ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

#: The empty data PDU's LLID as an int (header byte arithmetic).
_LLID_EMPTY = int(LLID.DATA_CONTINUATION)
_LLID_CONTROL = int(LLID.CONTROL)

#: (LLID, MD) of an empty data PDU with no more data to follow.
_EMPTY_DESC = (_LLID_EMPTY, 0)

#: How far below a frame's start the Slave's scheduled-response clamp may
#: reach (mirrors the ``max(jitter, -4.0)`` clamp in ``slave.py``).
_RESPONSE_JITTER_FLOOR_US = -4.0

#: Link-margin multiple of the shadowing sigma required for engagement
#: (shared with the medium's indexed-pruning margin).  At 8 sigma the
#: probability of a single fade dropping a frame below the sensitivity
#: floor is ~1e-15 per cycle; the engine still hard-checks every sampled
#: power and raises if the impossible happens.
_LINK_MARGIN_SIGMAS = LINK_MARGIN_SIGMAS

#: Frames that ended longer ago than this no longer matter for collision
#: resolution; the medium's recent-window pruning horizon.
_RECENT_HORIZON_US = RECENT_HORIZON_US

#: Cycles the first block of an engagement speculates; later blocks grow
#: eightfold up to :data:`_BLOCK_CYCLES`, and every block is cut to the
#: cycles the horizon and the event budget leave room for.  A block's
#: fixed cost dwarfs its per-cycle cost, so the first block is sized to
#: finish a short engagement in one go.  In the §VII grid (perfbench
#: ``panel3`` and ``campaign``) engagements run 11 to ~4,000 cycles, and
#: half of them end within 128 cycles: 128 cycles measured cheaper than
#: 16, 32 or 64 on those, and only ~12 % of engagements (11-48 cycles
#: long) cost more than a per-cycle loop would.  With several sources the
#: counts are cycles summed over the links, spread in proportion to each
#: link's event rate; on busy dense worlds 128 also measured cheaper than
#: 32, 64 or 256.  Once inert contacts stopped cutting dense blocks (a
#: traced round's engagements now fire ~835 events each, not ~475), 256
#: and 512 each won 4 of 6 alternated ``dense`` rounds against 128
#: (medians +3 % and +6 %, inside the run-to-run spread), short of a
#: consistent win, so 128 stands.
_FIRST_BLOCK_CYCLES = 128
_BLOCK_CYCLES = 1024

#: The error for each post-draw invariant, in the order a cycle checks
#: them: both frames' received power, the response deadline, and the next
#: cycle's events firing after the response.
_FAULTS = (
    "fast-forward: master frame faded below the slave's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave frame faded below the master's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave response would miss the master's response deadline",
    "fast-forward: next cycle's events would fire before the current "
    "response completes",
)

#: Channel stride of the (channel, time) sort keys the cross-link checks
#: search: far above any block's span in µs, so one sorted array holds
#: every channel's intervals in channel order.  Keys lose sub-ns
#: precision, so a key search only nominates candidates
#: (:data:`_KEY_SLACK_US` wide) that an exact comparison then confirms.
_CHANNEL_KEY_US = 1e9
_KEY_SLACK_US = 1e-3

#: Roles of a queued event in :meth:`QuietCycleEngine._classify`: its
#: index in a link's slot list, or a track's burst.
_OPEN, _CLOSE, _MASTER, _SNIFF_OPEN, _SNIFF_CLOSE = range(5)
_BURST = -1

#: Disengage reasons a down link also causes (:meth:`QuietCycleEngine.
#: _stand_down` reports those as ``link-not-connected``).
_MAYBE_DOWN = frozenset(("live-count", "link-in-event"))

_TIME = attrgetter("time_us")
_FIRST = itemgetter(0)

_events_fast_forwarded = 0


def events_fast_forwarded() -> int:
    """Total simulator events replaced by fast-forward, process-wide.

    Serial runs (``--jobs 1``) accumulate here directly; parallel workers
    each count their own share.  Benchmarks reset via
    :func:`reset_fast_forward_count` and read this after a serial panel.
    """
    return _events_fast_forwarded


def reset_fast_forward_count() -> None:
    """Zero the process-wide :func:`events_fast_forwarded` counter."""
    global _events_fast_forwarded
    _events_fast_forwarded = 0


def resolve_engine(explicit: Optional[str] = None) -> str:
    """Resolve the simulation engine choice.

    Args:
        explicit: engine name passed programmatically; overrides the
            environment.  ``None`` falls back to ``$REPRO_ENGINE`` and
            then to the default (``"fast"``).

    Returns:
        ``"fast"`` or ``"reference"``.

    Raises:
        ConfigurationError: for any other name.
    """
    engine = explicit if explicit is not None \
        else os.environ.get(ENGINE_ENV_VAR, ENGINE_FAST)
    if engine not in _VALID_ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {_VALID_ENGINES}"
        )
    return engine


def install_engine(
    sim: Simulator,
    medium: Medium,
    links: Sequence[tuple] = (),
    engine: Optional[str] = None,
) -> Optional["QuietCycleEngine"]:
    """Attach a :class:`QuietCycleEngine` to ``sim`` if the resolved engine
    is ``"fast"``; a no-op (returning ``None``) for ``"reference"``.

    ``links`` are the world's ``(master, slave)`` or ``(master, slave,
    follower)`` tuples, a follower being the link's passive sniffer.
    Worlds whose links form later, and worlds with Wi-Fi interferers,
    register them on the returned engine with
    :meth:`QuietCycleEngine.add_link` / :meth:`~QuietCycleEngine.add_track`.
    """
    if resolve_engine(engine) != ENGINE_FAST:
        return None
    quiet_engine = QuietCycleEngine(sim, medium, links)
    sim.install_fast_forward(quiet_engine)
    return quiet_engine


class _StreamBuffer:
    """Block-buffered normal draws, bit-identical to per-call draws.

    ``numpy.random.Generator.normal(0, s, n)`` consumes the bit stream
    exactly as ``n`` scalar ``normal(0, s)`` calls do (same values, same
    end state), so the engine can take a whole block of cycles' draws at
    once, hand back the ones a cut-short block did not use, and on
    disengage rewind to the saved state and replay exactly the consumed
    count, so the reference path continues on an identical stream.
    """

    __slots__ = ("_rng", "_sigma", "_values", "_pos", "_consumed",
                 "_saved_state")

    def __init__(self, rng, sigma: float):
        self._rng = rng if (sigma > 0.0 and rng is not None) else None
        self._sigma = sigma
        self._values: np.ndarray = np.empty(0)
        self._pos = 0
        self._consumed = 0
        self._saved_state: Optional[dict] = None

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws (zeros, consuming nothing, when sigma is 0)."""
        rng = self._rng
        if rng is None:
            return np.zeros(n)
        if self._saved_state is None:
            self._saved_state = rng.bit_generator.state
        pos, values = self._pos, self._values
        if pos + n > len(values):
            fresh = rng.normal(0.0, self._sigma, n - (len(values) - pos))
            values = self._values = np.concatenate((values[pos:], fresh))
            pos = 0
        self._pos = pos + n
        self._consumed += n
        return values[pos:pos + n]

    def give_back(self, n: int) -> None:
        """Return the last ``n`` taken draws; the next :meth:`take` sees
        them again."""
        if self._rng is not None:
            self._pos -= n
            self._consumed -= n

    def unwind(self) -> None:
        """Leave the stream exactly where per-call draws would have."""
        rng = self._rng
        if rng is None or self._saved_state is None:
            return
        rng.bit_generator.state = self._saved_state
        if self._consumed:
            rng.normal(0.0, self._sigma, self._consumed)
        self._saved_state = None
        self._values = np.empty(0)
        self._pos = 0
        self._consumed = 0


def _take_frame_ids(count: int) -> int:
    """Consume ``count`` ids from the global frame-id counter; the first."""
    ids = _signal._frame_ids
    first = next(ids)
    if count > 1:
        next(islice(ids, count - 2, None))
    return first


def _with_contacts(receivers: list, heard: Optional[list], i: int,
                   transceivers: dict) -> list:
    """A frame's ``(medium id, name, powers, is the counterpart)``
    receivers with the foreign listeners that ``heard`` it in cycle ``i``
    merged in, in the ascending medium-id order the medium locks and
    delivers in."""
    if not heard:
        return receivers
    return sorted(receivers + [(tid, transceivers[tid].name, {i: power},
                                False) for tid, power in heard],
                  key=_FIRST)


class _Link:
    """A registered link: its devices, and the label of its Slave's
    window-open events (their handlers are per-event closures)."""

    __slots__ = ("master", "slave", "follower", "wo_label")

    def __init__(self, master: "MasterLinkLayer", slave: "SlaveLinkLayer",
                 follower: Optional["ConnectionSniffer"] = None):
        self.master = master
        self.slave = slave
        #: The passive sniffer of this link, if the world has one: a third,
        #: listen-only lane of every cycle it follows.
        self.follower = follower
        self.wo_label = f"{slave.name}-window-open"


class _Crossing:
    """Every source's speculated frames, listening windows and events in
    one block, gathered for :meth:`QuietCycleEngine._first_interaction`.

    A frame is (channel, start, end, sender's transmission index) plus its
    sender, owner and *own* count — the windows of its own source that
    contain its start; a window (channel, open, close) plus its listener
    and owner.  Per-source constants are kept as (value, count) runs and
    expanded once.
    """

    __slots__ = ("radios", "f_cols", "f_sender", "f_owner", "f_own",
                 "w_cols", "w_listener", "w_owner", "e_times", "e_owner")

    def __init__(self):
        #: radio -> index (the sender/listener columns hold indexes)
        self.radios: dict = {}
        self.f_cols: list = [[], [], [], []]
        self.f_sender: list = []
        self.f_owner: list = []
        self.f_own: list = []
        self.w_cols: list = [[], [], []]
        self.w_listener: list = []
        self.w_owner: list = []
        self.e_times: list = []
        self.e_owner: list = []

    def index(self, radio: "Transceiver") -> int:
        return self.radios.setdefault(radio, len(self.radios))

    def frames(self, channel, start, end, seq, sender: "Transceiver",
               owner: int, own: int) -> None:
        for column, values in zip(self.f_cols, (channel, start, end, seq)):
            column.append(values)
        count = len(start)
        self.f_sender.append((self.index(sender), count))
        self.f_owner.append((owner, count))
        self.f_own.append((own, count))

    def windows(self, channel, opens, closes, listener: "Transceiver",
                owner: int) -> None:
        for column, values in zip(self.w_cols, (channel, opens, closes)):
            column.append(values)
        count = len(opens)
        self.w_listener.append((self.index(listener), count))
        self.w_owner.append((owner, count))

    def events(self, owner: int, *times) -> None:
        self.e_times.extend(times)
        self.e_owner.append((owner, sum(len(t) for t in times)))

    @staticmethod
    def expand(column: list) -> np.ndarray:
        """A (value, count) column as one array."""
        values, counts = zip(*column)
        return np.repeat(np.array(values), counts)


class _LinkRun:
    """One link through an engagement: its state between cycles, and the
    arrays of the block being speculated.

    ``speculate`` lays out a block of cycles and finds how many of them
    the link alone can vouch for (``k``); the engine decides how many of
    those every other source lets it commit, ``commit`` emits them and
    rolls the state on, and ``write_back`` hands the link back to the
    reference engine.
    """

    __slots__ = (
        "engine", "link", "queued", "lane", "master", "slave", "mconn",
        "sconn", "phy", "frame_dur", "interval_us", "timeout_us", "rate_m",
        "rate_s", "horizon_pad", "period_us", "per_cycle", "t_open",
        "t_close", "t_master", "m_lv", "t_sniff_open", "t_sniff_close",
        "a_predicted", "committed", "owner",
        # prepared at engagement
        "aa", "crc_init", "drift_k", "widen_scale", "use_csa2", "s_sel",
        "m_sel", "hop", "unmapped", "channel", "mr", "sr", "mr_tid",
        "sr_tid", "mean_m_to_s", "mean_s_to_m", "ms_shadow", "sm_shadow",
        "m_seq", "s_seq", "floor_s", "floor_m", "m_tx_power", "s_tx_power",
        "a_conn", "a_current", "a_radio", "a_tid", "a_interval", "a_drift_k",
        "mean_m_to_a", "mean_s_to_a", "ma_shadow", "sa_shadow", "floor_a",
        "a_event_count", "s_jitter", "m_jitter", "event_count", "m_ts",
        "m_ne", "s_ts", "s_ne", "m_pal", "s_pal", "m_desc", "s_desc", "s_lv",
        "m_anchor", "last_end_m", "last_end_r", "last_anchor_s", "last_t_m",
        "last_t_resp", "last_sniff_open", "last_sniff_close", "last_channel",
        "last_unmapped", "last_m_bits", "last_s_bits",
        # the block being speculated
        "k", "bailed", "anchors", "t_m", "end_m", "t_resp", "end_r",
        "t_o", "t_c", "next_open", "next_close", "unclamped", "anchor_s",
        "seven", "a_open", "a_close", "open_next", "close_next", "a_next",
        "ma_draws", "sa_draws", "pa_master", "pa_slave", "channels",
        "unmapped_seq", "s", "e", "s_after", "late",
    )

    def __init__(self, engine: "QuietCycleEngine", link: _Link, queued,
                 follow: bool, owner: int):
        master, slave = link.master, link.slave
        ev_open, ev_close, ev_master, ev_sniff_open, ev_sniff_close = queued
        self.engine = engine
        self.link = link
        self.queued = queued
        self.owner = owner
        lane = link.follower if follow else None
        self.lane = lane
        self.master, self.slave = master, slave
        mconn = self.mconn = master.conn
        self.sconn = slave.conn
        mp = mconn.params
        self.phy = master.phy
        self.frame_dur = air_time_us(2, self.phy)
        self.interval_us = mp.interval_us
        self.timeout_us = mp.timeout_us
        self.rate_m = master.clock.rate
        self.rate_s = slave.clock.rate
        # Latest event of a cycle is the Slave response's end, which the
        # deadline invariant bounds below end_m + T_IFS + grace.
        self.horizon_pad = self.frame_dur + T_IFS_US + _RESPONSE_GRACE_US
        self.period_us = self.interval_us / self.rate_m  # block sizing only
        # Events of a cycle, not counting the window-close that fires
        # (and extends the window) before the master frame ends.
        self.per_cycle = 6 if lane is None else 8
        # The state at the start of the next cycle.
        self.t_open, self.t_close, self.t_master = \
            ev_open.time_us, ev_close.time_us, ev_master.time_us
        self.m_lv = mconn.last_valid_rx_local_us
        self.committed = 0
        # The follower's lane: its listening window of the next cycle, and
        # the anchor it predicts for it.
        self.t_sniff_open = self.t_sniff_close = self.a_predicted = 0.0
        if lane is not None:
            assert lane.connection is not None  # eligible
            self.t_sniff_open = ev_sniff_open.time_us
            self.t_sniff_close = ev_sniff_close.time_us
            self.a_predicted = lane.connection.predicted_anchor_us()

    def _bails(self, t_o, t_m, t_c, end_m, lv, until_us):
        """The pre-draw bail-outs of one cycle (floats) or of each cycle of
        a block (arrays)."""
        stop = (t_o > t_m) | (t_m >= t_c)  # window miss
        # window edge within float tolerance of the frame end
        stop = stop | ((end_m - TIME_EPS_US <= t_c) & (t_c <= end_m))
        if until_us is not None:
            stop = stop | (t_m + self.horizon_pad > until_us)
        # Master supervision would expire: reference path
        return stop | (t_m * self.rate_m - lv > self.timeout_us)

    def next_cycle_bails(self, until_us: Optional[float]) -> bool:
        """Whether the cycle at the current state bails out; checked
        before speculating a block, so a stretch too short to run costs
        no draws."""
        t_master = self.t_master
        stop = self._bails(self.t_open, t_master, self.t_close,
                           t_master + self.frame_dur, self.m_lv, until_us)
        if self.lane is None:
            return bool(stop)
        # The follower must be on the channel before the master frame, and
        # its window must close within the horizon.
        return bool(stop) or self.t_sniff_open >= t_master or (
            until_us is not None and self.t_sniff_close > until_us)

    def first_event_us(self) -> float:
        """Time of the link's earliest queued event."""
        first = min(self.t_open, self.t_close, self.t_master)
        return min(first, self.t_sniff_open) if self.lane is not None \
            else first

    def prepare(self) -> None:
        """Everything an engagement keeps constant, and the rest of the
        state between cycles."""
        engine, medium = self.engine, self.engine.medium
        master, slave, lane = self.master, self.slave, self.lane
        mconn, sconn = self.mconn, self.sconn
        mp = mconn.params
        self.aa, self.crc_init = mp.access_address, mp.crc_init
        self.drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        self.widen_scale = slave.widening_scale
        self.use_csa2 = mp.use_csa2
        self.m_sel, self.s_sel = mconn.selector, sconn.selector
        self.hop = 0 if self.use_csa2 else self.s_sel.hop_increment
        self.unmapped = 0 if self.use_csa2 else self.s_sel._last_unmapped
        self.channel = sconn.current_channel

        mr, sr = self.mr, self.sr = master.radio, slave.radio
        draw_shadow = medium.path_loss.shadowing_sigma_db > 0.0
        # Only the counterpart links (and the follower's) carry a quiet
        # cycle's frames; the engine proves nobody else hears them.
        # Shadowing draws come from the medium's per-link substreams
        # indexed by the sender's transmission counter, so skipping every
        # off-link draw is exact — a draw's value depends only on (link,
        # index), never on what other links consumed.  Geometry is frozen
        # while engaged (nothing else runs), so the mean losses are
        # engagement-wide.
        self.mr_tid, self.sr_tid = mr.medium_id, sr.medium_id
        self.mean_m_to_s = engine._mean_loss(mr, sr)
        self.mean_s_to_m = engine._mean_loss(sr, mr)
        self.ms_shadow = medium._link_shadow(mr, self.sr_tid) \
            if draw_shadow else None
        self.sm_shadow = medium._link_shadow(sr, self.mr_tid) \
            if draw_shadow else None
        self.m_seq = medium._tx_seq.get(self.mr_tid, 0)
        self.s_seq = medium._tx_seq.get(self.sr_tid, 0)
        self.floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        self.floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        self.m_tx_power = mr.tx_power_dbm
        self.s_tx_power = sr.tx_power_dbm

        if lane is not None:
            aconn = self.a_conn = lane.connection
            self.a_current = lane._current
            assert aconn is not None and self.a_current is not None
            a_radio = self.a_radio = lane.radio
            self.a_tid = a_radio.medium_id
            self.a_interval = aconn.params.interval_us
            # The sniffer's widening estimate (SniffedConnection.
            # estimated_widening_us), in window_widening_us's float order.
            self.a_drift_k = (aconn.params.master_sca_ppm
                              + WORST_CASE_SLAVE_SCA_PPM) / PPM
            self.mean_m_to_a = engine._mean_loss(mr, a_radio)
            self.mean_s_to_a = engine._mean_loss(sr, a_radio)
            self.ma_shadow = medium._link_shadow(mr, self.a_tid) \
                if draw_shadow else None
            self.sa_shadow = medium._link_shadow(sr, self.a_tid) \
                if draw_shadow else None
            self.floor_a = max(medium.sensitivity_dbm,
                               a_radio.sensitivity_dbm)
            self.a_event_count = aconn.event_count

        self.s_jitter = _StreamBuffer(slave.clock._rng, slave.clock.jitter_us)
        self.m_jitter = _StreamBuffer(master.clock._rng,
                                      master.clock.jitter_us)

        # The rest of the state at the start of the next cycle.
        self.event_count = sconn.event_count
        self.m_ts, self.m_ne = mconn.transmit_seq_num, \
            mconn.next_expected_seq_num
        self.s_ts, self.s_ne = sconn.transmit_seq_num, \
            sconn.next_expected_seq_num
        self.m_pal = mconn._peer_acked_last
        self.s_pal = sconn._peer_acked_last
        self.m_desc = None if mconn._last_sent is None else (
            int(mconn._last_sent.header.llid), mconn._last_sent.header.md)
        self.s_desc = None if sconn._last_sent is None else (
            int(sconn._last_sent.header.llid), sconn._last_sent.header.md)
        self.s_lv = sconn.last_valid_rx_local_us
        self.m_anchor = master._anchor_local

    # ------------------------------------------------------------------
    # Speculate
    # ------------------------------------------------------------------

    def speculate(self, n: int, until_us: Optional[float]) -> None:
        """Lay out ``n`` cycles from the current state; set ``k``, the
        cycles the link alone vouches for, and ``bailed``, whether cycle
        ``k`` is one the reference path must run, and each cycle's span
        and channel."""
        lane = self.lane
        self.late = None  # past_until works it out when asked
        # -- draw in bulk: slave jitter per cycle is response, window-open,
        #    window-close; master jitter is the next event ----------------
        s_draws = self.s_jitter.take(3 * n).reshape(n, 3)
        m_draws = self.m_jitter.take(n)

        # -- every cycle's timing, in the reference's float-op order.
        #    Cycle i+1 starts at cycle i's unclamped next master event; the
        #    clamp search below cuts the block where that assumption fails.
        interval_us, rate_m, rate_s = \
            self.interval_us, self.rate_m, self.rate_s
        anchors = np.full(n + 1, interval_us, dtype=np.float64)
        anchors[0] = self.m_anchor
        anchors = np.add.accumulate(anchors)  # sequential, like the loop
        unclamped = anchors[1:] / rate_m + m_draws
        t_m = np.empty(n)
        t_m[0] = self.t_master
        t_m[1:] = unclamped[:-1]
        end_m = t_m + self.frame_dur
        t_resp = end_m + T_IFS_US + np.maximum(
            s_draws[:, 0], _RESPONSE_JITTER_FLOOR_US)
        end_r = t_resp + self.frame_dur
        anchor_s = t_m * rate_s
        predicted_s = anchor_s + interval_us
        widening = self.widen_scale * (
            self.drift_k * (predicted_s - anchor_s)
            + WINDOW_WIDENING_CONSTANT_US)
        next_open = np.maximum(
            (predicted_s - widening) / rate_s + s_draws[:, 1], t_resp)
        next_close = np.maximum(
            (predicted_s + widening) / rate_s + s_draws[:, 2], t_resp)
        t_o = np.empty(n)
        t_o[0] = self.t_open
        t_o[1:] = next_open[:-1]
        t_c = np.empty(n)
        t_c[0] = self.t_close
        t_c[1:] = next_close[:-1]
        lv = np.empty(n)
        lv[0] = self.m_lv
        lv[1:] = end_r[:-1] * rate_m

        # -- locate the first pre-draw bail-out and the first binding
        #    next-master clamp -----------------------------------------
        stop = self._bails(t_o, t_m, t_c, end_m, lv, until_us)
        if lane is not None:
            # The follower's window of each next cycle, armed at this
            # cycle's sniff-close from this cycle's anchor.
            a_next = t_m + self.a_interval
            open_next, close_next = lane.follow_window(
                a_next,
                self.a_drift_k * (a_next - t_m) + WINDOW_WIDENING_CONSTANT_US)
            a_open = np.empty(n)
            a_open[0] = self.t_sniff_open
            a_open[1:] = open_next[:-1]
            a_close = np.empty(n)
            a_close[0] = self.t_sniff_close
            a_close[1:] = close_next[:-1]
            # The follower tunes in after the master frame starts, its
            # window closes before the response ends, or its close would
            # fire among the next cycle's events or after its next open:
            # the reference path runs that cycle.
            stop = stop | (a_open >= t_m) | (a_close <= end_r) \
                | (a_close >= np.minimum(np.minimum(next_open, next_close),
                                         np.maximum(unclamped, end_r))) \
                | (open_next <= a_close)
            if until_us is not None:
                stop = stop | (a_close > until_us)
            self.a_next, self.a_open, self.a_close = a_next, a_open, a_close
            self.open_next, self.close_next = open_next, close_next
        bail = int(stop.argmax())
        if not stop[bail]:
            bail = n
        clamped = end_r > unclamped
        restart = int(clamped.argmax())
        valid = restart + 1 if clamped[restart] else n
        k = min(bail, valid)
        if lane is not None and k:
            # The follower's received power; a fade below its floor is a
            # missed frame, and the reference path runs that cycle.
            ma_shadow, sa_shadow = self.ma_shadow, self.sa_shadow
            if ma_shadow is not None and sa_shadow is not None:
                ma_draws = ma_shadow.take(self.m_seq, k)
                sa_draws = sa_shadow.take(self.s_seq, k)
                pa_master = self.m_tx_power - (self.mean_m_to_a + ma_draws)
                pa_slave = self.s_tx_power - (self.mean_s_to_a + sa_draws)
                self.ma_draws, self.sa_draws = ma_draws, sa_draws
            else:
                pa_master = np.full(k, self.m_tx_power - self.mean_m_to_a)
                pa_slave = np.full(k, self.s_tx_power - self.mean_s_to_a)
            missed = (pa_master < self.floor_a) | (pa_slave < self.floor_a)
            miss = int(missed.argmax())
            if missed[miss]:
                self._give_back_follower(miss, k)
                k = bail = miss
                pa_master, pa_slave = pa_master[:k], pa_slave[:k]
            self.pa_master, self.pa_slave = pa_master, pa_slave
        self.s_jitter.give_back(3 * (n - k))
        self.m_jitter.give_back(n - k)
        self.k = k
        self.bailed = bail < valid

        self.t_m, self.end_m, self.t_resp, self.end_r = t_m, end_m, t_resp, \
            end_r
        self.t_o, self.t_c = t_o, t_c
        self.next_open, self.next_close = next_open, next_close
        self.unclamped, self.anchors, self.anchor_s = \
            unclamped, anchors, anchor_s
        self.seven = t_c < end_m
        if not k:
            return
        # The channels of cycles 0..k (cycle k's is the next state's).
        if self.use_csa2:
            s_sel, event_count = self.s_sel, self.event_count
            self.channels = [s_sel.channel_for_event((event_count + i)
                                                     & 0xFFFF)
                             for i in range(k + 1)]
            self.unmapped_seq = None
        else:
            self.unmapped_seq = (self.unmapped + self.hop * np.arange(k + 1)) \
                % NUM_DATA_CHANNELS
            self.channels = self.engine._csa1_table(
                self.s_sel)[self.unmapped_seq].tolist()
        # Each cycle's first and last event, and the first event of the
        # cycle after it (the clamped master event included).
        s_after = np.minimum(np.minimum(next_open[:k], next_close[:k]),
                             np.maximum(unclamped[:k], end_r[:k]))
        if lane is not None:
            self.s = np.minimum(t_o[:k], self.a_open[:k])
            self.e = self.a_close[:k]
            s_after = np.minimum(s_after, self.open_next[:k])
        else:
            self.s = t_o[:k]
            self.e = end_r[:k]
        self.s_after = s_after

    def _give_back_follower(self, start: int, stop: int) -> None:
        """Return the follower's shadow draws of cycles start..stop-1."""
        if self.ma_shadow is not None and self.sa_shadow is not None:
            self.ma_shadow.give_back(self.m_seq + start,
                                     self.ma_draws[start:stop])
            self.sa_shadow.give_back(self.s_seq + start,
                                     self.sa_draws[start:stop])

    def past_until(self, until_us: Optional[float]) -> bool:
        """Whether the cycle the link bailed at in this block runs past
        ``until_us`` or the event budget, rather than being one of its own
        the reference path must run.  Read for ``ff.cut.*`` only."""
        if self.late is None:
            k = self.k
            self.late = until_us is not None and bool(
                self.t_m[k] + self.horizon_pad > until_us
                or (self.lane is not None and self.a_close[k] > until_us))
        return self.late

    def horizon_us(self) -> float:
        """The first event the link alone cannot vouch for."""
        k = self.k
        return float(self.s_after[k - 1]) if k else self.first_event_us()

    def cut(self, c: int) -> None:
        """Keep only cycles 0..c-1 of the vouched-for ``k``."""
        k = self.k
        if c < k:
            self.s_jitter.give_back(3 * (k - c))
            self.m_jitter.give_back(k - c)
            if self.lane is not None:
                self._give_back_follower(c, k)
                self.pa_master = self.pa_master[:c]
                self.pa_slave = self.pa_slave[:c]
            self.k = c

    def events_in(self, c: int) -> int:
        """Simulator events the first ``c`` cycles fire."""
        return self.per_cycle * c + int(np.count_nonzero(self.seven[:c]))

    def cross(self, c: int, crossing: _Crossing) -> None:
        """Hand cycles 0..c-1 to the cross-link checks."""
        ch = self.channels[:c]
        t_m, end_m = self.t_m[:c], self.end_m[:c]
        t_resp, end_r = self.t_resp[:c], self.end_r[:c]
        owner, lane = self.owner, self.lane
        # A link's frame starts inside its receiver's window and, with a
        # follower, inside the follower's.
        own = 1 + (lane is not None)
        cycles = np.arange(c)
        crossing.frames(ch, t_m, end_m, cycles + self.m_seq, self.mr, owner,
                        own)
        crossing.frames(ch, t_resp, end_r, cycles + self.s_seq, self.sr,
                        owner, own)
        rx_on = end_m + 1.0
        crossing.windows(ch, self.t_o[:c], end_m, self.sr, owner)
        crossing.windows(ch, rx_on, end_r, self.mr, owner)
        crossing.events(owner, self.t_o[:c], t_m,
                        self.t_c[:c][self.seven[:c]], end_m, rx_on, t_resp,
                        end_r)
        if lane is not None:
            a_open = self.a_open[:c]
            crossing.windows(ch, a_open, self.open_next[:c], self.a_radio,
                             owner)
            crossing.events(owner, a_open, self.a_close[:c])

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self, ids_m: list, ids_s: list, sink, retained: list,
               contacts: dict) -> None:
        """Emit cycles 0..k-1 with the given frame ids into ``sink`` (a
        trace), absorb their frames' inert ``contacts``, file their recent
        frames in ``retained`` and roll the state to cycle k.  The engine
        credits their airtime (:meth:`QuietCycleEngine._credit_airtime`)."""
        engine, medium, lane = self.engine, self.engine.medium, self.lane
        k = self.k
        channels = self.channels
        m_tx_power, s_tx_power = self.m_tx_power, self.s_tx_power
        ms_shadow, sm_shadow = self.ms_shadow, self.sm_shadow
        m_seq, s_seq = self.m_seq, self.s_seq
        if ms_shadow is not None and sm_shadow is not None:
            p_slave = m_tx_power - (
                self.mean_m_to_s + ms_shadow.take(m_seq, k))
            p_master = s_tx_power - (
                self.mean_s_to_m + sm_shadow.take(s_seq, k))
        else:
            p_slave = np.full(k, m_tx_power - self.mean_m_to_s)
            p_master = np.full(k, s_tx_power - self.mean_s_to_m)
        t_m, end_m, t_resp = self.t_m, self.end_m, self.t_resp
        end_r_k = self.end_r[:k]
        next_open, next_close = self.next_open, self.next_close
        faults = (
            p_slave < self.floor_s,
            p_master < self.floor_m,
            end_r_k >= end_m[:k] + T_IFS_US + _RESPONSE_GRACE_US,
            (next_open[:k] < end_r_k) | (next_close[:k] < end_r_k))
        if (faults[0] | faults[1] | faults[2] | faults[3]).any():
            table = np.vstack(faults)
            cycle = int(table.any(axis=0).argmax())
            check = int(table[:, cycle].argmax())
            # The reference cycle has sent its master frame before its
            # first check and its response before the others.
            _take_frame_ids(2 * cycle + (1 if check == 0 else 2))
            raise SimulationError(_FAULTS[check])

        # Foreign listeners that lock onto a frame and drop it, per cycle.
        heard_m = engine._absorb(contacts, self.mr, self.m_seq, k)
        heard_s = engine._absorb(contacts, self.sr, self.s_seq, k)
        mr_tid, sr_tid = self.mr_tid, self.sr_tid
        # Each frame's receivers in lock order (ascending medium id, the
        # order the medium locks and delivers in) with their received
        # powers: the counterpart, then or before the follower.
        m_receivers = [(sr_tid, p_slave)]
        s_receivers = [(mr_tid, p_master)]
        if lane is not None:
            a_tid = self.a_tid
            m_receivers = sorted(m_receivers + [(a_tid, self.pa_master)],
                                 key=lambda receiver: receiver[0])
            s_receivers = sorted(s_receivers + [(a_tid, self.pa_slave)],
                                 key=lambda receiver: receiver[0])

        # SN/NESN: the first cycle follows the ARQ rules; after it both
        # sides ack every frame, so the bits alternate with period 2 and
        # every later PDU is an empty one.
        crc_init = self.crc_init
        m_sn0, m_nesn0 = self.m_ts, self.m_ne
        m_desc0 = self.m_desc if (not self.m_pal and self.m_desc is not None) \
            else _EMPTY_DESC
        s_sn0, s_nesn0 = m_nesn0, m_sn0 ^ 1
        s_desc0 = self.s_desc if (m_nesn0 == self.s_ts
                                  and self.s_desc is not None) \
            else _EMPTY_DESC
        pdu_bytes = engine._pdu_bytes
        pdus = [
            (pdu_bytes(*(m_desc0 if i == 0 else _EMPTY_DESC),
                       m_sn0 ^ (i & 1), m_nesn0 ^ (i & 1), crc_init),
             pdu_bytes(*(s_desc0 if i == 0 else _EMPTY_DESC),
                       s_sn0 ^ (i & 1), s_nesn0 ^ (i & 1), crc_init))
            for i in range(min(k, 3))]

        event_count = self.event_count
        if sink.enabled:
            aa = self.aa
            t_o_l, t_m_l, end_m_l, t_resp_l, end_r_l = (
                self.t_o[:k].tolist(), t_m[:k].tolist(), end_m[:k].tolist(),
                t_resp[:k].tolist(), end_r_k.tolist())
            transceivers = medium._transceivers
            s_name, m_name = self.slave.name, self.master.name
            # (medium id, name, powers, is the counterpart) per receiver.
            m_all = [(tid, transceivers[tid].name, powers.tolist(),
                      tid == sr_tid) for tid, powers in m_receivers]
            s_all = [(tid, transceivers[tid].name, powers.tolist(),
                      tid == mr_tid) for tid, powers in s_receivers]
            for i in range(k):
                m_rx = _with_contacts(m_all, heard_m.get(i), i, transceivers)
                s_rx = _with_contacts(s_all, heard_s.get(i), i, transceivers)
                ch = channels[i]
                ec = (event_count + i) & 0xFFFF
                frame_id_m = ids_m[i]
                frame_id_s = ids_s[i]
                m_sn, m_nesn = m_sn0 ^ (i & 1), m_nesn0 ^ (i & 1)
                s_sn, s_nesn = s_sn0 ^ (i & 1), s_nesn0 ^ (i & 1)
                t_cycle, t_end_m = t_m_l[i], end_m_l[i]
                t_response, t_end_r = t_resp_l[i], end_r_l[i]
                sink.record(t_o_l[i], s_name, "window-open",
                            channel=ch, event_count=ec)
                for _, name, powers, _ in m_rx:
                    sink.record(t_cycle, name, "rx-lock",
                                frame_id=frame_id_m, channel=ch,
                                rssi_dbm=powers[i])
                sink.record(t_cycle, m_name, "tx",
                            channel=ch, aa=aa, pdu_len=2,
                            frame_id=frame_id_m)
                sink.record(t_cycle, m_name, "master-tx",
                            event_count=ec, sn=m_sn, nesn=m_nesn,
                            channel=ch)
                for _, name, powers, counterpart in m_rx:
                    sink.record(t_end_m, name, "rx",
                                frame_id=frame_id_m, corrupted=False,
                                rssi_dbm=powers[i])
                    if counterpart:
                        sink.record(t_end_m, s_name, "anchor",
                                    event_count=ec, anchor_us=t_cycle,
                                    frame_id=frame_id_m)
                for _, name, powers, _ in s_rx:
                    sink.record(t_response, name, "rx-lock",
                                frame_id=frame_id_s, channel=ch,
                                rssi_dbm=powers[i])
                sink.record(t_response, s_name, "tx",
                            channel=ch, aa=aa, pdu_len=2,
                            frame_id=frame_id_s)
                sink.record(t_response, s_name, "slave-response",
                            sn=s_sn, nesn=s_nesn, event_count=ec)
                for _, name, powers, counterpart in s_rx:
                    sink.record(t_end_r, name, "rx",
                                frame_id=frame_id_s, corrupted=False,
                                rssi_dbm=powers[i])
                    if counterpart:
                        sink.record(t_end_r, m_name, "slave-heard",
                                    event_count=ec, sn=s_sn,
                                    nesn=s_nesn)
        metrics = medium._metrics
        if metrics.enabled:
            medium._m_tx.inc(2 * k)
            medium._m_rx.inc((len(m_receivers) + len(s_receivers)) * k)
            if lane is not None:
                # Every followed event is heard: one anchor each, and its
                # drift against the anchor the sniffer predicted.
                lane._m_events.inc(k)
                lane._m_anchors.inc(k)
                predicted = [self.a_predicted] + self.a_next[:k - 1].tolist()
                for t_anchor, t_predicted in zip(t_m[:k].tolist(),
                                                 predicted):
                    lane._m_drift.observe(t_anchor - t_predicted)

        # Only frames ending within the recent horizon of the last response
        # survive into the medium's recent window.
        mr, sr = self.mr, self.sr
        aa, phy = self.aa, self.phy
        prune_before = float(end_r_k[-1]) - _RECENT_HORIZON_US
        for i in range(int(np.searchsorted(end_r_k, prune_before)), k):
            m_pdu, s_pdu = pdus[i if i < 3 else 2 - (i & 1)]
            start, end = float(t_m[i]), float(end_m[i])
            if end >= prune_before:
                retained.append((end, ids_m[i], start, channels[i], *m_pdu,
                                 [(tid, float(powers[i]))
                                  for tid, powers in m_receivers]
                                 + heard_m.get(i, []),
                                 mr, m_seq + i, aa, phy))
            retained.append((float(end_r_k[i]), ids_s[i], float(t_resp[i]),
                             channels[i], *s_pdu,
                             [(tid, float(powers[i]))
                              for tid, powers in s_receivers]
                             + heard_s.get(i, []),
                             sr, s_seq + i, aa, phy))

        # -- roll the state to the first cycle after the block -----------
        last = k - 1
        last_par = last & 1
        self.committed += k
        self.m_seq += k
        self.s_seq += k
        self.last_m_bits = (m_sn0 ^ last_par, m_nesn0 ^ last_par)
        self.last_s_bits = (s_sn0 ^ last_par, s_nesn0 ^ last_par)
        self.m_ts, self.m_ne, self.m_pal = \
            m_sn0 ^ (k & 1), m_nesn0 ^ (k & 1), True
        self.s_ts, self.s_ne, self.s_pal = \
            self.last_s_bits[0], self.last_s_bits[1], False
        self.m_desc = m_desc0 if k == 1 else _EMPTY_DESC
        self.s_desc = s_desc0 if k == 1 else _EMPTY_DESC
        last_end_m = self.last_end_m = float(end_m[last])
        last_end_r = self.last_end_r = float(self.end_r[last])
        self.last_anchor_s = float(self.anchor_s[last])
        self.last_t_m = float(t_m[last])
        self.last_t_resp = float(t_resp[last])
        self.s_lv = last_end_m * self.rate_s
        self.m_lv = last_end_r * self.rate_m
        self.m_anchor = float(self.anchors[k])
        self.last_channel, self.channel = channels[last], channels[k]
        if self.unmapped_seq is not None:
            self.last_unmapped = int(self.unmapped_seq[last])
            self.unmapped = int(self.unmapped_seq[k])
        self.event_count = (event_count + k) & 0xFFFF
        self.t_open = float(next_open[last])
        self.t_close = float(next_close[last])
        self.t_master = max(float(self.unclamped[last]), last_end_r)
        if lane is not None:
            self.last_sniff_open = float(self.a_open[last])
            self.last_sniff_close = float(self.a_close[last])
            self.t_sniff_open = float(self.open_next[last])
            self.t_sniff_close = float(self.close_next[last])
            self.a_predicted = float(self.a_next[last])
            self.a_event_count = (self.a_event_count + k) & 0xFFFF

    # ------------------------------------------------------------------
    # Materialise
    # ------------------------------------------------------------------

    def last_event_us(self) -> float:
        """Time of the last event the committed cycles fired."""
        return self.last_end_r if self.lane is None else self.last_sniff_close

    def unwind(self) -> None:
        """Leave the clocks' jitter streams where per-call draws would.
        The per-link shadowing substreams need no unwind: their draws are
        indexed by transmission counter, so the reference path picks up at
        the written-back counters with identical values."""
        self.s_jitter.unwind()
        self.m_jitter.unwind()

    def write_back(self) -> list:
        """Hand the link back to the reference engine as if it had run
        every committed cycle itself.  Returns the queued events to
        recreate as ``(creation time, schedule)`` pairs, in the order the
        reference created them."""
        sim, medium, lane = self.engine.sim, self.engine.medium, self.lane
        master, slave = self.master, self.slave
        mconn, sconn = self.mconn, self.sconn
        for event in self.queued:
            if event is not None:
                event.cancel()
        channel = self.channel

        def reschedule_window():
            sim.schedule_at(self.t_open,
                            lambda ch=channel: slave._window_open(ch),
                            self.link.wo_label)
            new_close = sim.schedule_at(self.t_close, slave._window_timeout,
                                        f"{slave.name}-window-close")
            slave._window_close = new_close
            slave._pending_events.append(new_close)

        def reschedule_master():
            sim.schedule_at(self.t_master, master._connection_event,
                            f"{master.name}-event")

        # The Slave re-armed its window when it responded, the Master its
        # event when it heard the response, the follower its pair at the
        # sniff-close.
        pending = [(self.last_t_resp, reschedule_window),
                   (self.last_end_r, reschedule_master)]

        mconn.event_count = self.event_count
        sconn.event_count = self.event_count
        mconn.transmit_seq_num, mconn.next_expected_seq_num = \
            self.m_ts, self.m_ne
        sconn.transmit_seq_num, sconn.next_expected_seq_num = \
            self.s_ts, self.s_ne
        mconn._peer_acked_last = self.m_pal
        sconn._peer_acked_last = self.s_pal
        m_desc, s_desc = self.m_desc, self.s_desc
        mconn._last_sent = DataPdu.make(
            LLID(m_desc[0]), b"", sn=self.last_m_bits[0],
            nesn=self.last_m_bits[1], md=m_desc[1])
        sconn._last_sent = DataPdu.make(
            LLID(s_desc[0]), b"", sn=self.last_s_bits[0],
            nesn=self.last_s_bits[1], md=s_desc[1])
        mconn.last_valid_rx_local_us = self.m_lv
        sconn.last_valid_rx_local_us = self.s_lv
        mconn.current_channel = self.last_channel
        sconn.current_channel = channel
        if not self.use_csa2:
            self.m_sel._last_unmapped = self.last_unmapped
            self.s_sel._last_unmapped = self.unmapped
        master._anchor_local = self.m_anchor
        master._awaiting_response = False
        master._response_deadline = None
        slave._anchor_local = self.last_anchor_s
        slave._events_since_anchor = 1

        mr, sr = self.mr, self.sr
        mr._tx_until_us = self.last_end_m
        sr._tx_until_us = self.last_end_r
        mr._rx_channel = mr._rx_since_us = None
        sr._rx_channel = sr._rx_since_us = None

        if lane is not None:
            # The sniffer has heard every frame and re-armed its window at
            # the last sniff-close: a fresh event, the last anchor, the last
            # bits of each side, its radio still on the last channel.
            aconn, a_radio = self.a_conn, self.a_radio
            a_event_count = self.a_event_count
            aconn.event_count = a_event_count
            aconn.events_since_anchor = 1
            aconn.last_anchor_us = self.last_t_m
            aconn.current_channel = channel
            if not self.use_csa2:
                aconn.selector._last_unmapped = self.unmapped
            for bits, (sn, nesn) in ((aconn.master_bits, self.last_m_bits),
                                     (aconn.slave_bits, self.last_s_bits)):
                bits.sn, bits.nesn, bits.seen = sn, nesn, True
            lane._current = replace(self.a_current,
                                    event_count=a_event_count,
                                    channel=channel)
            lane._silent_events = 0
            last_channel = self.last_channel
            if a_radio._rx_channel != last_channel:
                medium.note_listen(a_radio, a_radio._rx_channel, last_channel)
            a_radio._rx_channel = last_channel
            a_radio._rx_since_us = self.last_sniff_open
            pending.append((self.last_sniff_close,
                            lambda: lane._arm(channel, self.t_sniff_open,
                                              self.t_sniff_close)))

        medium._tx_seq[self.mr_tid] = self.m_seq
        medium._tx_seq[self.sr_tid] = self.s_seq
        return pending


class _TrackRun:
    """One Wi-Fi track through an engagement: its bursts, drawn ahead from
    its own stream one at a time.

    The interferer draws, at each burst event, the burst's length and
    channel (only when its radio is idle) and then the gap to its next
    burst, all from its ``wifi-{name}`` stream.  The three distributions
    interleave on that one stream, so each burst is drawn in turn; the
    bit-generator state before each burst is kept, so bursts drawn past
    the end of the engagement are undrawn exactly.  Those bursts are what
    the reference path then draws itself, so the engine keeps them for the
    track's next engagement, which takes them over if the stream is still
    where they begin.
    """

    __slots__ = ("engine", "interferer", "event", "rng", "radio", "tid",
                 "owner", "channels", "mean_burst", "mean_gap", "drawn",
                 "next_us", "tx_until", "next_state", "at_end",
                 "committed", "seq", "last_us", "last_created", "sent")

    def __init__(self, engine: "QuietCycleEngine",
                 interferer: "WifiInterferer", event: Event, owner: int):
        self.engine = engine
        self.interferer = interferer
        self.event = event
        self.owner = owner
        self.rng = interferer._rng
        radio = self.radio = interferer.radio
        self.tid = radio.medium_id
        self.channels = interferer.channels
        self.mean_burst = interferer.mean_burst_us
        duty = interferer.duty_cycle
        self.mean_gap = interferer.mean_burst_us * (1.0 - duty) / duty
        #: (time, end or None when the radio was busy, channel, PDU
        #: length, next burst time, stream state before the draws, air
        #: time).
        self.drawn: list = []
        self.next_us = event.time_us
        self.tx_until = radio._tx_until_us
        #: The stream state after the last drawn burst, and whether the
        #: stream is there now.
        self.next_state = None
        self.at_end = True
        ahead = engine._ahead.pop(interferer, None)
        if ahead is not None:
            drawn, next_us, tx_until, next_state = ahead
            while drawn and drawn[0][0] < event.time_us:
                drawn = drawn[1:]
            first_us, state = (drawn[0][0], drawn[0][5]) if drawn \
                else (next_us, next_state)
            if abs(first_us - event.time_us) <= TIME_EPS_US \
                    and state == self.rng.bit_generator.state:
                self.drawn, self.next_us, self.tx_until = \
                    drawn, next_us, tx_until
                self.next_state, self.at_end = next_state, not drawn
        self.committed = 0
        self.seq = engine.medium._tx_seq.get(self.tid, 0)
        self.last_us = self.last_created = 0.0
        self.sent = 0

    def draw_until(self, horizon_us: float) -> None:
        """Draw every burst due before ``horizon_us``."""
        rng, channels = self.rng, self.channels
        drawn = self.drawn
        t = self.next_us
        if t >= horizon_us:
            return
        if not self.at_end:
            rng.bit_generator.state = self.next_state
            self.at_end = True
        tx_until = self.tx_until
        while t < horizon_us:
            state = rng.bit_generator.state
            end = None
            channel = pdu_len = 0
            duration = 0.0
            if not tx_until > t + TIME_EPS_US:
                length_us = max(40.0, float(rng.exponential(self.mean_burst)))
                pdu_len = min(250, max(1, int(length_us / 8.0) - 8))
                # Generator.choice over a sequence draws exactly one
                # integers(0, len) from the stream.
                channel = int(channels[int(rng.integers(0, len(channels)))])
                duration = air_time_us(pdu_len, PhyMode.LE_1M)
                end = tx_until = t + duration
            gap = float(rng.exponential(self.mean_gap))
            after = t + max(gap, 1.0)
            drawn.append((t, end, channel, pdu_len, after, state, duration))
            t = after
        self.next_us = t
        self.tx_until = tx_until
        self.next_state = rng.bit_generator.state

    def due_before(self, horizon_us: float) -> int:
        """Bursts (drawn and not yet committed) firing before the
        horizon."""
        drawn = self.drawn
        count = 0
        while count < len(drawn) and drawn[count][0] < horizon_us:
            count += 1
        return count

    def cross(self, count: int, crossing: _Crossing) -> None:
        """Hand the first ``count`` uncommitted bursts to the cross-link
        checks."""
        bursts = self.drawn[:count]
        sent = [b for b in bursts if b[1] is not None]
        ends = [b[1] for b in sent]
        starts = [b[0] for b in sent]
        crossing.frames([b[2] for b in sent], starts, ends,
                        np.arange(len(sent)) + self.seq, self.radio,
                        self.owner, 0)
        crossing.events(self.owner, [b[0] for b in bursts], ends)

    def straddles(self, count: int, horizon_us: float) -> Optional[float]:
        """The start of the first of ``count`` bursts still on air at the
        horizon (a busy radio skips bursts, so it need not be the last),
        else ``None``."""
        for t, end, *_ in self.drawn[:count]:
            if end is not None and end >= horizon_us:
                return t
        return None

    def events_in(self, count: int) -> int:
        """Simulator events the first ``count`` bursts fire: the burst and,
        for a sent one, its medium-finish."""
        return sum(1 if b[1] is None else 2 for b in self.drawn[:count])

    def commit(self, count: int, ids: list, sink, retained: list,
               contacts: dict) -> None:
        """Emit the first ``count`` drawn bursts with the given frame ids
        (one per sent burst, in order) and absorb their inert
        ``contacts``."""
        engine = self.engine
        medium = engine.medium
        bursts, self.drawn = self.drawn[:count], self.drawn[count:]
        name = self.radio.name
        sent = 0
        seq = self.seq
        heard = engine._absorb(contacts, self.radio, seq, len(ids))
        out = None
        if heard and sink.enabled:
            # A burst's end records may fall after the next burst's start;
            # sort this block's records by time before handing them on.
            out, sink = sink, Trace()
        for t, end, channel, pdu_len, _after, _state, _dur in bursts:
            if end is not None:
                frame_id = ids[sent]
                listeners = heard.get(sent, ())
                if sink.enabled:
                    for tid, power in listeners:
                        sink.record(t, medium._transceivers[tid].name,
                                    "rx-lock", frame_id=frame_id,
                                    channel=channel, rssi_dbm=power)
                    sink.record(t, name, "tx", channel=channel,
                                aa=NOISE_ACCESS_ADDRESS, pdu_len=pdu_len,
                                frame_id=frame_id)
                    for tid, power in listeners:
                        sink.record(end, medium._transceivers[tid].name,
                                    "rx", frame_id=frame_id,
                                    corrupted=False, rssi_dbm=power)
                retained.append((end, frame_id, t, channel, bytes(pdu_len),
                                 0, listeners, self.radio, seq + sent,
                                 NOISE_ACCESS_ADDRESS, PhyMode.LE_1M))
                sent += 1
                self.radio._tx_until_us = end
                self.last_us = end
            else:
                self.last_us = max(self.last_us, t)
            self.last_created = t
        if out is not None:
            out._records.extend(sorted(sink._records, key=_TIME))
        if medium._metrics.enabled:
            medium._m_tx.inc(sent)
        self.seq += sent
        self.sent += sent
        self.committed += count

    def sent_frames(self, count: int) -> list:
        """``(start, channel, duration)`` of the sent bursts among the first
        ``count``."""
        return [(t, channel, duration)
                for t, end, channel, _, _, _, duration in self.drawn[:count]
                if end is not None]

    def write_back(self) -> list:
        """Leave the stream before the first uncommitted burst, keep the
        bursts drawn past it for the next engagement, and hand the track
        back; returns its burst event to recreate, as
        :meth:`_LinkRun.write_back` does."""
        drawn = self.drawn
        if drawn:
            self.rng.bit_generator.state = drawn[0][5]
            self.engine._ahead[self.interferer] = (
                drawn, self.next_us, self.tx_until, self.next_state)
        elif not self.at_end:
            self.rng.bit_generator.state = self.next_state
        if not self.committed:
            return []
        interferer, sim = self.interferer, self.engine.sim
        self.event.cancel()
        interferer.bursts_sent += self.sent
        self.engine.medium._tx_seq[self.tid] = self.seq
        next_us = drawn[0][0] if drawn else self.next_us
        return [(self.last_created,
                 lambda: sim.schedule_at(next_us, interferer._burst,
                                         "wifi-burst"))]


class QuietCycleEngine:
    """Closed-form block execution of quiet Master/Slave poll cycles, for
    every link and Wi-Fi track a world registers.

    Installed on a :class:`~repro.sim.simulator.Simulator` via
    :meth:`~repro.sim.simulator.Simulator.install_fast_forward`; the run
    loop consults :meth:`advance` once per iteration.  The engine is
    default-closed: every condition it cannot prove is a disengage, and the
    cycle in question consumes no RNG draw or frame id.  With metrics
    enabled, each disengage counts as ``ff.disengage.<reason>``, each
    engagement's end as ``ff.cut.<rule>`` (``overlap``, ``listener``,
    ``tie``, ``link-bail`` or ``horizon``) and each absorbed contact as
    ``ff.contact.inert``.
    """

    __slots__ = ("sim", "medium", "links", "tracks", "_owners", "_base",
                 "_followers", "_live_counts", "_ahead", "_metrics",
                 "_m_counters", "_pdu_cache", "_csa1_tables", "_audible",
                 "_audible_version")

    def __init__(self, sim: Simulator, medium: Medium,
                 links: Sequence[tuple] = ()):
        self.sim = sim
        self.medium = medium
        self.links: list[_Link] = []
        self.tracks: list = []
        # queued event handler (or label) -> (link or track index, role)
        self._owners: dict = {}
        # Live events of the steady state: 3 per link and 1 per track,
        # plus 2 per following follower.
        self._base = 0
        self._followers = 0
        self._live_counts = frozenset((0,))
        #: Per track, the bursts its last engagement drew past its end.
        self._ahead: dict = {}
        self._metrics = sim.metrics
        self._m_counters: dict = {}
        # (llid, md, sn, nesn, crc_init) -> (pdu_bytes, crc)
        self._pdu_cache: dict = {}
        # channel map -> CSA#1 unmapped-index table
        self._csa1_tables: dict = {}
        # (sender id, listener id) -> whether the listener is not provably
        # deaf to the sender; valid for one topology version.
        self._audible: dict = {}
        self._audible_version = -1
        for link in links:
            self.add_link(*link)

    def add_link(self, master: "MasterLinkLayer", slave: "SlaveLinkLayer",
                 follower: Optional["ConnectionSniffer"] = None) -> None:
        """Register a (master, slave) link and its follower, if any.  A
        registered link that is not connected keeps the engine off."""
        index = len(self.links)
        link = _Link(master, slave, follower)
        self.links.append(link)
        owners = self._owners
        owners[master._connection_event] = (index, _MASTER)
        owners[slave._window_timeout] = (index, _CLOSE)
        owners[link.wo_label] = (index, _OPEN)
        self._base += 3
        if follower is not None:
            owners[follower._listen_if_following] = (index, _SNIFF_OPEN)
            owners[follower._event_window_closed] = (index, _SNIFF_CLOSE)
            self._followers += 1
        self._count_live()

    def add_track(self, interferer: "WifiInterferer") -> None:
        """Register a Wi-Fi interferer as a track."""
        self._owners[interferer._burst] = (len(self.tracks), _BURST)
        self.tracks.append(interferer)
        self._base += 1
        self._count_live()

    def _count_live(self) -> None:
        self._live_counts = frozenset(self._base + 2 * following
                                      for following in range(
                                          self._followers + 1))

    def _stand_down(self, reason: str) -> None:
        """Count one disengage as ``ff.disengage.<reason>``; callers check
        ``metrics.enabled`` first, so a bare run never gets here.

        A registered link that is not connected (still advertising, or
        dead) has no trio queued, so the world fails the live count or the
        between-cycles check for as long as it stays down; those exits
        count as ``link-not-connected``.
        """
        if reason in _MAYBE_DOWN and any(map(self._link_down, self.links)):
            reason = "link-not-connected"
        self._count(f"disengage.{reason}")

    def _count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the ``ff.<name>`` counter, bound on first use;
        callers check ``metrics.enabled`` first."""
        metrics = self._metrics
        if metrics.enabled:
            counter = self._m_counters.get(name)
            if counter is None:
                counter = self._m_counters[name] = metrics.counter(
                    f"ff.{name}")
            counter.inc(n)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def advance(self, until_us: Optional[float], budget: int) -> int:
        """Fast-forward as many quiet cycles as provable; 0 if none.

        Called by the run loop before every event pop.  Must be cheap when
        the world is not in fast-forwardable shape: the first check is an
        O(1) live-event count against the registered links and tracks.
        """
        queue = self.sim._queue
        if queue._live not in self._live_counts:
            if self._metrics.enabled:
                self._stand_down("live-count")
            return 0
        if budget < 6:
            reason = "budget"
        else:
            queued = self._classify(queue, queue._live - self._base)
            if isinstance(queued, str):
                reason = queued
            else:
                reason = self._ineligible(*queued)
                if reason is None:
                    fired = self._run(queued, until_us, budget)
                    if fired:
                        return fired
                    reason = "next-cycle"
        if self._metrics.enabled:
            self._stand_down(reason)
        return 0

    def _classify(self, queue, extra: int):
        """Match the live events against each link's trio and follower
        pair and each track's burst.

        Returns ``(slots, bursts)`` — per link ``[window-open,
        window-close, master event, sniff-open, sniff-close]``, the last
        two ``None`` for a link whose follower is not following; per track
        its burst event — or a disengage reason.
        """
        links = self.links
        if not links and not self.tracks:
            return "unclassified"
        for link in links:
            # Between cycles, a Slave's window-close is always queued and
            # the Master awaits no response.
            window_close = link.slave._window_close
            if window_close is None or window_close._queue is None \
                    or link.master._awaiting_response:
                return "link-in-event"
        slots = [[None] * 5 for _ in links]
        bursts: list = [None] * len(self.tracks)
        owners = self._owners
        for entry in queue._heap:
            event = entry[2]
            if event._queue is None:
                continue
            handler = event.handler
            owner = owners.get(handler)
            if owner is None:
                # A follower's sniff-open is a partial; a window-open a
                # closure, known by its label.
                owner = owners.get(getattr(handler, "func", event.label))
                if owner is None:
                    return "unclassified"
            index, role = owner
            if role == _BURST:
                if bursts[index] is not None:
                    return "unclassified"
                bursts[index] = event
                continue
            if role >= _SNIFF_OPEN and not extra:
                return "unclassified"  # no follower is due to follow
            slot = slots[index]
            if slot[role] is not None:
                return "unclassified"
            slot[role] = event
        following = 0
        for link, slot in zip(links, slots):
            if slot[_OPEN] is None or slot[_MASTER] is None \
                    or slot[_CLOSE] is not link.slave._window_close:
                return "link-not-connected"
            if (slot[_SNIFF_OPEN] is None) != (slot[_SNIFF_CLOSE] is None):
                return "unclassified"
            following += slot[_SNIFF_OPEN] is not None
        if 2 * following != extra or None in bursts:
            return "unclassified"
        return slots, bursts

    # ------------------------------------------------------------------
    # Eligibility (static per engagement; default-closed)
    # ------------------------------------------------------------------

    def _mean_loss(self, sender: "Transceiver",
                   receiver: "Transceiver") -> float:
        """Mean path loss from ``sender`` to ``receiver``, in dB, as the
        medium computes (and caches) it."""
        return self.medium._path_to(sender, receiver.medium_id)[2]

    def _is_audible(self, sender: "Transceiver",
                    listener: "Transceiver") -> bool:
        """Whether ``listener`` is not provably deaf to ``sender``: the
        medium's pruning rule (mean power + 8 sigma >= floor)."""
        medium = self.medium
        version = medium.topology.version
        if version != self._audible_version:
            self._audible.clear()
            self._audible_version = version
        key = (sender.medium_id, listener.medium_id)
        audible = self._audible.get(key)
        if audible is None:
            margin = _LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
            floor = max(medium.sensitivity_dbm, listener.sensitivity_dbm)
            audible = self._audible[key] = (
                sender.tx_power_dbm - self._mean_loss(sender, listener)
                + margin >= floor)
        return audible

    def _heard(self, sender: "Transceiver", seq: int,
               listener: "Transceiver") -> bool:
        """Whether ``listener`` would lock onto ``sender``'s ``seq``-th
        transmission were it listening: not provably deaf, and its
        shadowing draw (a pure function of link and index, so peeking it
        now and leaving it for the medium changes nothing) reaching the
        floor."""
        if not self._is_audible(sender, listener):
            return False
        medium = self.medium
        loss = self._mean_loss(sender, listener)
        if medium.path_loss.shadowing_sigma_db > 0.0:
            shadow = medium._link_shadow(sender, listener.medium_id)
            draw = shadow.take(seq, 1)
            shadow.give_back(seq, draw)
            loss += float(draw[0])
        return sender.tx_power_dbm - loss \
            >= max(medium.sensitivity_dbm, listener.sensitivity_dbm)

    def _ineligible(self, slots, bursts) -> Optional[str]:
        """Why the world cannot be fast-forwarded now, or ``None``."""
        medium = self.medium
        # Medium must be silent: no frame in flight, no receiver locked,
        # and no tap that reads more than airtime.
        if medium._active or medium._locks:
            return "medium-busy"
        for tap in medium._taps:
            if not getattr(tap, "airtime_only", False):
                return "tap-not-airtime"
        engaged = set()
        # Links with a following follower first: an attack in progress
        # (a sniffer with a callback) is the commonest veto.
        for link, slot in sorted(zip(self.links, slots),
                                 key=lambda pair: pair[1][_SNIFF_OPEN] is None):
            lane = link.follower if slot[_SNIFF_OPEN] is not None else None
            reason = self._link_reason(link)
            if reason is None and lane is not None:
                reason = self._follower_reason(link, lane, slot[_SNIFF_OPEN])
            if reason is not None:
                return reason
            engaged.add(link.master.radio)
            engaged.add(link.slave.radio)
            if lane is not None:
                engaged.add(lane.radio)
        for interferer in self.tracks:
            if not interferer._running \
                    or interferer.radio.on_tx_complete is not None:
                return "track-stopped"
            engaged.add(interferer.radio)
        # Every other transceiver stays idle while nothing else runs.
        now = self.sim.now
        for rx in medium._transceivers.values():
            if rx in engaged:
                continue
            if rx._rx_channel is not None or rx.is_transmitting(at_us=now):
                return "foreign-listener"
        return None

    @staticmethod
    def _link_down(link: _Link) -> bool:
        """Whether a registered link is not connected: not yet established,
        or terminated."""
        master, slave = link.master, link.slave
        if master.state is not MasterState.CONNECTED or not master.is_connected:
            return True
        if slave.state is not SlaveState.CONNECTED or not slave.is_connected:
            return True
        mconn, sconn = master.conn, slave.conn
        return not (mconn.established and sconn.established) \
            or mconn.terminated or sconn.terminated

    def _link_reason(self, link: _Link) -> Optional[str]:
        """Why one link's steady state cannot be replayed, or ``None``."""
        master, slave, medium = link.master, link.slave, self.medium
        if self._link_down(link):
            return "link-not-connected"
        mconn, sconn = master.conn, slave.conn
        if master._awaiting_response:
            return "link-busy"
        if master._tx_queue or slave._tx_queue:
            return "link-busy"
        if slave._terminate_after_response is not None:
            return "link-busy"
        if master._pending_encryption is not None \
                or slave._pending_encryption is not None:
            return "link-busy"
        if master.encryption is not None or slave.encryption is not None:
            return "link-encrypted"
        for conn in (mconn, sconn):
            if conn.pending_update is not None \
                    or conn.pending_channel_map is not None \
                    or conn.pending_phy is not None:
                return "link-busy"
            if not self._retransmit_state_ok(conn):
                return "link-busy"
            if conn.last_valid_rx_local_us is None:
                return "link-out-of-step"
        if slave._anchor_local is None or slave._events_since_anchor != 1:
            return "link-out-of-step"
        if master._anchor_local is None:
            return "link-out-of-step"
        mp, sp = mconn.params, sconn.params
        if (mp.access_address != sp.access_address
                or mp.crc_init != sp.crc_init
                or mp.interval != sp.interval
                or mp.use_csa2 != sp.use_csa2
                or mp.master_sca_ppm != sp.master_sca_ppm):
            return "link-out-of-step"
        if mconn.event_count != sconn.event_count:
            return "link-out-of-step"
        mr, sr = master.radio, slave.radio
        if master.phy is not slave.phy:
            return "link-out-of-step"
        if mr.rx_phy is not master.phy or sr.rx_phy is not slave.phy:
            return "link-out-of-step"
        if mp.interval_us < 2_000.0 or mp.timeout_us < 5_000.0:
            return "link-out-of-step"
        # The next window must open strictly after the previous response
        # frame ends; bound the widening so it provably cannot reach back.
        drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        widening = slave.widening_scale * (
            drift_k * mp.interval_us + WINDOW_WIDENING_CONSTANT_US)
        if widening >= 0.25 * mp.interval_us:
            return "link-out-of-step"
        if not self._channels_lockstep(mconn, sconn):
            return "link-out-of-step"
        if mr._rx_channel is not None or sr._rx_channel is not None:
            return "link-radio-busy"
        if mr.on_tx_complete is not None or sr.on_tx_complete is not None:
            return "link-radio-busy"
        # Both links need enough margin that shadowing can never fade a
        # frame below the sensitivity floor (hard-checked per draw anyway).
        margin = _LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        if mr.tx_power_dbm - self._mean_loss(mr, sr) - floor_s <= margin:
            return "link-margin"
        if sr.tx_power_dbm - self._mean_loss(sr, mr) - floor_m <= margin:
            return "link-margin"
        return None

    def _follower_reason(self, link: _Link, lane: "ConnectionSniffer",
                         ev_sniff_open) -> Optional[str]:
        """The follower must be a callback-free passive listener, in step
        with the victims' hop sequence and not provably deaf to them."""
        if not lane.following or lane.paused or lane.on_event is not None:
            return "follower-not-passive"
        conn, current = lane.connection, lane._current
        if conn is None or not conn.alive or conn.last_anchor_us is None:
            return "follower-not-passive"
        if current is None or current.anchor_us is not None:
            return "follower-out-of-step"
        if conn._pending_update is not None \
                or conn._pending_channel_map is not None \
                or conn._pending_phy is not None:
            return "follower-out-of-step"
        master = link.master
        mp, sconn = master.conn.params, link.slave.conn
        if conn.params.access_address != mp.access_address \
                or conn.params.crc_init != mp.crc_init:
            return "follower-out-of-step"
        if conn.phy is not master.phy:
            return "follower-out-of-step"
        channel = conn.current_channel
        if channel != sconn.current_channel \
                or ev_sniff_open.handler.args != (channel,):
            return "follower-out-of-step"
        a_sel, s_sel = conn.selector, sconn.selector
        if conn._selector_is_csa2 != sconn._selector_is_csa2 \
                or a_sel._channel_map != s_sel._channel_map:
            return "follower-out-of-step"
        if sconn._selector_is_csa2:
            if a_sel._ch_id != s_sel._ch_id \
                    or conn.event_count != sconn.event_count:
                return "follower-out-of-step"
        elif a_sel.hop_increment != s_sel.hop_increment \
                or a_sel._last_unmapped != s_sel._last_unmapped:
            return "follower-out-of-step"
        radio = lane.radio
        if radio.on_frame != lane._on_follow_frame \
                or radio.rx_phy is not conn.phy \
                or radio.is_transmitting(at_us=self.sim.now):
            return "follower-out-of-step"
        # Not provably deaf to either victim: the medium then draws the
        # follower's shadowing for every frame, as the kernel does.
        if not (self._is_audible(master.radio, radio)
                and self._is_audible(link.slave.radio, radio)):
            return "follower-deaf"
        return None

    @staticmethod
    def _retransmit_state_ok(conn) -> bool:
        """The last sent PDU must be replayable as an empty-PDU cycle."""
        last = conn._last_sent
        if last is None:
            return True
        header = last.header
        return header.length == 0 and int(header.llid) != _LLID_CONTROL

    @staticmethod
    def _channels_lockstep(mconn, sconn) -> bool:
        """Both selectors must produce the shared hop sequence in lockstep.

        The Slave runs one selector step ahead (it advances when scheduling
        the window, the Master when the event fires), so the Master's
        unmapped index plus one hop must land on the Slave's.
        """
        m_sel, s_sel = mconn.selector, sconn.selector
        if sconn.current_channel is None:
            return False
        if mconn.params.use_csa2:
            if not (sconn._selector_is_csa2 and mconn._selector_is_csa2):
                return False
            if m_sel._ch_id != s_sel._ch_id:
                return False
            if m_sel._channel_map != s_sel._channel_map:
                return False
            return s_sel.channel_for_event(sconn.event_count) \
                == sconn.current_channel
        if sconn._selector_is_csa2 or mconn._selector_is_csa2:
            return False
        if m_sel.hop_increment != s_sel.hop_increment:
            return False
        if m_sel._channel_map != s_sel._channel_map:
            return False
        hop = s_sel.hop_increment
        if (m_sel._last_unmapped + hop) % NUM_DATA_CHANNELS \
                != s_sel._last_unmapped:
            return False
        return s_sel._map(s_sel._last_unmapped) == sconn.current_channel

    # ------------------------------------------------------------------
    # Memoised tables
    # ------------------------------------------------------------------

    def _pdu_bytes(self, llid: int, md: int, sn: int, nesn: int,
                   crc_init: int):
        """Header bytes + CRC of an empty data PDU, memoised."""
        key = (llid, md, sn, nesn, crc_init)
        hit = self._pdu_cache.get(key)
        if hit is None:
            byte0 = llid | (nesn << 2) | (sn << 3) | (md << 4)
            pdu = bytes((byte0, 0))
            hit = (pdu, compute_crc(pdu, crc_init))
            self._pdu_cache[key] = hit
        return hit

    def _csa1_table(self, selector) -> np.ndarray:
        """CSA#1 unmapped index -> channel, memoised per channel map."""
        table = self._csa1_tables.get(selector._channel_map)
        if table is None:
            table = np.array([selector._map(unmapped)
                              for unmapped in range(NUM_DATA_CHANNELS)])
            self._csa1_tables[selector._channel_map] = table
        return table

    # ------------------------------------------------------------------
    # The block kernel
    # ------------------------------------------------------------------

    def _run(self, queued, until_us: Optional[float], budget: int) -> int:
        slots, bursts = queued
        sim, medium = self.sim, self.medium
        runs = [_LinkRun(self, link, slot, slot[_SNIFF_OPEN] is not None,
                         index)
                for index, (link, slot) in enumerate(zip(self.links, slots))]
        if any(run.next_cycle_bails(until_us) for run in runs):
            return 0
        for run in runs:
            run.prepare()
        tracks = [_TrackRun(self, interferer, event, len(runs) + index)
                  for index, (interferer, event)
                  in enumerate(zip(self.tracks, bursts))]
        credit = medium._metrics.enabled or bool(medium._taps)
        trace = sim.trace
        retained: list = []
        fired = 0
        total = _FIRST_BLOCK_CYCLES
        rate = sum(1.0 / run.period_us for run in runs)

        while True:
            # -- 1. speculate: a block of cycles per link, spread by event
            #    rate, within the budget and the horizon ----------------
            room = (budget - fired) // max(1, len(runs))
            span_us = total / rate if rate else total * 1_000.0
            for run in runs:
                n = max(1, int(span_us / run.period_us))
                n = min(n, room // (run.per_cycle + 1))
                if until_us is not None:
                    n = min(n, int((until_us - run.t_master)
                                   / run.period_us) + 2)
                if n < 1:
                    run.k, run.bailed, run.late = 0, True, True
                    continue
                run.speculate(n, until_us)
            total = min(8 * total, _BLOCK_CYCLES)

            # -- 2. the first cycle any source, or any interaction between
            #    sources, leaves to the reference path --------------------
            horizon, stop, counts, sent, contacts = self._block_horizon(
                runs, tracks, until_us, span_us)
            events = sum(run.events_in(c) for run, c in zip(runs, counts)) \
                + sum(track.events_in(c) for track, c in zip(tracks, sent))
            if not events or fired + events > budget:
                for run in runs:
                    run.cut(0)
                if events or stop is None:
                    stop = "horizon"  # the event budget
                break

            # -- 3. frame ids in start order across every source --------
            starts, channels, durations = [], [], []
            for run, c in zip(runs, counts):
                run.cut(c)
                if c:
                    starts += [run.t_m[:c], run.t_resp[:c]]
                    link_ch = run.channels[:c]
                    channels += [link_ch, link_ch]
                    durations.append(np.full(2 * c, run.frame_dur))
            sent_bursts = [track.sent_frames(c)
                           for track, c in zip(tracks, sent)]
            for frames in sent_bursts:
                if frames:
                    start, chan, duration = zip(*frames)
                    starts.append(np.array(start))
                    channels.append(chan)
                    durations.append(np.array(duration))
            # (A block of busy-skipped bursts alone sends no frame.)
            order = np.argsort(np.concatenate(starts), kind="stable") \
                if starts else np.empty(0, dtype=np.int64)
            ids = np.empty(len(order), dtype=np.int64)
            if len(order):
                ids[order] = _take_frame_ids(len(order)) \
                    + np.arange(len(order), dtype=np.int64)
            ids_list = ids.tolist()
            if credit and len(order):
                ch_all = [ch for block in channels for ch in block]
                self._credit_airtime(
                    [ch_all[i] for i in order.tolist()],
                    np.concatenate(durations)[order].tolist())

            # -- 4. commit, each source into its own record buffer when
            #    several sources' records must be merged by time ----------
            merge = trace.enabled \
                and sum(map(bool, counts)) + sum(map(bool, sent)) > 1
            sinks = []
            offset = 0
            for run, c in zip(runs, counts):
                if not c:
                    continue
                sink = Trace() if merge else trace
                sinks.append(sink)
                run.commit(ids_list[offset:offset + c],
                           ids_list[offset + c:offset + 2 * c],
                           sink, retained, contacts)
                offset += 2 * c
            for track, c, frames in zip(tracks, sent, sent_bursts):
                if not c:
                    continue
                n_sent = len(frames)
                sink = Trace() if merge else trace
                sinks.append(sink)
                track.commit(c, ids_list[offset:offset + n_sent], sink,
                             retained, contacts)
                offset += n_sent
            if merge:
                trace._records.extend(heapq.merge(
                    *(sink._records for sink in sinks), key=_TIME))
            fired += events
            prune_before = horizon - _RECENT_HORIZON_US
            retained = [frame for frame in retained
                        if frame[0] >= prune_before]
            if stop is not None:
                break
            bails = [run for run in runs if run.next_cycle_bails(until_us)]
            if bails:
                stop = "link-bail"
                if self._metrics.enabled and not any(
                        run.next_cycle_bails(None) for run in bails):
                    stop = "horizon"
                break

        # ------------------------------------------------------------------
        # Materialise: write the end-of-stretch state back so the reference
        # engine resumes as if it had executed every cycle itself.
        # ------------------------------------------------------------------
        for run in runs:
            run.unwind()
        pending: list = []
        last_us = sim._now
        for run in runs:
            if run.committed:
                pending += run.write_back()
                last_us = max(last_us, run.last_event_us())
        for track in tracks:
            pending += track.write_back()
            if track.committed:
                last_us = max(last_us, track.last_us)
        if not fired:
            return 0
        if self._metrics.enabled:
            self._count(f"cut.{stop}")
        sim._now = last_us
        # Recreate the queued events in the order the reference created
        # them, so time ties break identically.
        pending.sort(key=lambda entry: entry[0])
        for _created, schedule in pending:
            schedule()
        retained.sort(key=lambda frame: frame[0])
        for _end, frame_id, start, frame_ch, pdu_bytes, crc, powers, sender, \
                seq, aa, phy in retained:
            frame = RadioFrame(
                access_address=aa, pdu=pdu_bytes, crc=crc, channel=frame_ch,
                start_us=start, tx_power_dbm=sender.tx_power_dbm, phy=phy,
                sender_id=sender.medium_id, frame_id=frame_id)
            transmission = _ActiveTransmission(frame, sender, seq)
            transmission.rx_power_dbm.update(powers)
            medium._append_recent(transmission)

        global _events_fast_forwarded
        _events_fast_forwarded += fired
        return fired

    # ------------------------------------------------------------------
    # Cross-link cuts
    # ------------------------------------------------------------------

    def _block_horizon(self, runs: list, tracks: list,
                        until_us: Optional[float], span_us: float):
        """The time before which every source's speculated block commits,
        the rule that stops the engagement there (``None`` if it goes on;
        with metrics off, a link's own bail reads ``"link-bail"`` whatever
        its cause), how many cycles of each link and bursts of each track
        lie before it, and the inert contacts of the block.

        The horizon starts at the first cycle a link cannot vouch for,
        comes forward to the first cross-link interaction, and then to the
        start of any cycle or burst that would straddle it, so each source
        hands the reference path a clean between-cycles state.  A cut's
        horizon is thus the first event of a cycle the cut involves: the
        reference path leaves the steady state at once, and the engine next
        speculates only after every involved cycle has run, never twice on
        one cut.
        """
        stop = None
        bailed = [run for run in runs if run.bailed]
        if bailed:
            stop = "link-bail"
            if self._metrics.enabled and all(
                    run.past_until(until_us) for run in bailed):
                stop = "horizon"
        if runs:
            horizon = min(run.horizon_us() for run in runs)
        else:
            horizon = min(track.next_us for track in tracks) + span_us
        if until_us is not None:
            horizon = min(horizon, until_us)
        for track in tracks:
            track.draw_until(horizon)
        hit, rule, contacts = self._first_interaction(runs, tracks, horizon)
        if hit < horizon:
            horizon, stop = hit, rule
        while True:
            counts = [int(np.searchsorted(run.s, horizon)) if run.k else 0
                      for run in runs]
            sent = [track.due_before(horizon) for track in tracks]
            moved = False
            for run, c in zip(runs, counts):
                if c and run.e[c - 1] >= horizon and not self._clamp_handover(
                        run, c, horizon, runs, counts, tracks, sent):
                    horizon, moved = float(run.s[c - 1]), True
            for track, c in zip(tracks, sent):
                start = track.straddles(c, horizon)
                if start is not None:
                    horizon, moved = start, True
            if not moved:
                return horizon, stop, counts, sent, contacts

    @staticmethod
    def _clamp_handover(run: _LinkRun, c: int, horizon: float, runs: list,
                        counts: list, tracks: list, sent: list) -> bool:
        """Whether ``run``'s cycle ``c - 1``, ending at the horizon, may
        still commit: its next-master clamp binds, so its response ends at
        its own next master event (the horizon), and no other source's
        next event lies within ``TIME_EPS_US`` of it, so handing over
        there keeps every queue order."""
        if c != run.k or run.e[c - 1] > horizon \
                or run.s_after[c - 1] > horizon:
            return False
        for other, other_c in zip(runs, counts):
            if other is not run:
                next_us = float(other.s[other_c]) if other_c < other.k \
                    else other.horizon_us()
                if next_us - horizon <= TIME_EPS_US:
                    return False
        for track, track_c in zip(tracks, sent):
            drawn = track.drawn
            next_us = drawn[track_c][0] if track_c < len(drawn) \
                else track.next_us
            if next_us - horizon <= TIME_EPS_US:
                return False
        return True

    def _first_interaction(self, runs: list, tracks: list,
                           horizon: float):
        """The earliest time two sources' speculated activity before the
        horizon would meet (``inf`` if never), the rule that found it
        (``"overlap"``, ``"listener"`` or ``"tie"``; ``None`` if none did),
        and the inert contacts before it:

        * two frames overlap on one channel (any co-channel overlap with a
          delivered frame draws from ``medium-collision``);
        * a frame starts on a channel where another source's radio listens
          and is not provably deaf to its sender, unless the contact is
          inert (:meth:`_inert`);
        * two sources' events fall within ``TIME_EPS_US`` of each other,
          so queue order would decide which fires first.

        Contacts map a sender's medium id to its ``(transmission index,
        listener)`` pairs; the commits absorb those of committed frames.
        """
        contacts: dict = {}
        if len(runs) + len(tracks) < 2:
            return np.inf, None, contacts  # a lone source meets nobody
        crossing = _Crossing()
        for run in runs:
            c = int(np.searchsorted(run.s, horizon)) if run.k else 0
            if c:
                run.cross(c, crossing)
            if run.lane is not None:
                # The follower stays parked on its last channel, tuned in
                # since its last sniff-open, until its next one.
                radio = run.a_radio
                if run.committed:
                    parked, since = run.last_channel, run.last_sniff_open
                else:
                    parked, since = radio._rx_channel, radio._rx_since_us
                if parked is not None:
                    crossing.windows([parked], [since], [run.t_sniff_open],
                                     radio, run.owner)
        for track in tracks:
            c = track.due_before(horizon)
            if c:
                track.cross(c, crossing)
        if not crossing.f_sender:
            return np.inf, None, contacts
        hit, rule = np.inf, None
        expand = crossing.expand
        fch, fs, fe, f_seq = (np.concatenate(column)
                              for column in crossing.f_cols)
        f_sender, f_owner, own_all = (
            expand(column) for column in (crossing.f_sender,
                                          crossing.f_owner, crossing.f_own))
        # Intervals are compared through (channel, time) keys: the time
        # relative to the block plus a channel stride wider than the block,
        # so one sorted array serves every channel.  Keys round, so each
        # comparison is widened by a slack: a near miss may be flagged (and
        # is then checked exactly, or costs a needless cut), a hit never
        # slips through.
        windows = bool(crossing.w_owner)
        t_end = float(fe.max())
        if windows:
            wch, ws, we = (np.concatenate(column)
                           for column in crossing.w_cols)
            t_end = max(t_end, float(we.max()))
        t0 = float(fs.min())
        stride = 4.0 * (t_end - t0 + 1.0)
        slack = 64.0 * float(np.spacing(41.0 * stride)) + TIME_EPS_US

        def keys(channels, times):
            return channels * stride + (np.maximum(times, t0 - 1.0) - t0)

        s_key, e_key = keys(fch, fs), keys(fch, fe)
        # Whether each frame overlaps (or all but touches) another on its
        # channel: an inert contact must be alone on air.
        crowded = np.zeros(len(fs), dtype=bool)
        if len(fs) > 1:
            # In (channel, start) order, a frame overlaps an earlier one
            # when the running maximum end before it passes its start;
            # only a delivered frame's collision resolution draws, so
            # track the delivered frames' ends apart.
            order = np.argsort(s_key, kind="stable")
            starts = s_key[order] - slack
            ends = e_key[order]
            delivered = own_all[order] > 0  # link frames; bursts are not
            before = np.maximum.accumulate(ends)[:-1]
            before_delivered = np.maximum.accumulate(
                np.where(delivered, ends, -np.inf))[:-1]
            after = before > starts[1:]
            overlap = (delivered[1:] & after) \
                | (before_delivered > starts[1:])
            if overlap.any():
                # The other frame of the pair may start first; the
                # horizon's straddle rule then pulls back to it.
                hit, rule = float(fs[order][1:][overlap].min()), "overlap"
            # A frame that overlaps a later one also overlaps the next one
            # in that order, which starts first among them; so flagging
            # each overlapping frame and the one before it in that order
            # flags every crowded frame (and, rarely, a lone one too).
            crowded[order[1:]] = after
            crowded[order[:-1]] |= after
        if windows:
            w_listener = expand(crossing.w_listener)
            w_owner = expand(crossing.w_owner)
            lo, hi = ws - TIME_EPS_US, we + TIME_EPS_US
            # Count the windows open on each frame's channel at its start.
            inside = np.searchsorted(np.sort(keys(wch, lo)), s_key + slack,
                                     "right") \
                - np.searchsorted(np.sort(keys(wch, hi)), s_key - slack,
                                  "left")
            candidates = np.flatnonzero(inside > own_all)
            if len(candidates):
                radios = list(crossing.radios)
                for i in candidates[np.argsort(fs[candidates])].tolist():
                    start = fs[i]
                    if start >= hit:
                        break
                    sender = radios[int(f_sender[i])]
                    seq = int(f_seq[i])
                    foreign = np.flatnonzero(
                        (wch == fch[i]) & (lo <= start) & (start <= hi)
                        & (w_owner != f_owner[i])).tolist()
                    heard = [j for j in foreign
                             if self._heard(sender, seq,
                                            radios[int(w_listener[j])])]
                    if not heard:
                        continue
                    if crowded[i] or not all(
                            self._inert(runs, int(f_owner[i]), float(start),
                                        float(fe[i]),
                                        radios[int(w_listener[j])],
                                        int(w_owner[j]), float(ws[j]),
                                        float(we[j]))
                            for j in heard):
                        hit, rule = float(start), "listener"
                        break
                    contacts.setdefault(sender.medium_id, []).extend(
                        (seq, listener) for listener in dict.fromkeys(
                            radios[int(w_listener[j])] for j in heard))
        times = np.concatenate(crossing.e_times)
        order = np.argsort(times, kind="stable")
        t_sorted = times[order]
        o_sorted = expand(crossing.e_owner)[order]
        tie = (np.diff(t_sorted) <= TIME_EPS_US) \
            & (o_sorted[1:] != o_sorted[:-1])
        if tie.any():
            first_tie = float(t_sorted[:-1][tie].min())
            if first_tie < hit:
                hit, rule = first_tie, "tie"
        return hit, rule, contacts

    @staticmethod
    def _inert(runs: list, sender_owner: int, start: float,
               end: float, listener: "Transceiver", owner: int,
               opened: float, closes: float) -> bool:
        """Whether a frame of source ``sender_owner`` on air from ``start``
        to ``end``, heard by ``listener`` of link ``owner`` in its window
        from ``opened`` to ``closes``, is an inert contact: the listener
        locks onto it and its handler drops it at the access-address check.

        That holds when the frame carries another access address, the
        listener tuned in before it started and stays on the channel past
        its end (so no window close, retune or frame it wants finds it
        locked), and it demodulates the frame's PHY through the link's own
        handler.  The caller has checked that no other frame of the block
        overlaps it, so the lock draws nothing from ``medium-collision``.
        """
        run = runs[owner]
        if sender_owner < len(runs):
            sent = runs[sender_owner]
            aa, phy = sent.aa, sent.phy
        else:
            aa, phy = NOISE_ACCESS_ADDRESS, PhyMode.LE_1M
        if aa == run.aa or listener.rx_phy is not phy:
            return False
        if not (opened + TIME_EPS_US < start and end < closes - TIME_EPS_US):
            return False
        if listener is run.sr:
            handler = run.slave._on_frame
        elif listener is run.mr:
            handler = run.master._on_frame
        else:
            handler = run.lane._on_follow_frame
        return listener.on_frame == handler

    # ------------------------------------------------------------------
    # Inert contacts
    # ------------------------------------------------------------------

    def _absorb(self, contacts: dict, sender: "Transceiver", first: int,
                count: int) -> dict:
        """Commit the inert contacts of ``sender``'s transmissions
        ``first .. first + count - 1``: each listener's shadowing draw
        taken as the medium's ``_power_at`` takes it, and one
        ``medium.rx``.  Returns, per transmission offset, its listeners'
        ``(medium id, received power)`` pairs in ascending medium id (the
        order the medium locks and delivers in), for the trace and the
        recent window."""
        heard: dict = {}
        mine = contacts.get(sender.medium_id)
        if not mine:
            return heard
        medium = self.medium
        shadowed = medium.path_loss.shadowing_sigma_db > 0.0
        for seq, listener in mine:
            offset = seq - first
            if not 0 <= offset < count:
                continue
            tid = listener.medium_id
            loss = self._mean_loss(sender, listener)
            if shadowed:
                loss += medium._link_shadow(sender, tid).value(seq)
            heard.setdefault(offset, []).append(
                (tid, sender.tx_power_dbm - loss))
        for listeners in heard.values():
            listeners.sort(key=_FIRST)
        if heard and self._metrics.enabled:
            absorbed = sum(map(len, heard.values()))
            medium._m_rx.inc(absorbed)
            self._count("contact.inert", absorbed)
        return heard

    # ------------------------------------------------------------------
    # Airtime
    # ------------------------------------------------------------------

    def _credit_airtime(self, channels: list, durations: list) -> None:
        """Credit committed frames' airtime, in frame-start order, to the
        per-channel airtime counters and the airtime-only taps."""
        medium = self.medium
        metrics = medium._metrics
        if metrics.enabled:
            airtimes = medium._m_airtime
            for ch, duration in zip(channels, durations):
                airtime = airtimes.get(ch)
                if airtime is None:
                    airtime = airtimes[ch] = metrics.counter(
                        f"medium.airtime_us.ch{ch:02d}")
                airtime.inc(duration)
        # Each tap adds the durations one by one, as per-frame calls would.
        for tap in medium._taps:
            tap.credit_airtime(durations)
