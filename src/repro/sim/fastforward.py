"""Analytic fast-forward of quiet BLE connection-event cycles.

An established connection with nothing to say is *quiet*: Master and
Slave exchange empty data PDUs every connection interval, each event
costing heap operations, frame allocations and medium bookkeeping.  A
§VII trial is quiet for nearly all of its simulated time (the set-up, in
which the attacker follows the link passively, and the settle after its
injection report), and so is a dense occupancy world, only with many
links at once and Wi-Fi-style interferers bursting beside them.  The
attack itself, a tap that reads more than airtime and an attacker that
stays on air are not, so the engine stays off there.

:class:`QuietCycleEngine` replaces those stretches with closed-form
arithmetic.  Every :class:`~repro.sim.medium.Medium` built on a fast
:class:`~repro.sim.simulator.Simulator` installs one, and the world's
participants enrol in it through their own lifecycle: a *link* (a Master
and a Slave, paired by access address, optionally with a *follower*, a
passive :class:`~repro.core.sniffer.ConnectionSniffer`) enrols when its
connection forms and leaves when it ends; a *track*, a
:class:`~repro.sim.interference.WifiInterferer`, enrols while it runs.
Whenever the
event queue holds exactly each link's steady-state events and each
track's next burst, and a conservative eligibility audit passes, the
engine lays out a block of cycles for every link at once, as (links ×
cycles) arrays, reads each track's bursts ahead in its interferer's plan,
and commits everything up to the first cycle it cannot replicate: one a
link's own audit rejects, or a cross-link interaction (two links' frames
overlapping on one channel, a burst overlapping a link frame that would
not survive it, a frame heard in another source's listening window unless
that contact is *inert*, or two sources' events within float tolerance).
It emits the *same* trace records, metric increments and airtime-tap
credits the reference path would, writes the end state back and lets the
reference engine resume mid-trial with no divergence.

Every random stream the kernel reads has one owner that draws from it,
and the kernel takes its values from that owner rather than drawing a
copy: a clock's jitter from :meth:`~repro.sim.clock.SleepClock.take`, a
link's shadowing from the medium's per-link substreams, a track's bursts
from the plan :meth:`~repro.sim.interference.WifiInterferer.plan_until`
draws.  What the kernel takes and does not commit it gives back to the
clock, leaves in the link's shadowing window or leaves planned, so the
reference path reads the same sequences without any stream being
rewound.  The one exception is the medium's shared collision stream
(:meth:`QuietCycleEngine._settle`).

Correctness contract (enforced by ``tests/test_engine_differential.py``):
byte-identical traces and bit-identical results against the reference
engine.  See DESIGN.md, "Epoch scheduler & analytic fast-forward", for the
invariants and the full bail-out list.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left
from collections import namedtuple
from dataclasses import replace
from functools import partial
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.ll.csa1 import NUM_DATA_CHANNELS
from repro.ll.master import _RESPONSE_GRACE_US, MasterLinkLayer
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_crc
from repro.ll.slave import _RESPONSE_JITTER_FLOOR_US, SlaveLinkLayer
from repro.ll.timing import (
    WINDOW_WIDENING_CONSTANT_US,
    WORST_CASE_SLAVE_SCA_PPM,
)
from repro.phy import signal as _signal
from repro.phy.collision import CollisionOutcome, Overlap
from repro.phy.modulation import PhyMode, air_time_us
from repro.phy.signal import RadioFrame
from repro.sim.events import TIME_EPS_US, Event
from repro.sim.interference import _BURST_AIR_US, NOISE_ACCESS_ADDRESS
from repro.sim.medium import (
    RECENT_HORIZON_US,
    Medium,
    _ActiveTransmission,
)
from repro.sim.quiet_audit import (
    _BURST,
    _CLOSE,
    _MASTER,
    _OPEN,
    _SNIFF_CLOSE,
    _SNIFF_OPEN,
    QuietAudit,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace
from repro.utils.units import PPM, T_IFS_US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sniffer import ConnectionSniffer
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

#: (LLID, MD) of an empty data PDU with no more data to follow.
_EMPTY_DESC = (_LLID_EMPTY, 0)

#: Cycles the first block of an engagement speculates; later blocks grow
#: eightfold up to :data:`_BLOCK_CYCLES`, and every block is cut to the
#: cycles the horizon and the event budget leave room for.  With several
#: links the counts are cycles summed over the links, spread in proportion
#: to each link's event rate.  A block's fixed cost dwarfs its per-cycle
#: cost, so the first block is sized to finish a short engagement in one
#: go: in the §VII grid (perfbench ``panel3``) half the engagements end
#: within 128 cycles.  With one kernel pass per block over every link,
#: 64, 128 and 256 were measured again (six alternated 30 s ``dense``
#: rounds, three ``panel3``): ``dense`` medians 7.85, 8.46 and 8.79
#: trials/s, 256 ahead of 128 in 4 of 6 rounds; ``panel3`` 213, 214 and
#: 209 within its spread.  Not a consistent win, so 128 stands.
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

#: Disengage reasons a down link also causes (:meth:`QuietCycleEngine.
#: _stand_down` reports those as ``link-not-connected``).
_MAYBE_DOWN = frozenset(("live-count", "link-in-event"))

_TIME = attrgetter("time_us")

#: A noise burst's air time by PDU length.
_BURST_AIR = np.array(_BURST_AIR_US)
_FIRST = itemgetter(0)


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
    """An enrolled link: its devices, the label of its Slave's
    window-open events (their handlers are per-event closures), and the
    set-up halves of its and its follower's verdicts with the versions
    they were derived at (:class:`~repro.sim.quiet_audit.QuietAudit`).
    It lives exactly as long as its two connections."""

    __slots__ = ("master", "slave", "follower", "wo_label", "version",
                 "verdict", "lane_version", "lane_verdict")

    def __init__(self, master: "MasterLinkLayer", slave: "SlaveLinkLayer",
                 follower: Optional["ConnectionSniffer"] = None):
        self.master = master
        self.slave = slave
        #: The passive sniffer of this link, if the world has one: a third,
        #: listen-only lane of every cycle it follows.
        self.follower = follower
        self.wo_label = f"{slave.name}-window-open"
        self.version: Optional[tuple] = None
        self.verdict: Optional[str] = None
        self.lane_version = -1
        self.lane_verdict: Optional[str] = None


def _collision(sink: Trace, at_us: float, name: str, frame_id: int,
               outcome: Optional[CollisionOutcome]) -> None:
    """The medium's ``collision`` record of a resolution, if there was
    one."""
    if outcome is not None:
        sink.record(at_us, name, "collision", frame_id=frame_id,
                    overlapped_bits=outcome.overlapped_bits,
                    corrupted_bits=outcome.corrupted_bits,
                    survived=outcome.survived)


#: The wanted frame as ``CollisionModel.resolve`` reads it: its PHY only.
_Wanted = namedtuple("_Wanted", "phy")


def _shifted(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Per row, ``first`` and then ``rest`` less its last column: each
    cycle's value from the previous cycle's."""
    out = np.empty_like(rest)
    out[:, 0] = first
    out[:, 1:] = rest[:, :-1]
    return out


class _Links:
    """Every link of an engagement as one row of a structure of arrays.

    Between blocks a link's state is one entry of each (links,) column;
    the block being speculated is a set of (links × cycles) arrays.  Rows
    are ragged: each keeps its own cycle count ``n``, the cycles it alone
    vouches for ``k`` and its bail cycle, and the cycles past a row's own
    count are padding no result reads.  ``speculate`` lays out a block for
    every row at once, the engine finds how many cycles of each row every
    other source lets it commit (``cut``), ``commit`` emits those and
    rolls every row on, and ``write_back`` hands the links back to the
    reference engine.  Only each link's own streams (its clocks' jitter,
    taken from and given back to the clocks, and its shadowing draws, read
    from the links' windows), its trace records and its ARQ bits stay per
    row.
    """

    def __init__(self, engine: "QuietCycleEngine", links: list, queued: list):
        self.engine = engine
        self.queued = queued
        size = self.size = len(links)
        self.rows = np.arange(size)
        self.masters = [link.master for link in links]
        self.slaves = [link.slave for link in links]
        lanes = self.lanes = [
            link.follower if slot[_SNIFF_OPEN] is not None else None
            for link, slot in zip(links, queued)]
        self.lane_rows = [row for row, lane in enumerate(lanes)
                          if lane is not None]
        self.phys = [master.phy for master in self.masters]
        columns = []
        for master, slave, lane, slot, phy in zip(
                self.masters, self.slaves, lanes, queued, self.phys):
            mp = master.conn.params
            sniff = (0.0, 0.0, 0.0)
            if lane is not None:
                assert lane.connection is not None  # eligible
                sniff = (slot[_SNIFF_OPEN].time_us, slot[_SNIFF_CLOSE].time_us,
                         lane.connection.predicted_anchor_us())
            frame_dur = air_time_us(2, phy)
            # Latest event of a cycle is the Slave response's end, which the
            # deadline invariant bounds below end_m + T_IFS + grace.
            columns.append((
                slot[_OPEN].time_us, slot[_CLOSE].time_us,
                slot[_MASTER].time_us, master.conn.last_valid_rx_local_us,
                frame_dur, mp.interval_us, mp.timeout_us, master.clock.rate,
                slave.clock.rate, *sniff,
                frame_dur + T_IFS_US + _RESPONSE_GRACE_US,
                mp.interval_us / master.clock.rate))  # (block sizing only)
        # The state between cycles, one list entry per link.
        (self.t_open, self.t_close, self.t_master, self.m_lv, self.frame_dur,
         self.interval_us, self.timeout_us, self.rate_m, self.rate_s,
         self.t_sniff_open, self.t_sniff_close, self.a_predicted,
         self.horizon_pad, self.period_us) = map(list, zip(*columns)) \
            if size else ([] for _ in range(14))
        # Events of a cycle, not counting the window-close that fires (and
        # extends the window) before the master frame ends; and receivers.
        self.per_cycle = np.array([6 if lane is None else 8
                                   for lane in lanes], dtype=np.int64)
        self.receivers = self.per_cycle - 4
        # Per row: its frames' air time, and how many of its own radios
        # receive each frame (the counterpart, and the follower).
        self.frame_dur_row = np.array(self.frame_dur, dtype=np.float64)
        self.own_row = self.per_cycle // 4
        self.committed = [0] * size

    def next_cycle_bails(self, until_us: Optional[float]) -> list:
        """Whether each link's cycle at the current state bails out (the
        pre-draw bail-outs of :meth:`_bails`, with Python floats); checked
        before speculating a block, so a stretch too short to run costs no
        draws."""
        bails = []
        for row, lane in enumerate(self.lanes):
            t_master, t_close = self.t_master[row], self.t_close[row]
            end_m = t_master + self.frame_dur[row]
            stop = self.t_open[row] > t_master or t_master >= t_close \
                or end_m - TIME_EPS_US <= t_close <= end_m \
                or (until_us is not None
                    and t_master + self.horizon_pad[row] > until_us) \
                or t_master * self.rate_m[row] - self.m_lv[row] \
                > self.timeout_us[row]
            if lane is not None:
                # The follower must be on the channel before the master
                # frame, and its window must close within the horizon.
                stop = stop or self.t_sniff_open[row] >= t_master or (
                    until_us is not None
                    and self.t_sniff_close[row] > until_us)
            bails.append(stop)
        return bails

    def _bails(self, t_o, t_m, t_c, end_m, lv, until_us):
        """The pre-draw bail-outs of every cycle of a block."""
        stop = (t_o > t_m) | (t_m >= t_c)  # window miss
        # window edge within float tolerance of the frame end
        stop |= (end_m - TIME_EPS_US <= t_c) & (t_c <= end_m)
        if until_us is not None:
            stop |= t_m + self.col_pad > until_us
        # Master supervision would expire: reference path
        return stop | (t_m * self.col_rate_m - lv > self.col_timeout)


    def prepare(self) -> None:
        """Everything an engagement keeps constant, and the rest of the
        state between cycles."""
        engine, medium, size = self.engine, self.engine.medium, self.size
        self.shadowed = shadowed = medium.path_loss.shadowing_sigma_db > 0.0
        tx_seq, mean_loss = medium._tx_seq, engine._mean_loss

        def shadow(sender, listener):
            # Only the counterparts (and the follower) carry a quiet cycle's
            # frames; the engine proves nobody else hears them.  Draws come
            # from the medium's per-link substreams indexed by the sender's
            # transmission counter, so skipping every off-link draw is
            # exact: a draw depends only on (link, index).
            return medium._link_shadow(sender, listener.medium_id) \
                if shadowed and listener is not None else None

        objects, floats = [], []
        for master, slave, lane in zip(self.masters, self.slaves, self.lanes):
            mconn, sconn = master.conn, slave.conn
            mp, s_sel = mconn.params, sconn.selector
            mr, sr = master.radio, slave.radio
            aconn = a_radio = None
            # Geometry is frozen while engaged (nothing else runs), so the
            # mean losses are engagement-wide.
            lane_floats = (0.0,) * 5
            if lane is not None:
                aconn, a_radio = lane.connection, lane.radio
                assert aconn is not None and lane._current is not None
                # The sniffer's widening estimate (SniffedConnection.
                # estimated_widening_us), in window_widening_us's order.
                lane_floats = (
                    aconn.params.interval_us,
                    (aconn.params.master_sca_ppm
                     + WORST_CASE_SLAVE_SCA_PPM) / PPM,
                    mean_loss(mr, a_radio), mean_loss(sr, a_radio),
                    max(medium.sensitivity_dbm, a_radio.sensitivity_dbm))
            m_last, s_last = mconn._last_sent, sconn._last_sent
            objects.append((
                mp.access_address, mp.crc_init, mconn.selector, s_sel, mr,
                sr, a_radio, shadow(mr, sr), shadow(sr, mr),
                shadow(mr, a_radio), shadow(sr, a_radio),
                slave.clock, master.clock,
                None if mp.use_csa2 else engine._csa1_table(s_sel),
                0 if mp.use_csa2 else s_sel.hop_increment,
                0 if mp.use_csa2 else s_sel._last_unmapped,
                tx_seq.get(mr.medium_id, 0), tx_seq.get(sr.medium_id, 0),
                sconn.current_channel, sconn.event_count,
                0 if aconn is None else aconn.event_count,
                master._anchor_local, sconn.last_valid_rx_local_us,
                # The ARQ state at the start of the next cycle: each side's
                # transmit and expected bits, whether each side's peer
                # acked its last PDU, and each one's (LLID, MD) or None.
                [mconn.transmit_seq_num, mconn.next_expected_seq_num,
                 sconn.transmit_seq_num, sconn.next_expected_seq_num,
                 mconn._peer_acked_last, sconn._peer_acked_last,
                 None if m_last is None else (int(m_last.header.llid),
                                              m_last.header.md),
                 None if s_last is None else (int(s_last.header.llid),
                                              s_last.header.md)]))
            floats.append((
                (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM,
                slave.widening_scale, mean_loss(mr, sr), mean_loss(sr, mr),
                max(medium.sensitivity_dbm, sr.sensitivity_dbm),
                max(medium.sensitivity_dbm, mr.sensitivity_dbm),
                mr.tx_power_dbm, sr.tx_power_dbm, *lane_floats))
        (self.aa, self.crc_init, self.m_sels, self.s_sels, self.mr, self.sr,
         self.a_radio, self.ms_shadow, self.sm_shadow, self.ma_shadow,
         self.sa_shadow, self.s_clock, self.m_clock, tables, hop,
         self.unmapped, self.m_seq, self.s_seq, self.channel,
         self.event_count, self.a_event_count, self.m_anchor, self.s_lv,
         self.arq) = map(list, zip(*objects)) if size else ([] for _ in
                                                             range(24))
        self.a_tid = [None if radio is None else radio.medium_id
                      for radio in self.a_radio]
        self.radios = self.mr + self.sr + self.a_radio
        self.csa2_rows = [row for row, table in enumerate(tables)
                          if table is None]
        csa1 = next((table for table in tables if table is not None), None)
        self.tables = None if csa1 is None else np.array(
            [csa1 if table is None else table for table in tables])
        self.hop = np.array(hop, dtype=np.int64)
        # The per-link constants as (links, 1) columns of one array; with
        # one link, as plain floats, which broadcast the same and cost
        # less per operation.
        columns = np.array(
            [*self.frame_dur, *self.interval_us, *self.rate_m, *self.rate_s,
             *self.timeout_us, *self.horizon_pad,
             *(value for column in zip(*floats) for value in column)],
            dtype=np.float64).reshape(19, size)[:16, :, None]
        (self.col_frame_dur, self.col_interval, self.col_rate_m,
         self.col_rate_s, self.col_timeout, self.col_pad, self.col_drift_k,
         self.col_widen_scale, self.col_mean_m_to_s, self.col_mean_s_to_m,
         self.col_floor_s, self.col_floor_m, self.col_m_tx_power,
         self.col_s_tx_power, self.col_a_interval, self.col_a_drift_k) = \
            columns[:, 0, 0].tolist() if size == 1 else columns
        # The follower's powers are worked out link by link.
        (self.m_tx_power, self.s_tx_power, _, _, self.mean_m_to_a,
         self.mean_s_to_a, self.floor_a) = map(list, zip(
             *(columns[6:] for columns in floats))) \
            if size else ([] for _ in range(7))
        # Each link's values at its last committed cycle, for the
        # write-back.
        (self.last_end_m, self.last_end_r, self.last_anchor_s, self.last_t_m,
         self.last_t_resp, self.last_sniff_open, self.last_sniff_close,
         self.last_channel, self.last_unmapped) = ([0.0] * size
                                                   for _ in range(9))

    # ------------------------------------------------------------------
    # Speculate
    # ------------------------------------------------------------------

    def speculate(self, n: np.ndarray, until_us: Optional[float]) -> None:
        """Lay out ``n[row]`` cycles of each row from its current state;
        set ``k``, the cycles each link alone vouches for, ``bailed``,
        whether a row's cycle ``k`` is one the reference path must run, and
        each cycle's span and channel."""
        size, rows, n_list = self.size, self.rows, n.tolist()
        width = max(max(n_list, default=0), 1)
        self.n, self.col = n, np.arange(width)
        ragged = min(n_list, default=width) < width
        # -- draw in bulk, per link: slave jitter per cycle is response,
        #    window-open, window-close; master jitter is the next event ---
        counts = [(row, count) for row, count in enumerate(n_list)
                  if count > 0]
        s_draws, m_draws = np.zeros((size, width, 3)), np.zeros((size, width))
        for row, count in counts:
            s_draws[row, :count] = self.s_clock[row].take(
                3 * count).reshape(count, 3)
            m_draws[row, :count] = self.m_clock[row].take(count)

        # -- every cycle's timing, in the reference's float-op order, one
        #    row per link.  Cycle i+1 starts at cycle i's unclamped next
        #    master event; the clamp search below cuts the block where that
        #    assumption fails.
        frame_dur, interval = self.col_frame_dur, self.col_interval
        rate_m, rate_s = self.col_rate_m, self.col_rate_s
        (t_master, t_open, t_close, m_lv, m_anchor, t_sniff_open,
         t_sniff_close) = np.array(
            [self.t_master, self.t_open, self.t_close, self.m_lv,
             self.m_anchor, self.t_sniff_open, self.t_sniff_close]
            if size else np.zeros((7, 0)), dtype=np.float64)
        anchors = np.empty((size, width + 1))
        anchors[:, 0] = m_anchor
        anchors[:, 1:] = interval
        # sequential along each row, like the loop
        anchors = np.add.accumulate(anchors, axis=1)
        unclamped = anchors[:, 1:] / rate_m + m_draws
        t_m = _shifted(t_master, unclamped)
        end_m = t_m + frame_dur
        t_resp = end_m + T_IFS_US + np.maximum(
            s_draws[:, :, 0], _RESPONSE_JITTER_FLOOR_US)
        end_r = t_resp + frame_dur
        anchor_s = t_m * rate_s
        predicted_s = anchor_s + interval
        widening = self.col_widen_scale * (
            self.col_drift_k * (predicted_s - anchor_s)
            + WINDOW_WIDENING_CONSTANT_US)
        next_open = np.maximum(
            (predicted_s - widening) / rate_s + s_draws[:, :, 1], t_resp)
        next_close = np.maximum(
            (predicted_s + widening) / rate_s + s_draws[:, :, 2], t_resp)
        t_o = _shifted(t_open, next_open)
        t_c = _shifted(t_close, next_close)
        # Each cycle's first and last event, and the first event of the
        # cycle after it (the clamped master event included).
        s, e = t_o, end_r
        s_after = np.minimum(np.minimum(next_open, next_close),
                             np.maximum(unclamped, end_r))

        # -- locate each row's first pre-draw bail-out and first binding
        #    next-master clamp ------------------------------------------
        stop = self._bails(t_o, t_m, t_c, end_m,
                           _shifted(m_lv, end_r * rate_m), until_us)
        if self.lane_rows:
            # The follower's window of each next cycle, armed at this
            # cycle's sniff-close from this cycle's anchor.
            a_next = t_m + self.col_a_interval
            open_next, close_next = self.lanes[self.lane_rows[0]].follow_window(
                a_next, self.col_a_drift_k * (a_next - t_m)
                + WINDOW_WIDENING_CONSTANT_US)
            a_open = _shifted(t_sniff_open, open_next)
            a_close = _shifted(t_sniff_close, close_next)
            # The follower tunes in after the master frame starts, its
            # window closes before the response ends, or its close would
            # fire among the next cycle's events or after its next open:
            # the reference path runs that cycle.
            lane_stop = (a_open >= t_m) | (a_close <= end_r) \
                | (a_close >= s_after) | (open_next <= a_close)
            if until_us is not None:
                lane_stop |= a_close > until_us
            self.a_next, self.a_open, self.a_close = a_next, a_open, a_close
            self.open_next, self.close_next = open_next, close_next
            s_follow = np.minimum(t_o, a_open)
            s_after_follow = np.minimum(s_after, open_next)
            if len(self.lane_rows) == size:
                stop |= lane_stop
                s, e, s_after = s_follow, a_close, s_after_follow
            else:
                has_lane = (self.per_cycle == 8)[:, None]
                stop |= lane_stop & has_lane
                s = np.where(has_lane, s_follow, t_o)
                e = np.where(has_lane, a_close, end_r)
                s_after = np.where(has_lane, s_after_follow, s_after)
        clamped = end_r > unclamped
        if ragged:
            # A row's padding bails at its own cycle count.
            live = self.col < n[:, None]
            stop |= ~live
            clamped &= live
        bail = stop.argmax(axis=1)
        bail = np.where(stop[rows, bail], bail, width)
        restart = clamped.argmax(axis=1)
        valid = np.where(clamped[rows, restart], restart + 1,
                         np.maximum(n, 0))
        k = np.minimum(bail, valid)
        bailed = (bail < valid) | (n < 1)
        k_list = k.tolist()
        self.pa_master, self.pa_slave = [None] * size, [None] * size
        for row in self.lane_rows:
            count = k_list[row]
            if not count:
                continue
            # The follower's received power; a fade below its floor is a
            # missed frame, and the reference path runs that cycle.
            ma_shadow, sa_shadow = self.ma_shadow[row], self.sa_shadow[row]
            if ma_shadow is not None and sa_shadow is not None:
                ma_draws = ma_shadow.take(self.m_seq[row], count)
                sa_draws = sa_shadow.take(self.s_seq[row], count)
            else:
                ma_draws = sa_draws = np.zeros(count)
            pa_master = self.m_tx_power[row] - (self.mean_m_to_a[row]
                                                + ma_draws)
            pa_slave = self.s_tx_power[row] - (self.mean_s_to_a[row]
                                               + sa_draws)
            missed = (pa_master < self.floor_a[row]) \
                | (pa_slave < self.floor_a[row])
            miss = int(missed.argmax())
            if missed[miss]:
                k[row] = bail[row] = k_list[row] = miss
                bailed[row] = True
                pa_master, pa_slave = pa_master[:miss], pa_slave[:miss]
            self.pa_master[row], self.pa_slave[row] = pa_master, pa_slave
        for row, count in counts:
            if count > k_list[row]:
                self.s_clock[row].give_back(3 * (count - k_list[row]))
                self.m_clock[row].give_back(count - k_list[row])
        self.k, self.bailed, self.s, self.e, self.s_after = \
            k, bailed, s, e, s_after
        self.t_m, self.end_m, self.t_resp, self.end_r = t_m, end_m, t_resp, \
            end_r
        self.t_o, self.t_c, self.seven = t_o, t_c, t_c < end_m
        self.next_open, self.next_close = next_open, next_close
        self.unclamped, self.anchors, self.anchor_s = \
            unclamped, anchors, anchor_s
        # The channels of cycles 0..k of each row (cycle k's is the next
        # state's): CSA#1 rows through their unmapped-index tables, CSA#2
        # rows off the memoised schedule.
        steps = np.arange(max(k_list, default=0) + 1)
        unmapped_seq = self.unmapped_seq = (
            np.array(self.unmapped, dtype=np.int64)[:, None]
            + self.hop[:, None] * steps) % NUM_DATA_CHANNELS
        channels = self.channels = np.zeros(unmapped_seq.shape,
                                            dtype=np.int64) \
            if self.tables is None \
            else self.tables[rows[:, None], unmapped_seq]
        for row in self.csa2_rows:
            count = k_list[row]
            if count:
                s_sel, event_count = self.s_sels[row], self.event_count[row]
                channels[row, :count + 1] = [
                    s_sel.channel_for_event((event_count + i) & 0xFFFF)
                    for i in range(count + 1)]

    def past_until(self, until_us: Optional[float]) -> np.ndarray:
        """Whether the cycle each row bailed at in this block runs past
        ``until_us`` or the event budget, rather than being one of its own
        the reference path must run.  Read for ``ff.cut.*`` only."""
        late = self.n < 1
        if until_us is not None:
            at = (self.rows, np.minimum(self.k, self.t_m.shape[1] - 1))
            past = self.t_m[at] + np.array(self.horizon_pad) > until_us
            if self.lane_rows:
                past |= (self.per_cycle == 8) & (self.a_close[at] > until_us)
            late = late | past
        return late

    def horizons(self) -> list:
        """Each row's first event it alone cannot vouch for: its first
        queued event when it vouches for no cycle."""
        return [float(self.s_after[row, k - 1]) if k else min(
            self.t_open[row], self.t_close[row], self.t_master[row],
            *(() if lane is None else (self.t_sniff_open[row],)))
            for row, (k, lane) in enumerate(zip(self.k.tolist(),
                                                self.lanes))]

    def counts(self, horizon: float) -> np.ndarray:
        """Cycles of each row's vouched-for ``k`` starting before
        ``horizon``."""
        return np.count_nonzero(
            (self.s < horizon) & (self.col < self.k[:, None]), axis=1)

    def locked_on(self, row: int, radio: int, at_us: float):
        """The frame ``(row, slot, cycle)`` of ``row``'s own link that its
        radio ``radio`` (numbered as in :attr:`radios`) is locked onto at
        ``at_us`` (started before it, ending more than ``TIME_EPS_US``
        after it: the medium's busy test), or ``None``."""
        size = self.size
        slots = (0,) if radio == size + row else (1,) if radio == row \
            else (0, 1) if radio == 2 * size + row else ()
        for slot in slots:
            starts, ends = (self.t_m, self.end_m) if slot == 0 \
                else (self.t_resp, self.end_r)
            cycle = int(np.searchsorted(starts[row, :self.k[row]], at_us)) - 1
            if cycle >= 0 and at_us + TIME_EPS_US < ends[row, cycle]:
                return row, slot, cycle
        return None

    def cut(self, counts: np.ndarray) -> None:
        """Keep only cycles 0..counts[row]-1 of each row's ``k``."""
        k = self.k
        for row in np.flatnonzero(counts < k).tolist():
            c, kept = int(counts[row]), int(k[row])
            self.s_clock[row].give_back(3 * (kept - c))
            self.m_clock[row].give_back(kept - c)
            if self.lanes[row] is not None:
                self.pa_master[row] = self.pa_master[row][:c]
                self.pa_slave[row] = self.pa_slave[row][:c]
        self.k = np.minimum(k, counts)

    def events_in(self, counts: np.ndarray) -> int:
        """Simulator events the first ``counts[row]`` cycles of each row
        fire."""
        return sum(int(self.per_cycle[row]) * c
                   + int(np.count_nonzero(self.seven[row, :c]))
                   for row, c in enumerate(counts.tolist()) if c)

    def lay_out(self, counts: np.ndarray) -> None:
        """The block's frame layout: each row's first ``counts[row]``
        cycles' frames, row by row and each row's Master frames before its
        Slave's, as one array per field -- ``f_start``, ``f_end``,
        ``f_channel``, ``f_seq`` (the transmission index), ``f_sender``
        (its place in :attr:`radios`), and the ``f_row``, ``f_slot`` (0 a
        Master frame, 1 a response) and ``f_cycle`` each frame comes from.
        Built by the cross-link checks of a block of several sources, which
        read it with the frame ids; :meth:`keep` narrows it to the cycles a
        cut leaves."""
        size, width = self.size, self.t_m.shape[1]
        live = self.col < counts[:, None]
        rows, slots, cycles = np.nonzero(
            np.broadcast_to(live[:, None, :], (size, 2, width)))
        self.f_row, self.f_slot, self.f_cycle = rows, slots, cycles
        self.f_start = np.where(slots, self.t_resp[rows, cycles],
                                self.t_m[rows, cycles])
        self.f_end = np.where(slots, self.end_r[rows, cycles],
                              self.end_m[rows, cycles])
        self.f_channel = self.channels[rows, cycles]
        self.f_seq = np.where(slots, np.array(self.s_seq)[rows],
                              np.array(self.m_seq)[rows]) + cycles
        self.f_sender = rows + slots * size

    def lone_frames(self, counts: np.ndarray) -> tuple:
        """The ``f_start``, ``f_channel`` and air time of each committed
        frame of a block of at most one row, in :meth:`lay_out`'s order:
        a lone source meets nobody, so it needs no layout for the cut
        search and takes these three columns straight off its arrays."""
        if not self.size:
            return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
        c = int(counts[0])
        return (np.concatenate((self.t_m[0, :c], self.t_resp[0, :c])),
                np.tile(self.channels[0, :c], 2),
                np.full(2 * c, self.frame_dur[0]))

    def keep(self, counts: np.ndarray) -> np.ndarray:
        """Which frames of the layout lie in each row's first
        ``counts[row]`` cycles."""
        return self.f_cycle < counts[self.f_row]

    def frame_index(self, counts: np.ndarray, row: int, slot: int,
                    cycle: int) -> int:
        """The index of a frame in the layout of the first ``counts[row]``
        cycles of each row."""
        return 2 * int(counts[:row].sum()) + slot * int(counts[row]) + cycle

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self, ids: list, trace: Trace, merge: bool,
               retained: list, contacts: dict, collided: list) -> list:
        """Emit each row's cycles 0..k-1 with the given frame ids (the
        first ones of ``ids``, as :meth:`frames` lays them out) into
        ``trace`` (into a buffer per row when ``merge``, returned for the
        merge), absorb their frames' inert ``contacts``, write the
        ``collided`` resolutions they survive, file their recent frames in
        ``retained`` and roll every row to its cycle k.  The engine credits
        their airtime (:meth:`QuietCycleEngine._credit_airtime`)."""
        engine, medium, k = self.engine, self.engine.medium, self.k
        active = np.flatnonzero(k).tolist()
        if not active:
            return []
        k_list, m_seq, s_seq = k.tolist(), self.m_seq, self.s_seq
        width = max(k_list)
        committed = self.col[:width] < k[:, None]
        # Each frame's received power at its counterpart, per link stream.
        draws = np.zeros((2, self.size, width))
        if self.shadowed:
            for row in active:
                count = k_list[row]
                draws[0, row, :count] = self.ms_shadow[row].take(m_seq[row],
                                                                 count)
                draws[1, row, :count] = self.sm_shadow[row].take(s_seq[row],
                                                                 count)
        p_slave = self.col_m_tx_power - (self.col_mean_m_to_s + draws[0])
        p_master = self.col_s_tx_power - (self.col_mean_s_to_m + draws[1])
        end_m, end_r, t_m, t_resp = (values[:, :width] for values in (
            self.end_m, self.end_r, self.t_m, self.t_resp))
        faults = (
            p_slave < self.col_floor_s, p_master < self.col_floor_m,
            end_r >= end_m + T_IFS_US + _RESPONSE_GRACE_US,
            (self.next_open[:, :width] < end_r)
            | (self.next_close[:, :width] < end_r))
        if ((faults[0] | faults[1] | faults[2] | faults[3])
                & committed).any():
            faults = np.stack(faults) & committed
            row = int(faults.any(axis=(0, 2)).argmax())
            cycle = int(faults[:, row].any(axis=0).argmax())
            check = int(faults[:, row, cycle].argmax())
            # The reference cycle has sent its master frame before its
            # first check and its response before the others.
            _take_frame_ids(2 * cycle + (1 if check == 0 else 2))
            raise SimulationError(_FAULTS[check])

        sinks, metrics = [], medium._metrics
        transceivers, pdu_bytes = medium._transceivers, engine._pdu_bytes
        offset = 0
        for row in active:
            count, lane = k_list[row], self.lanes[row]
            mr, sr = self.mr[row], self.sr[row]
            # Foreign listeners that lock onto a frame and drop it, per
            # cycle.
            heard_m = engine._absorb(contacts, mr, m_seq[row], count) \
                if contacts else {}
            heard_s = engine._absorb(contacts, sr, s_seq[row], count) \
                if contacts else {}
            # Each frame's receivers in lock order (ascending medium id,
            # the order the medium locks and delivers in) with their
            # received powers: the counterpart, then or before the
            # follower.
            m_receivers = [(sr.medium_id, p_slave[row, :count])]
            s_receivers = [(mr.medium_id, p_master[row, :count])]
            if lane is not None:
                a_tid = self.a_tid[row]
                m_receivers = sorted(m_receivers + [
                    (a_tid, self.pa_master[row])], key=_FIRST)
                s_receivers = sorted(s_receivers + [
                    (a_tid, self.pa_slave[row])], key=_FIRST)
            # SN/NESN: the first cycle follows the ARQ rules; after it both
            # sides ack every frame, so the bits alternate with period 2
            # and every later PDU is an empty one.
            arq = self.arq[row]
            m_sn0, m_nesn0, s_ts, _s_ne, m_pal, _s_pal, m_desc, s_desc = arq
            m_desc0 = m_desc if (not m_pal and m_desc is not None) \
                else _EMPTY_DESC
            s_sn0, s_nesn0 = m_nesn0, m_sn0 ^ 1
            s_desc0 = s_desc if (m_nesn0 == s_ts and s_desc is not None) \
                else _EMPTY_DESC
            row_ids = (ids[offset:offset + count],
                       ids[offset + count:offset + 2 * count])
            offset += 2 * count
            channels = self.channels[row, :count + 1].tolist()
            if trace.enabled:
                sink = Trace() if merge else trace
                sinks.append(sink)
                self._emit(row, sink, m_receivers, s_receivers, heard_m,
                           heard_s, row_ids, channels,
                           (m_sn0, m_nesn0, s_sn0, s_nesn0), transceivers,
                           {(slot, cycle, tid): outcome
                            for at, slot, cycle, tid, _state, outcome
                            in collided if at == row})
            if metrics.enabled and lane is not None:
                # Every followed event is heard: one anchor each, and its
                # drift against the anchor the sniffer predicted.
                lane._m_events.inc(count)
                lane._m_anchors.inc(count)
                predicted = [float(self.a_predicted[row])] \
                    + self.a_next[row, :count - 1].tolist()
                for t_anchor, t_predicted in zip(t_m[row, :count].tolist(),
                                                 predicted):
                    lane._m_drift.observe(t_anchor - t_predicted)
            # Only frames ending within the recent horizon of the link's
            # last response survive into the medium's recent window.
            crc_init, aa, phy = self.crc_init[row], self.aa[row], \
                self.phys[row]
            cutoff = float(end_r[row, count - 1]) - RECENT_HORIZON_US
            for i in range(int(np.searchsorted(end_r[row, :count], cutoff)),
                           count):
                for slot, (sender, seq, starts, ends, desc0, sn0, nesn0,
                           receivers, heard) in enumerate((
                        (mr, m_seq, t_m, end_m, m_desc0, m_sn0, m_nesn0,
                         m_receivers, heard_m),
                        (sr, s_seq, t_resp, end_r, s_desc0, s_sn0, s_nesn0,
                         s_receivers, heard_s))):
                    end = float(ends[row, i])
                    if end >= cutoff:
                        retained.append((
                            end, row_ids[slot][i], float(starts[row, i]),
                            channels[i], *pdu_bytes(
                                *(desc0 if i == 0 else _EMPTY_DESC),
                                sn0 ^ (i & 1), nesn0 ^ (i & 1), crc_init),
                            [(tid, float(powers[i]))
                             for tid, powers in receivers]
                            + heard.get(i, []), sender, seq[row] + i, aa,
                            phy))
            # -- roll the link to the first cycle after the block ---------
            last = count - 1
            last_par = last & 1
            arq[:] = (
                m_sn0 ^ (count & 1), m_nesn0 ^ (count & 1),
                s_sn0 ^ last_par, s_nesn0 ^ last_par, True, False,
                m_desc0 if count == 1 else _EMPTY_DESC,
                s_desc0 if count == 1 else _EMPTY_DESC)
            self.event_count[row] = (self.event_count[row] + count) & 0xFFFF
            self.a_event_count[row] = (self.a_event_count[row] + count) \
                & 0xFFFF
            self.committed[row] += count
            self.m_seq[row] += count
            self.s_seq[row] += count
            last_end_m = self.last_end_m[row] = float(end_m[row, last])
            last_end_r = self.last_end_r[row] = float(end_r[row, last])
            self.last_anchor_s[row] = float(self.anchor_s[row, last])
            self.last_t_m[row] = float(t_m[row, last])
            self.last_t_resp[row] = float(t_resp[row, last])
            self.s_lv[row] = last_end_m * self.rate_s[row]
            self.m_lv[row] = last_end_r * self.rate_m[row]
            self.m_anchor[row] = float(self.anchors[row, count])
            self.last_channel[row], self.channel[row] = channels[last], \
                channels[count]
            self.last_unmapped[row] = int(self.unmapped_seq[row, last])
            self.unmapped[row] = int(self.unmapped_seq[row, count])
            self.t_open[row] = float(self.next_open[row, last])
            self.t_close[row] = float(self.next_close[row, last])
            self.t_master[row] = max(float(self.unclamped[row, last]),
                                     last_end_r)
            if lane is not None:
                self.last_sniff_open[row] = float(self.a_open[row, last])
                self.last_sniff_close[row] = float(self.a_close[row, last])
                self.t_sniff_open[row] = float(self.open_next[row, last])
                self.t_sniff_close[row] = float(self.close_next[row, last])
                self.a_predicted[row] = float(self.a_next[row, last])
        if metrics.enabled:
            medium._m_tx.inc(2 * int(k.sum()))
            medium._m_rx.inc(int((self.receivers * k).sum()))
            if collided:
                medium._m_collisions.inc(len(collided))
        return sinks

    def _emit(self, row: int, sink: Trace, m_receivers: list,
              s_receivers: list, heard_m: dict, heard_s: dict, ids: list,
              channels: list, bits: tuple, transceivers: dict,
              outcomes: dict) -> None:
        """Write one row's committed cycles' trace records into ``sink``;
        ``outcomes`` holds its frames' collision resolutions by (frame,
        cycle, receiver)."""
        count = int(self.k[row])
        m_sn0, m_nesn0, s_sn0, s_nesn0 = bits
        aa, event_count = self.aa[row], self.event_count[row]
        mr_tid, sr_tid = self.mr[row].medium_id, self.sr[row].medium_id
        t_o_l, t_m_l, end_m_l, t_resp_l, end_r_l = (
            values[row, :count].tolist() for values in (
                self.t_o, self.t_m, self.end_m, self.t_resp, self.end_r))
        s_name, m_name = self.slaves[row].name, self.masters[row].name
        # (medium id, name, powers, is the counterpart) per receiver.
        m_all = [(tid, transceivers[tid].name, powers.tolist(),
                  tid == sr_tid) for tid, powers in m_receivers]
        s_all = [(tid, transceivers[tid].name, powers.tolist(),
                  tid == mr_tid) for tid, powers in s_receivers]
        for i in range(count):
            m_rx = _with_contacts(m_all, heard_m.get(i), i, transceivers)
            s_rx = _with_contacts(s_all, heard_s.get(i), i, transceivers)
            ch = channels[i]
            ec = (event_count + i) & 0xFFFF
            frame_id_m, frame_id_s = ids[0][i], ids[1][i]
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
            for tid, name, powers, counterpart in m_rx:
                _collision(sink, t_end_m, name, frame_id_m,
                           outcomes.get((0, i, tid)))
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
            for tid, name, powers, counterpart in s_rx:
                _collision(sink, t_end_r, name, frame_id_s,
                           outcomes.get((1, i, tid)))
                sink.record(t_end_r, name, "rx",
                            frame_id=frame_id_s, corrupted=False,
                            rssi_dbm=powers[i])
                if counterpart:
                    sink.record(t_end_r, m_name, "slave-heard",
                                event_count=ec, sn=s_sn,
                                nesn=s_nesn)

    # ------------------------------------------------------------------
    # Materialise
    # ------------------------------------------------------------------

    def last_event_us(self) -> float:
        """Time of the last event the committed cycles of any row fired."""
        return max((self.last_end_r[row] if lane is None
                    else self.last_sniff_close[row]
                    for row, lane in enumerate(self.lanes)
                    if self.committed[row]), default=-np.inf)

    def write_back(self) -> list:
        """Hand every link that committed a cycle back to the reference
        engine as if it had run each committed cycle itself.  Returns the
        queued events to recreate as ``(creation time, schedule)`` pairs,
        in the order the reference created them."""
        pending: list = []
        sim, medium = self.engine.sim, self.engine.medium
        for (row, t_open, t_close, t_master, m_lv, s_lv, m_anchor, unmapped,
             m_seq, s_seq, t_sniff_open, t_sniff_close, end_m, end_r,
             anchor_s, t_m, t_resp, sniff_open, sniff_close, last_channel,
             last_unmapped, channel) in zip(
                range(self.size), self.t_open, self.t_close, self.t_master,
                self.m_lv, self.s_lv, self.m_anchor, self.unmapped,
                self.m_seq, self.s_seq, self.t_sniff_open,
                self.t_sniff_close, self.last_end_m, self.last_end_r,
                self.last_anchor_s, self.last_t_m, self.last_t_resp,
                self.last_sniff_open, self.last_sniff_close,
                self.last_channel, self.last_unmapped, self.channel):
            if not self.committed[row]:
                continue
            master, slave, lane = self.masters[row], self.slaves[row], \
                self.lanes[row]
            mconn, sconn = master.conn, slave.conn
            for event in self.queued[row]:
                if event is not None:
                    event.cancel()

            def reschedule_window(slave=slave, channel=channel,
                                  t_open=t_open, t_close=t_close):
                sim.schedule_at(t_open,
                                lambda: slave._window_open(channel),
                                f"{slave.name}-window-open")
                new_close = sim.schedule_at(t_close, slave._window_timeout,
                                            f"{slave.name}-window-close")
                slave._window_close = new_close
                slave._pending_events.append(new_close)

            # The Slave re-armed its window when it responded, the Master
            # its event when it heard the response, the follower its pair
            # at the sniff-close.
            pending += [(t_resp, reschedule_window),
                        (end_r, partial(sim.schedule_at, t_master,
                                        master._connection_event,
                                        f"{master.name}-event"))]
            m_ts, m_ne, s_ts, s_ne, m_pal, s_pal, m_desc, s_desc = \
                self.arq[row]
            # The last cycle's bits: the Master's are one flip behind its
            # next ones, the Slave's are its next ones.
            last_m_bits, last_s_bits = (m_ts ^ 1, m_ne ^ 1), (s_ts, s_ne)
            mconn.event_count = sconn.event_count = self.event_count[row]
            mconn.transmit_seq_num, mconn.next_expected_seq_num = m_ts, m_ne
            sconn.transmit_seq_num, sconn.next_expected_seq_num = s_ts, s_ne
            mconn._peer_acked_last, sconn._peer_acked_last = m_pal, s_pal
            mconn._last_sent = DataPdu.make(
                LLID(m_desc[0]), b"", sn=last_m_bits[0], nesn=last_m_bits[1],
                md=m_desc[1])
            sconn._last_sent = DataPdu.make(
                LLID(s_desc[0]), b"", sn=last_s_bits[0], nesn=last_s_bits[1],
                md=s_desc[1])
            mconn.last_valid_rx_local_us = m_lv
            sconn.last_valid_rx_local_us = s_lv
            mconn.current_channel = last_channel
            sconn.current_channel = channel
            use_csa2 = row in self.csa2_rows
            if not use_csa2:
                self.m_sels[row]._last_unmapped = last_unmapped
                self.s_sels[row]._last_unmapped = unmapped
            master._anchor_local = m_anchor
            master._awaiting_response = False
            master._response_deadline = None
            slave._anchor_local = anchor_s
            slave._events_since_anchor = 1
            mr, sr = self.mr[row], self.sr[row]
            mr._tx_until_us, sr._tx_until_us = end_m, end_r
            mr._rx_channel = mr._rx_since_us = None
            sr._rx_channel = sr._rx_since_us = None
            medium._tx_seq[mr.medium_id] = m_seq
            medium._tx_seq[sr.medium_id] = s_seq
            if lane is None:
                continue
            # The sniffer has heard every frame and re-armed its window at
            # the last sniff-close: a fresh event, the last anchor, the last
            # bits of each side, its radio still on the last channel.
            aconn, a_radio = lane.connection, self.a_radio[row]
            aconn.event_count = a_event_count = self.a_event_count[row]
            aconn.events_since_anchor = 1
            aconn.last_anchor_us = t_m
            aconn.current_channel = channel
            if not use_csa2:
                aconn.selector._last_unmapped = unmapped
            for bits, (sn, nesn) in ((aconn.master_bits, last_m_bits),
                                     (aconn.slave_bits, last_s_bits)):
                bits.sn, bits.nesn, bits.seen = sn, nesn, True
            lane._current = replace(lane._current, event_count=a_event_count,
                                    channel=channel)
            lane._silent_events = 0
            if a_radio._rx_channel != last_channel:
                medium.note_listen(a_radio, a_radio._rx_channel, last_channel)
            a_radio._rx_channel = last_channel
            a_radio._rx_since_us = sniff_open
            pending.append((sniff_close, partial(lane._arm, channel,
                                                 t_sniff_open, t_sniff_close)))
        return pending


class _TrackRun:
    """One Wi-Fi track through an engagement: a view on its interferer's
    plan, which the kernel reads ahead in (the interferer draws each burst
    it plans) and commits from by moving the plan's head.  Each block,
    :meth:`lay_out` reads the bursts due before the block's horizon as
    array slices of the plan (``t``, ``end``, ``channel``, ``length`` and
    ``sent``, whether the radio sends it); the block's counts are prefixes
    of those.  Bursts planned past the engagement's end stay in the plan,
    and the reference path fires them from there."""

    __slots__ = ("engine", "interferer", "event", "radio", "tid",
                 "committed", "seq", "last_us", "last_created", "sent",
                 "t", "end", "channel", "length", "is_sent")

    def __init__(self, engine: "QuietCycleEngine",
                 interferer: "WifiInterferer", event: Event):
        self.engine = engine
        self.interferer = interferer
        self.event = event
        radio = self.radio = interferer.radio
        self.tid = radio.medium_id
        self.committed = 0
        self.seq = engine.medium._tx_seq.get(self.tid, 0)
        self.last_us = self.last_created = 0.0
        self.sent = 0

    def lay_out(self, horizon_us: float) -> None:
        """Read the planned bursts firing before the horizon."""
        interferer = self.interferer
        head = interferer.head
        stop = bisect_left(interferer.plan_t, horizon_us, head)
        self.t = np.array(interferer.plan_t[head:stop], dtype=np.float64)
        self.end = np.array(interferer.plan_end[head:stop], dtype=np.float64)
        self.channel = np.array(interferer.plan_channel[head:stop],
                                dtype=np.int64)
        self.length = np.array(interferer.plan_len[head:stop], dtype=np.int64)
        self.is_sent = self.length > 0

    def next_burst_us(self, count: int) -> float:
        """The time of the burst after the first ``count`` planned."""
        interferer = self.interferer
        index = interferer.head + count
        return interferer.plan_t[index] if index < len(interferer.plan_t) \
            else interferer.next_us

    def due_before(self, horizon_us: float) -> int:
        """Bursts of the layout firing before the horizon."""
        return int(np.searchsorted(self.t, horizon_us))

    def crossing(self, count: int):
        """The first ``count`` bursts for the cross-link checks: the sent
        ones' channels, starts, ends and transmission indexes, and every
        event they fire."""
        sent = self.is_sent[:count]
        ends = self.end[:count][sent]
        return (self.channel[:count][sent], self.t[:count][sent], ends,
                np.arange(len(ends)) + self.seq,
                np.concatenate((self.t[:count], ends)))

    def straddles(self, count: int, horizon_us: float) -> Optional[float]:
        """The start of the first of ``count`` bursts still on air at the
        horizon (a busy radio skips bursts, so it need not be the last),
        else ``None``.  A skipped burst ends when it starts, before the
        horizon."""
        late = self.end[:count] >= horizon_us
        first = int(late.argmax()) if count else 0
        return float(self.t[first]) if count and late[first] else None

    def events_in(self, count: int) -> int:
        """Simulator events the first ``count`` bursts fire: the burst and,
        for a sent one, its medium-finish."""
        return count + int(np.count_nonzero(self.is_sent[:count]))

    def sent_frames(self, count: int) -> tuple:
        """The starts, channels and air times of the sent bursts among the
        first ``count``."""
        sent = self.is_sent[:count]
        return (self.t[:count][sent], self.channel[:count][sent],
                _BURST_AIR[self.length[:count][sent]])

    def commit(self, count: int, ids: list, sink, retained: list,
               contacts: dict, busy_at: dict, link_ids) -> None:
        """Emit the first ``count`` planned bursts with the given frame ids
        (one per sent burst, in order) and move the plan past them, absorb
        their inert ``contacts``, write the rx-busy records of the radios
        locked onto a link frame (``busy_at``; ``link_ids`` gives that
        frame's id) that hear them, and file the sent ones ending within
        the recent horizon of the last one in ``retained``."""
        engine, interferer = self.engine, self.interferer
        medium = engine.medium
        interferer.head += count
        sent_mask = self.is_sent[:count]
        times = self.t[:count][sent_mask].tolist()
        ends = self.end[:count][sent_mask].tolist()
        channels = self.channel[:count][sent_mask].tolist()
        lengths = self.length[:count][sent_mask].tolist()
        sent = len(times)
        name, seq, radio = self.radio.name, self.seq, self.radio
        heard = engine._absorb(contacts, radio, seq, sent)
        busy = 0
        if sink.enabled:
            out = None
            if heard:
                # A burst's end records may fall after the next burst's
                # start; sort this block's records by time before handing
                # them on.
                out, sink = sink, Trace()
            transceivers = medium._transceivers
            for index, (t, end, channel, pdu_len, frame_id) in enumerate(
                    zip(times, ends, channels, lengths, ids)):
                listeners = heard.get(index, ())
                for listener, locked in busy_at.get((self.tid, seq + index),
                                                    ()):
                    busy += 1
                    sink.record(t, listener.name, "rx-busy",
                                frame_id=frame_id, locked_to=link_ids(locked))
                for tid, power in listeners:
                    sink.record(t, transceivers[tid].name, "rx-lock",
                                frame_id=frame_id, channel=channel,
                                rssi_dbm=power)
                sink.record(t, name, "tx", channel=channel,
                            aa=NOISE_ACCESS_ADDRESS, pdu_len=pdu_len,
                            frame_id=frame_id)
                for tid, power in listeners:
                    sink.record(end, transceivers[tid].name, "rx",
                                frame_id=frame_id, corrupted=False,
                                rssi_dbm=power)
            if out is not None:
                out._records.extend(sorted(sink._records, key=_TIME))
        elif busy_at:
            busy = sum(len(busy_at.get((self.tid, seq + index), ()))
                       for index in range(sent))
        if sent:
            # Only bursts ending within the recent horizon of the last one
            # survive into the medium's recent window.
            cutoff = ends[-1] - RECENT_HORIZON_US
            for index in range(bisect_left(ends, cutoff), sent):
                retained.append((ends[index], ids[index], times[index],
                                 channels[index], bytes(lengths[index]), 0,
                                 heard.get(index, ()), radio, seq + index,
                                 NOISE_ACCESS_ADDRESS, PhyMode.LE_1M))
            radio._tx_until_us = ends[-1]
            self.last_us = max(self.last_us, ends[-1])
        if count:
            self.last_us = max(self.last_us, float(self.t[count - 1]))
            self.last_created = float(self.t[count - 1])
        if medium._metrics.enabled:
            medium._m_tx.inc(sent)
            if busy:
                medium._m_rx_busy.inc(busy)
        self.seq += sent
        self.sent += sent
        self.committed += count

    def write_back(self) -> list:
        """Hand the track back; returns its burst event to recreate, at the
        first burst not committed, as :meth:`_Links.write_back` does."""
        if not self.committed:
            return []
        interferer, sim = self.interferer, self.engine.sim
        self.event.cancel()
        interferer.bursts_sent += self.sent
        self.engine.medium._tx_seq[self.tid] = self.seq
        next_us = self.next_burst_us(0)
        return [(self.last_created,
                 lambda: sim.schedule_at(next_us, interferer._burst,
                                         "wifi-burst"))]


class QuietCycleEngine(QuietAudit):
    """Closed-form block execution of quiet Master/Slave poll cycles, for
    every link and Wi-Fi track enrolled in it.

    A :class:`~repro.sim.medium.Medium` built on a fast simulator installs
    one (:meth:`~repro.sim.simulator.Simulator.install_fast_forward`); the
    run loop consults :meth:`advance` once per iteration.  The engine is
    default-closed: every condition it cannot prove is a disengage, and the
    cycle in question consumes no RNG draw or frame id.  With metrics
    enabled, each disengage counts as ``ff.disengage.<reason>``, each
    engagement's end as ``ff.cut.<rule>`` (``overlap``, ``listener``,
    ``tie``, ``link-bail`` or ``horizon``) and each absorbed contact as
    ``ff.contact.inert``.
    """

    __slots__ = ("sim", "medium", "links", "tracks", "_parts", "_owners",
                 "_base", "_followers", "_live_counts", "_metrics",
                 "_m_counters", "_pdu_cache", "_csa1_tables", "_audible",
                 "_audible_version", "_in_event_hint", "_unowned_hint",
                 "_veto_hint", "events_fast_forwarded")

    def __init__(self, sim: Simulator, medium: Medium):
        self.sim = sim
        self.medium = medium
        self.tracks: list = []
        # access address -> [master, slave, follower] enrolled under it; a
        # link once both ends are in.
        self._parts: dict = {}
        #: Simulator events this engine has replaced so far.
        self.events_fast_forwarded = 0
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
        self._reindex()

    def enrol(self, member, access_address: Optional[int] = None) -> None:
        """Enter ``member``: a running Wi-Fi interferer as a track, or a
        link layer whose connection formed, or a follower that started
        following, as its part of the link with ``access_address``.  A
        follower follows one link at a time."""
        if access_address is None:
            self.tracks.append(member)
        else:
            role = 0 if isinstance(member, MasterLinkLayer) \
                else 1 if isinstance(member, SlaveLinkLayer) else 2
            for parts in self._parts.values():
                if parts[role] is member:
                    parts[role] = None
            self._parts.setdefault(access_address,
                                   [None, None, None])[role] = member
        self._reindex()

    def leave(self, member) -> None:
        """Take out a stopped track, or, when ``member``'s connection ends,
        its link and that link's follower.  Events they still have queued
        fire as foreign events."""
        if member in self.tracks:
            self.tracks.remove(member)
        else:
            for access_address, parts in self._parts.items():
                if member in parts:
                    del self._parts[access_address]
                    break
            else:
                return
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the links from the enrolled parts, the owners of their
        and the tracks' steady-state events, and the live counts."""
        links = [_Link(*parts) for parts in self._parts.values()
                 if parts[0] is not None and parts[1] is not None]
        owners: dict = {}
        for index, link in enumerate(links):
            owners[link.master._connection_event] = (index, _MASTER)
            owners[link.slave._window_timeout] = (index, _CLOSE)
            owners[link.wo_label] = (index, _OPEN)
            follower = link.follower
            if follower is not None:
                owners[follower._listen_if_following] = (index, _SNIFF_OPEN)
                owners[follower._event_window_closed] = (index, _SNIFF_CLOSE)
        for index, interferer in enumerate(self.tracks):
            owners[interferer._burst] = (index, _BURST)
        self.links: list[_Link] = links
        # queued event handler (or label) -> (link or track index, role)
        self._owners = owners
        # The links with a follower.
        self._followers = [link for link in links if link.follower is not None]
        # Live events of the steady state: 3 per link and 1 per track,
        # plus 2 per following follower.
        self._base = 3 * len(links) + len(self.tracks)
        self._live_counts = frozenset(
            self._base + 2 * following
            for following in range(len(self._followers) + 1))
        # The link last found inside a connection event, and the queued
        # event last found to have no owner (QuietAudit._classify).
        self._in_event_hint = 0
        self._unowned_hint: Optional[Event] = None
        # The link whose verdict vetoed the last audit (QuietAudit._vetoed).
        self._veto_hint = 0

    def _stand_down(self, reason: str) -> None:
        """Count one disengage as ``ff.disengage.<reason>``; callers check
        ``metrics.enabled`` first, so a bare run never gets here.

        An enrolled link whose connection is not yet established has no
        trio queued, so the world fails the live count or the
        between-cycles check until it is; those exits count as
        ``link-not-connected``.
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
        O(1) live-event count against the enrolled links and tracks, the
        next that every medium tap reads nothing but airtime, both ahead
        of any look at the queued events.
        """
        queue = self.sim._queue
        if queue._live not in self._live_counts:
            if self._metrics.enabled:
                self._stand_down("live-count")
            return 0
        extra = queue._live - self._base
        if budget < 6:
            reason = "budget"
        elif not all(getattr(tap, "airtime_only", False)
                     for tap in self.medium._taps):
            reason = "tap-not-airtime"
        else:
            queued = self._classify(queue, extra)
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

    def _peek_power(self, sender: "Transceiver", seq: int,
                    listener: "Transceiver") -> float:
        """The power of ``sender``'s ``seq``-th transmission at
        ``listener``, as the medium's ``_power_at`` computes it.  The
        shadowing draw is read from the link's window, a pure function of
        link and index, so reading it now leaves the medium's read of it
        unchanged."""
        medium = self.medium
        loss = self._mean_loss(sender, listener)
        if medium.path_loss.shadowing_sigma_db > 0.0:
            loss += medium._link_shadow(sender, listener.medium_id).value(seq)
        return sender.tx_power_dbm - loss

    def _heard(self, sender: "Transceiver", seq: int,
               listener: "Transceiver") -> bool:
        """Whether ``listener`` would lock onto ``sender``'s ``seq``-th
        transmission were it listening and idle: not provably deaf, and the
        frame at or above its floor."""
        medium = self.medium
        return self._is_audible(sender, listener) \
            and self._peek_power(sender, seq, listener) \
            >= max(medium.sensitivity_dbm, listener.sensitivity_dbm)

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
        block = _Links(self, self.links, slots)
        if any(block.next_cycle_bails(until_us)):
            return 0
        block.prepare()
        size = block.size
        tracks = [_TrackRun(self, interferer, event)
                  for interferer, event in zip(self.tracks, bursts)]
        credit = medium._metrics.enabled or bool(medium._taps)
        trace = sim.trace
        retained: list = []
        fired = 0
        total = _FIRST_BLOCK_CYCLES
        period = np.array(block.period_us)
        rate = sum(1.0 / period_us for period_us in block.period_us)

        while True:
            # -- 1. speculate: a block of cycles per link, spread by event
            #    rate, within the budget and the horizon ----------------
            room = (budget - fired) // max(1, size)
            span_us = total / rate if rate else total * 1_000.0
            n = np.maximum((span_us / period).astype(np.int64), 1)
            n = np.minimum(n, room // (block.per_cycle + 1))
            if until_us is not None:
                n = np.minimum(n, ((until_us - np.array(block.t_master))
                                   / period).astype(np.int64) + 2)
            block.speculate(n, until_us)
            total = min(8 * total, _BLOCK_CYCLES)

            # -- 2. the first cycle any source, or any interaction between
            #    sources, leaves to the reference path --------------------
            horizon, stop, counts, sent, contacts, (collided, busy_at) = \
                self._block_horizon(block, tracks, until_us, span_us)
            events = block.events_in(counts) \
                + sum(track.events_in(c) for track, c in zip(tracks, sent))
            if not events or fired + events > budget:
                self._settle(collided, np.zeros_like(counts))
                block.cut(np.zeros_like(counts))
                if events or stop is None:
                    stop = "horizon"  # the event budget
                break

            # -- 3. frame ids in start order across every source --------
            block.cut(counts)
            if size + len(tracks) > 1:
                keep = block.keep(counts)
                link_starts = block.f_start[keep]
                starts, channels = [link_starts], [block.f_channel[keep]]
                durations = [block.frame_dur_row[block.f_row[keep]]]
            else:
                link_starts, link_channels, link_durations = \
                    block.lone_frames(counts)
                starts, channels = [link_starts], [link_channels]
                durations = [link_durations]
            sent_bursts = [track.sent_frames(c)
                           for track, c in zip(tracks, sent)]
            for start, chan, duration in sent_bursts:
                starts.append(start)
                channels.append(chan)
                durations.append(duration)
            # (A block of busy-skipped bursts alone sends no frame.)
            order = np.argsort(np.concatenate(starts), kind="stable")
            ids = np.empty(len(order), dtype=np.int64)
            if len(order):
                ids[order] = _take_frame_ids(len(order)) \
                    + np.arange(len(order), dtype=np.int64)
            if credit and len(order):
                self._credit_airtime(
                    np.concatenate(channels)[order].tolist(),
                    np.concatenate(durations)[order].tolist())

            # -- 4. commit, each source into its own record buffer when
            #    several sources' records must be merged by time ----------
            merge = trace.enabled \
                and int(np.count_nonzero(counts)) + sum(map(bool, sent)) > 1
            ids_list = ids.tolist()
            sinks = block.commit(ids_list, trace, merge, retained, contacts,
                                 collided)
            offset = len(link_starts)

            def link_ids(locked):
                return ids_list[block.frame_index(counts, *locked)]

            for track, c, (frames, _, _) in zip(tracks, sent, sent_bursts):
                if not c:
                    continue
                n_sent = len(frames)
                sink = Trace() if merge else trace
                sinks.append(sink)
                track.commit(c, ids_list[offset:offset + n_sent], sink,
                             retained, contacts, busy_at, link_ids)
                offset += n_sent
            if merge:
                trace._records.extend(heapq.merge(
                    *(sink._records for sink in sinks), key=_TIME))
            fired += events
            prune_before = horizon - RECENT_HORIZON_US
            retained = [frame for frame in retained
                        if frame[0] >= prune_before]
            if stop is not None:
                break
            bails = block.next_cycle_bails(until_us)
            if any(bails):
                stop = "link-bail"
                if self._metrics.enabled and not any(
                        own for own, bail in zip(
                            block.next_cycle_bails(None), bails) if bail):
                    stop = "horizon"
                break

        # ------------------------------------------------------------------
        # Materialise: write the end-of-stretch state back so the reference
        # engine resumes as if it had executed every cycle itself.
        # ------------------------------------------------------------------
        pending = block.write_back()
        last_us = max(sim._now, block.last_event_us())
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
        self.events_fast_forwarded += fired
        return fired

    # ------------------------------------------------------------------
    # Cross-link cuts
    # ------------------------------------------------------------------

    def _block_horizon(self, block: _Links, tracks: list,
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
        bailed = block.bailed
        if bailed.any():
            stop = "link-bail"
            if self._metrics.enabled \
                    and block.past_until(until_us)[bailed].all():
                stop = "horizon"
        if block.size:
            horizon = min(block.horizons())
        else:
            horizon = min(track.interferer.next_us
                          for track in tracks) + span_us
        if until_us is not None:
            horizon = min(horizon, until_us)
        for track in tracks:
            track.interferer.plan_until(horizon)
            track.lay_out(horizon)
        hit, rule, contacts, peeked = self._first_interaction(
            block, tracks, horizon)
        if hit < horizon:
            horizon, stop = hit, rule
        while True:
            counts = block.counts(horizon)
            sent = [track.due_before(horizon) for track in tracks]
            moved = False
            for row, c in enumerate(counts.tolist()):
                if c and block.e[row, c - 1] >= horizon \
                        and not self._clamp_handover(block, row, c, horizon,
                                                     counts, tracks, sent):
                    horizon, moved = float(block.s[row, c - 1]), True
            for track, c in zip(tracks, sent):
                start = track.straddles(c, horizon)
                if start is not None:
                    horizon, moved = start, True
            if not moved:
                self._settle(peeked[0], counts)
                return horizon, stop, counts, sent, contacts, peeked

    def _settle(self, collided: list, counts: np.ndarray) -> None:
        """Keep the collision resolutions of committed cycles, and leave the
        collision stream before the first one dropped.  Cycles commit in
        time order, so those kept come first."""
        for index, (row, _slot, cycle, _tid, state, _outcome) in enumerate(
                collided):
            if cycle >= counts[row]:
                self.medium._collision_rng.bit_generator.state = state
                del collided[index:]
                return

    @staticmethod
    def _clamp_handover(block: _Links, row: int, c: int, horizon: float,
                        counts: np.ndarray, tracks: list,
                        sent: list) -> bool:
        """Whether ``row``'s cycle ``c - 1``, ending at the horizon, may
        still commit: its next-master clamp binds, so its response ends at
        its own next master event (the horizon), and no other source's
        next event lies within ``TIME_EPS_US`` of it, so handing over
        there keeps every queue order."""
        if c != block.k[row] or block.e[row, c - 1] > horizon \
                or block.s_after[row, c - 1] > horizon:
            return False
        k = block.k
        next_us = np.where(
            counts < k,
            block.s[block.rows, np.minimum(counts, block.s.shape[1] - 1)],
            np.array(block.horizons()))
        near = next_us - horizon <= TIME_EPS_US
        near[row] = False
        if near.any():
            return False
        for track, track_c in zip(tracks, sent):
            if track.next_burst_us(track_c) - horizon <= TIME_EPS_US:
                return False
        return True

    def _first_interaction(self, block: _Links, tracks: list,
                           horizon: float):
        """The earliest time two sources' speculated activity before the
        horizon would meet (``inf`` if never), the rule that found it
        (``"overlap"``, ``"listener"`` or ``"tie"``; ``None`` if none did),
        the inert contacts before it, and the collisions and rx-busy
        records it peeked (``(collided, busy_at)``):

        * two links' frames overlap on one channel, or a burst overlaps a
          link frame that would not survive it (:meth:`_collide`);
        * a frame starts on a channel where another source's radio listens
          and is not provably deaf to its sender, unless the contact is
          inert (:meth:`_inert`) or the radio is locked onto its own link's
          frame (an rx-busy, filed in ``busy_at`` by burst);
        * two sources' events fall within ``TIME_EPS_US`` of each other,
          so queue order would decide which fires first.

        The links' frames, windows and events are read off the block's
        (links × cycles) arrays, row by row; the tracks' bursts follow.  A
        radio is numbered by its place in ``block.radios`` (each link's
        Master, then each Slave, then each follower) and then the tracks'.
        Contacts map a sender's medium id to its ``(transmission index,
        listener)`` pairs; the commits absorb those of committed frames.
        """
        contacts: dict = {}
        collided: list = []
        busy_at: dict = {}
        size = block.size
        if size + len(tracks) < 2:
            # a lone source meets nobody
            return np.inf, None, contacts, (collided, busy_at)
        counts = block.counts(horizon)
        block.lay_out(counts)
        # A link's frame starts inside its receiver's window and, with a
        # follower, inside the follower's.
        f_ch, f_start, f_end, f_seqs, f_senders, f_owners = \
            [block.f_channel], [block.f_start], [block.f_end], [block.f_seq], \
            [block.f_sender], [block.f_row]
        f_own = [block.own_row[block.f_row]]
        # Listening windows: the Slave from window-open to the master
        # frame's end, the Master from rx-on to the response's end and a
        # follower from its sniff-open to its next one; and every event.
        width = max(block.k.tolist(), default=0)
        cycles = block.col[:width] < counts[:, None]

        def cut(values):
            return values[:, :width]

        end_m, end_r = cut(block.end_m), cut(block.end_r)
        t_o, rx_on = cut(block.t_o), end_m + 1.0
        rows = np.broadcast_to(block.rows[:, None], cycles.shape)
        kinds = [(t_o, end_m, rows + size, cycles),
                 (rx_on, end_r, rows, cycles)]
        events = [(t_o, cycles), (cut(block.t_m), cycles),
                  (cut(block.t_c), cycles & cut(block.seven)),
                  (end_m, cycles), (rx_on, cycles), (cut(block.t_resp), cycles),
                  (end_r, cycles)]
        if block.lane_rows:
            lane_cycles = cycles & (block.per_cycle == 8)[:, None]
            kinds.append((cut(block.a_open), cut(block.open_next),
                          rows + 2 * size, lane_cycles))
            events += [(cut(block.a_open), lane_cycles),
                       (cut(block.a_close), lane_cycles)]
        mask = np.stack([kind[3] for kind in kinds], axis=1)
        w_ch, w_open, w_close, w_listener = (
            [np.stack(column, axis=1)[mask]] for column in zip(
                *[(cut(block.channels), *kind[:3]) for kind in kinds]))
        w_owner = [np.repeat(block.rows, mask.sum(axis=(1, 2)))]
        for row in block.lane_rows:
            # The follower stays parked on its last channel, tuned in since
            # its last sniff-open, until its next one.
            radio = block.a_radio[row]
            parked, since = (block.last_channel[row],
                             block.last_sniff_open[row]) \
                if block.committed[row] \
                else (radio._rx_channel, radio._rx_since_us)
            if parked is not None:
                for column, value in zip(
                        (w_ch, w_open, w_close, w_listener, w_owner),
                        (parked, since, block.t_sniff_open[row],
                         2 * size + row, row)):
                    column.append(np.array([value]))
        mask = np.stack([event[1] for event in events], axis=2)
        e_times = [np.stack([event[0] for event in events], axis=2)[mask]]
        e_owner = [np.repeat(block.rows, mask.sum(axis=(1, 2)))]
        radios = block.radios + [track.radio for track in tracks]
        for index, track in enumerate(tracks):
            c = len(track.t)
            if not c:
                continue
            ch, starts, ends, seqs, times = track.crossing(c)
            owner = size + index
            f_ch.append(ch)
            f_start.append(starts)
            f_end.append(ends)
            f_seqs.append(seqs)
            f_senders.append(np.full(len(starts), 3 * size + index))
            f_owners.append(np.full(len(starts), owner))
            f_own.append(np.zeros(len(starts), dtype=np.int64))
            e_times.append(times)
            e_owner.append(np.full(len(times), owner))
        fch, fs, fe, f_seq, f_sender, f_owner, own_all = (
            np.concatenate(column) for column in (
                f_ch, f_start, f_end, f_seqs, f_senders, f_owners, f_own))
        if not len(fs):
            return np.inf, None, contacts, (collided, busy_at)
        hit, rule = np.inf, None
        # Intervals are compared through (channel, time) keys: the time
        # relative to the block plus a channel stride wider than the block,
        # so one sorted array serves every channel.  Keys round, so each
        # comparison is widened by a slack: a near miss may be flagged (and
        # is then checked exactly, or costs a needless cut), a hit never
        # slips through.
        wch, ws, we = (np.concatenate(column)
                       for column in (w_ch, w_open, w_close))
        windows = bool(len(ws))
        t_end = float(fe.max())
        if windows:
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
        # Per link frame, the bursts overlapping it.
        struck: dict = {}
        if len(fs) > 1:
            # In (channel, start) order, a frame may overlap an earlier one
            # when the running maximum end before it passes its start; each
            # such frame's partners are then found exactly.
            order = np.argsort(s_key, kind="stable")
            after = np.maximum.accumulate(e_key[order])[:-1] \
                > s_key[order][1:] - slack
            # A frame that overlaps a later one also overlaps the next one
            # in that order, which starts first among them; so flagging
            # each overlapping frame and the one before it in that order
            # flags every crowded frame (and, rarely, a lone one too).
            crowded[order[1:]] = after
            crowded[order[:-1]] |= after
            for b in order[1:][after].tolist():
                start = fs[b]
                for a in np.flatnonzero((fch == fch[b]) & (fs <= start)
                                        & (fe > start)).tolist():
                    if a == b or own_all[a] == own_all[b] == 0:
                        continue  # two bursts nobody hears overlap freely
                    if own_all[a] and own_all[b]:
                        # Two delivered frames; the other frame of the pair
                        # may start first, and the horizon's straddle rule
                        # then pulls back to it.
                        if start < hit:
                            hit, rule = float(start), "overlap"
                    else:
                        link, burst = (a, b) if own_all[a] else (b, a)
                        struck.setdefault(link, set()).add(burst)
        if windows:
            w_listener, w_owner = (np.concatenate(column)
                                   for column in (w_listener, w_owner))
            lo, hi = ws - TIME_EPS_US, we + TIME_EPS_US
            # Count the windows open on each frame's channel at its start.
            inside = np.searchsorted(np.sort(keys(wch, lo)), s_key + slack,
                                     "right") \
                - np.searchsorted(np.sort(keys(wch, hi)), s_key - slack,
                                  "left")
            candidates = np.flatnonzero(inside > own_all)
            candidates = candidates[np.argsort(fs[candidates])]
            # Each candidate's foreign windows, exactly.
            at = fs[candidates][:, None]
            foreign_at = (wch == fch[candidates][:, None]) & (lo <= at) \
                & (at <= hi) & (w_owner != f_owner[candidates][:, None])
            for i, foreign in zip(candidates.tolist(), foreign_at):
                start = fs[i]
                if start >= hit:
                    break
                sender = radios[int(f_sender[i])]
                seq = int(f_seq[i])
                foreign = np.flatnonzero(foreign).tolist()
                heard = [j for j in foreign
                         if self._heard(sender, seq,
                                        radios[int(w_listener[j])])]
                if f_owner[i] >= size:
                    # A burst heard by a radio locked onto its own link's
                    # frame is an rx-busy, not a lock.
                    busy = [(j, locked) for j in heard for locked in (
                        block.locked_on(int(w_owner[j]),
                                        int(w_listener[j]), float(start)),)
                            if locked is not None
                            and radios[int(w_listener[j])].rx_phy
                            is PhyMode.LE_1M]
                    if busy:
                        busy_at[(sender.medium_id, seq)] = [
                            (radios[int(w_listener[j])], locked)
                            for j, locked in sorted(
                                busy, key=lambda entry: radios[int(
                                    w_listener[entry[0]])].medium_id)]
                        heard = [j for j in heard
                                 if j not in dict(busy)]
                if not heard:
                    continue
                if crowded[i] or not all(
                        self._inert(block, int(f_owner[i]), float(start),
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
        times = np.concatenate(e_times)
        if (np.diff(np.sort(times)) <= TIME_EPS_US).any():
            order = np.argsort(times, kind="stable")
            t_sorted = times[order]
            o_sorted = np.concatenate(e_owner)[order]
            tie = (np.diff(t_sorted) <= TIME_EPS_US) \
                & (o_sorted[1:] != o_sorted[:-1])
            if tie.any():
                first_tie = float(t_sorted[:-1][tie].min())
                if first_tie < hit:
                    hit, rule = first_tie, "tie"
        if struck:
            hit, rule = self._collide(block, struck, hit, rule, fs,
                                      fe, f_sender, f_seq, radios, collided)
        return hit, rule, contacts, (collided, busy_at)

    def _collide(self, block: _Links, struck: dict, hit: float,
                 rule: Optional[str], fs, fe, f_sender, f_seq, radios: list,
                 collided: list):
        """Resolve, in finish order and on the medium's own collision
        stream, each link frame ending before ``hit`` against the bursts
        overlapping it, at each of its receivers, as the medium would at
        its finish; file each outcome with the stream state before it in
        ``collided``.  A frame that would not survive becomes the new
        ``hit`` (rule ``"overlap"``).  Returns the hit and its rule."""
        medium = self.medium
        rng = medium._collision_rng
        for a in sorted(struck, key=lambda frame: fe[frame]):
            start, end = float(fs[a]), float(fe[a])
            if end >= hit:
                break
            row, slot, cycle = (int(block.f_row[a]), int(block.f_slot[a]),
                                int(block.f_cycle[a]))
            sender, seq = radios[int(f_sender[a])], int(f_seq[a])
            # The medium resolves against the frames still on air (in
            # start order), then the finished ones (in finish order).
            bursts = sorted(struck[a], key=lambda x: (
                fe[x] <= end, fs[x] if fe[x] > end else fe[x]))
            receivers = [block.sr[row] if slot == 0 else block.mr[row]]
            if block.lanes[row] is not None:
                receivers.append(block.a_radio[row])
            wanted = _Wanted(block.phys[row])
            for receiver in sorted(receivers, key=attrgetter("medium_id")):
                power = self._peek_power(sender, seq, receiver)
                overlaps = [Overlap(
                    start_us=max(start, float(fs[x])),
                    end_us=min(end, float(fe[x])),
                    sir_db=power - self._peek_power(
                        radios[int(f_sender[x])], int(f_seq[x]), receiver))
                    for x in bursts]
                # Shared by every reception, with a varying draw count per
                # resolution: the one stream the kernel saves and restores.
                state = rng.bit_generator.state
                outcome = medium.collision.resolve(wanted, overlaps, rng)
                collided.append((row, slot, cycle, receiver.medium_id, state,
                                 outcome))
                if not outcome.survived:
                    return start, "overlap"
        return hit, rule

    @staticmethod
    def _inert(block: _Links, sender_owner: int, start: float,
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
        if sender_owner < block.size:
            aa, phy = block.aa[sender_owner], block.phys[sender_owner]
        else:
            aa, phy = NOISE_ACCESS_ADDRESS, PhyMode.LE_1M
        if aa == block.aa[owner] or listener.rx_phy is not phy:
            return False
        if not (opened + TIME_EPS_US < start and end < closes - TIME_EPS_US):
            return False
        if listener is block.sr[owner]:
            handler = block.slaves[owner]._on_frame
        elif listener is block.mr[owner]:
            handler = block.masters[owner]._on_frame
        else:
            handler = block.lanes[owner]._on_follow_frame
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
