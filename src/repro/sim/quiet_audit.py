"""The eligibility audit of the quiet-cycle engine.

:class:`QuietAudit` is the half of
:class:`~repro.sim.fastforward.QuietCycleEngine` that decides whether the
world is in a steady state the block kernel can replay: it matches the
queued events against each enrolled link's and track's steady-state
events, and checks every link, follower, track and bystander radio for
anything the kernel cannot reproduce bit for bit.  A link enrols when its
connection forms and leaves when it ends; a track while it runs; a
follower joins the link it follows.  The audit is default-closed: every
condition it cannot prove is a disengage reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ll.csa1 import NUM_DATA_CHANNELS
from repro.ll.pdu.data import LLID
from repro.ll.timing import WINDOW_WIDENING_CONSTANT_US
from repro.sim.medium import LINK_MARGIN_SIGMAS
from repro.utils.units import PPM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sniffer import ConnectionSniffer
    from repro.sim.fastforward import _Link
    from repro.sim.transceiver import Transceiver

#: Roles of a queued event in :meth:`QuietAudit._classify`: its index in a
#: link's slot list, or a track's burst.
_OPEN, _CLOSE, _MASTER, _SNIFF_OPEN, _SNIFF_CLOSE = range(5)
_BURST = -1

_LLID_CONTROL = int(LLID.CONTROL)


class QuietAudit:
    """Whether the world is in a replayable steady state, and why not.

    Mixed into :class:`~repro.sim.fastforward.QuietCycleEngine`, whose
    enrolled ``links``, ``tracks``, event owners and ``medium`` it reads.

    A link's and a follower's verdict has two halves.  The *set-up* half
    (established, no procedure armed, no encryption, parameters in step,
    the follower passive, the link's margin) changes only at events that
    bump a version: the devices' ``audit_version`` (encryption,
    termination), the connections' ``version`` (a procedure armed or
    fallen due, first established), the follower's ``audit_version``
    (following, pausing, its per-event hook) and the topology's
    ``version``.  A link lives exactly as long as its two connections, so
    it keeps that half with the versions it was derived at and re-derives
    it only when one of them moved.  The *between-cycles* half (queues,
    ARQ, anchors, hop state, radios) is read afresh on every audit.  A
    track's verdict is its place in the track set, and a dead link's its
    place in the link set: both leave.
    """

    def _classify(self, queue, extra: int):
        """Match the live events against each link's trio and follower
        pair and each track's burst.

        Returns ``(slots, bursts)`` — per link ``[window-open,
        window-close, master event, sniff-open, sniff-close]``, the last
        two ``None`` for a link whose follower is not following; per track
        its burst event — or a disengage reason.  The cheap checks come
        first: a link mid-event, the event last found unowned, and then
        :meth:`_vetoed`, all before the scan of the queue.
        """
        links = self.links
        if not links and not self.tracks:
            return "unclassified"
        # Between cycles, a Slave's window-close is always queued and the
        # Master awaits no response.  The link last found mid-event, and
        # the event last found unowned, are the likeliest to be still.
        hint = self._in_event_hint
        for index in (hint, *range(len(links))) if hint < len(links) \
                else range(len(links)):
            link = links[index]
            window_close = link.slave._window_close
            if window_close is None or window_close._queue is None \
                    or link.master._awaiting_response:
                self._in_event_hint = index
                return "link-in-event"
        unowned = self._unowned_hint
        if unowned is not None and unowned._queue is not None:
            return "unclassified"
        vetoed = self._vetoed(extra)
        if vetoed is not None:
            return vetoed
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
                # A window-open is a closure, known by its label; a
                # follower's sniff-open a partial.
                owner = owners.get(event.label) \
                    or owners.get(getattr(handler, "func", None))
                if owner is None:
                    self._unowned_hint = event
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
    # Eligibility (default-closed)
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
            margin = LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
            floor = max(medium.sensitivity_dbm, listener.sensitivity_dbm)
            audible = self._audible[key] = (
                sender.tx_power_dbm - self._mean_loss(sender, listener)
                + margin >= floor)
        return audible

    def _ineligible(self, slots, bursts) -> Optional[str]:
        """Why the world cannot be fast-forwarded now, or ``None``."""
        medium = self.medium
        # Medium must be silent: no frame in flight, no receiver locked.
        if medium._active or medium._locks:
            return "medium-busy"
        topology = medium.topology.version
        engaged = set()
        links = self.links
        order = range(len(links))
        if any(slot[_SNIFF_OPEN] is not None for slot in slots):
            # Links with a following follower first: an attack in progress
            # (a sniffer with a callback) is the commonest veto.
            order = sorted(order, key=lambda index: slots[index][_SNIFF_OPEN]
                           is None)
        for index in order:
            link, ev_sniff_open = links[index], slots[index][_SNIFF_OPEN]
            lane = link.follower if ev_sniff_open is not None else None
            reason = self._link_verdict(link, topology) \
                or self._link_state_reason(link)
            if reason is None and lane is not None:
                reason = self._follower_verdict(link, lane) \
                    or self._follower_reason(link, lane, ev_sniff_open)
            if reason is not None:
                self._veto_hint = index
                return reason
            engaged.add(link.master.radio)
            engaged.add(link.slave.radio)
            if lane is not None:
                engaged.add(lane.radio)
        for interferer in self.tracks:
            if interferer.radio.on_tx_complete is not None:
                return "track-busy"
            engaged.add(interferer.radio)
        # Every other transceiver stays idle while nothing else runs.
        now = self.sim.now
        for rx in medium._transceivers.values():
            if rx in engaged:
                continue
            if rx._rx_channel is not None or rx.is_transmitting(at_us=now):
                return "foreign-listener"
        return None

    def _vetoed(self, extra: int) -> Optional[str]:
        """A verdict that rules the world out before its events are
        matched, or ``None``: while a follower is due to follow
        (``extra``), every follower failing its set-up half, or the link
        that vetoed the last audit, if it still does.  Either way the full
        audit would veto too, whatever the events."""
        followers = self._followers
        if extra and followers and all(
                self._follower_verdict(link, link.follower)
                for link in followers):
            return "follower-not-passive"
        links = self.links
        hint = self._veto_hint
        if hint < len(links):
            link = links[hint]
            return self._link_verdict(link, self.medium.topology.version) \
                or self._link_state_reason(link)
        return None

    @staticmethod
    def _link_down(link: _Link) -> bool:
        """Whether an enrolled link's connection is not yet established."""
        return not (link.master.conn.established
                    and link.slave.conn.established)

    def _link_verdict(self, link: _Link, topology: int) -> Optional[str]:
        """The set-up half of a link's verdict, re-derived only when a
        version it was derived at moved."""
        master, slave = link.master, link.slave
        mconn, sconn = master.conn, slave.conn
        version = (master.audit_version, slave.audit_version,
                   mconn.version, sconn.version, topology)
        if version != link.version:
            link.version = version
            link.verdict = self._link_setup_reason(link)
        return link.verdict

    def _link_setup_reason(self, link: _Link) -> Optional[str]:
        """Why a link's set-up cannot be replayed, or ``None``: it is not
        established, has a procedure armed or encryption on, its two ends
        disagree on the parameters, or it has too little margin."""
        master, slave, medium = link.master, link.slave, self.medium
        if self._link_down(link):
            return "link-not-connected"
        mconn, sconn = master.conn, slave.conn
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
        mp, sp = mconn.params, sconn.params
        if (mp.access_address != sp.access_address
                or mp.crc_init != sp.crc_init
                or mp.interval != sp.interval
                or mp.use_csa2 != sp.use_csa2
                or mp.master_sca_ppm != sp.master_sca_ppm):
            return "link-out-of-step"
        if master.phy is not slave.phy:
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
        if not self._same_hop_sequence(mconn, sconn):
            return "link-out-of-step"
        # Both links need enough margin that shadowing can never fade a
        # frame below the sensitivity floor (hard-checked per draw anyway).
        mr, sr = master.radio, slave.radio
        margin = LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        if mr.tx_power_dbm - self._mean_loss(mr, sr) - floor_s <= margin:
            return "link-margin"
        if sr.tx_power_dbm - self._mean_loss(sr, mr) - floor_m <= margin:
            return "link-margin"
        return None

    def _link_state_reason(self, link: _Link) -> Optional[str]:
        """Why a link's state between cycles cannot be replayed, or
        ``None``.  (:meth:`_classify` has found its Master awaiting no
        response.)  The radios come first: a Slave listening in its window
        before the Master's event is the commonest veto."""
        master, slave = link.master, link.slave
        mr, sr = master.radio, slave.radio
        if mr._rx_channel is not None or sr._rx_channel is not None:
            return "link-radio-busy"
        if mr.on_tx_complete is not None or sr.on_tx_complete is not None:
            return "link-radio-busy"
        if master._tx_queue or slave._tx_queue:
            return "link-busy"
        mconn, sconn = master.conn, slave.conn
        if not (self._retransmit_state_ok(mconn)
                and self._retransmit_state_ok(sconn)):
            return "link-busy"
        if mconn.last_valid_rx_local_us is None \
                or sconn.last_valid_rx_local_us is None:
            return "link-out-of-step"
        if slave._anchor_local is None or slave._events_since_anchor != 1:
            return "link-out-of-step"
        if master._anchor_local is None:
            return "link-out-of-step"
        if mconn.event_count != sconn.event_count:
            return "link-out-of-step"
        if mr.rx_phy is not master.phy or sr.rx_phy is not slave.phy:
            return "link-out-of-step"
        if not self._channels_lockstep(mconn, sconn):
            return "link-out-of-step"
        return None

    @staticmethod
    def _follower_verdict(link: _Link, lane: "ConnectionSniffer"
                          ) -> Optional[str]:
        """The set-up half of a follower's verdict: it must be a
        callback-free passive listener.  Re-derived only when its version
        moved."""
        if lane.audit_version != link.lane_version:
            link.lane_version = lane.audit_version
            link.lane_verdict = "follower-not-passive" \
                if not lane.following or lane.paused \
                or lane.on_event is not None else None
        return link.lane_verdict

    def _follower_reason(self, link: _Link, lane: "ConnectionSniffer",
                         ev_sniff_open) -> Optional[str]:
        """The follower must be in step with the victims' hop sequence and
        not provably deaf to them."""
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
    def _same_hop_sequence(mconn, sconn) -> bool:
        """Both ends select channels with the same algorithm, parameters
        and channel map."""
        m_sel, s_sel = mconn.selector, sconn.selector
        if m_sel._channel_map != s_sel._channel_map:
            return False
        if mconn.params.use_csa2:
            return sconn._selector_is_csa2 and mconn._selector_is_csa2 \
                and m_sel._ch_id == s_sel._ch_id
        return not (sconn._selector_is_csa2 or mconn._selector_is_csa2) \
            and m_sel.hop_increment == s_sel.hop_increment

    @staticmethod
    def _channels_lockstep(mconn, sconn) -> bool:
        """Both selectors (producing one hop sequence) must run in
        lockstep.

        The Slave runs one selector step ahead (it advances when scheduling
        the window, the Master when the event fires), so the Master's
        unmapped index plus one hop must land on the Slave's.
        """
        s_sel = sconn.selector
        if sconn.current_channel is None:
            return False
        if mconn.params.use_csa2:
            return s_sel.channel_for_event(sconn.event_count) \
                == sconn.current_channel
        hop = s_sel.hop_increment
        if (mconn.selector._last_unmapped + hop) % NUM_DATA_CHANNELS \
                != s_sel._last_unmapped:
            return False
        return s_sel._map(s_sel._last_unmapped) == sconn.current_channel
