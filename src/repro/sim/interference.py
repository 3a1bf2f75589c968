"""Background RF interference sources.

The paper's experiments ran "in a realistic environment, including several
other BLE devices and multiple WiFi routers" (§VII-A).  This module
provides interferers that occupy the simulated band so robustness can be
studied: a Wi-Fi-like wideband burster parked on a block of channels, and
a rogue BLE advertiser hammering the advertising channels.

An interferer is the only reader of its ``wifi-{name}`` stream: it keeps
a plan of its bursts, drawn lazily in firing order and consumed by index,
which its own burst events fire from and the fast-forward kernel reads
ahead in and commits from.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.modulation import PhyMode, air_time_us
from repro.sim.events import TIME_EPS_US
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.transceiver import Transceiver

#: The junk access address interference bursts are addressed under.  A
#: BLE receiver cannot demodulate such a carrier — observers that model
#: a BLE monitor (e.g. the defense bench's detector bank) treat frames
#: with this AA as channel energy, never as decodable PDUs.
NOISE_ACCESS_ADDRESS = 0x55AA55AA

#: A noise burst's air time by PDU length (1-250 bytes; index 0 unused).
_BURST_AIR_US = tuple(air_time_us(length, PhyMode.LE_1M)
                      for length in range(251))


class WifiInterferer:
    """A Wi-Fi-like burst source occupying a block of BLE channels.

    A 20 MHz Wi-Fi channel covers ~10 BLE channels; each burst lands on a
    random channel of the block.  Burst length and spacing are drawn from
    exponential distributions parameterised by a duty cycle.

    The bursts are drawn into the plan one at a time, in the order the
    burst events fire: a burst's length and channel (only when the radio
    is idle, i.e. the last burst sent has ended) and then the gap to the
    next burst.  Whether the radio is idle depends only on this
    interferer's own bursts, so the plan is a pure function of its stream,
    however far ahead it is drawn.  The plan is kept as columns
    (:attr:`plan_t`, :attr:`plan_end`, :attr:`plan_channel`,
    :attr:`plan_len`) read by index: :attr:`head` is the next burst to
    fire, which the burst events and the fast-forward kernel move on, and
    the kernel reads a block's bursts as slices.  An interferer starts
    once: a restart would have to rewind a stream the plan has already
    moved.  A stopped interferer leaves the fast-forward engine's tracks.

    Args:
        sim: owning simulator.
        medium: radio medium (``name`` must be placed in its topology).
        name: interferer name.
        channels: BLE channels the carrier overlaps (default: the block
            around Wi-Fi channel 6, BLE channels 11-20).
        duty_cycle: fraction of time spent transmitting (0-1).
        mean_burst_us: average burst duration.
        tx_power_dbm: burst power.
    """

    #: Fired bursts kept at the plan's head before they are dropped.
    _KEEP_FIRED = 256

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str = "wifi",
        channels: Optional[Sequence[int]] = None,
        duty_cycle: float = 0.05,
        mean_burst_us: float = 800.0,
        tx_power_dbm: float = 5.0,
    ):
        if not 0.0 < duty_cycle < 1.0:
            raise ConfigurationError(
                f"duty cycle must be in (0, 1), got {duty_cycle}")
        self.sim = sim
        self.channels = tuple(channels) if channels is not None else tuple(
            range(11, 21))
        self.duty_cycle = duty_cycle
        self.mean_burst_us = mean_burst_us
        self._mean_gap_us = mean_burst_us * (1.0 - duty_cycle) / duty_cycle
        self.radio = Transceiver(sim, medium, name,
                                 tx_power_dbm=tx_power_dbm)
        self._rng: np.random.Generator = sim.streams.get(f"wifi-{name}")
        self._running = False
        #: The planned bursts, in firing order: each one's time, its end
        #: (its time when the radio is still busy and it is skipped), its
        #: channel and its PDU length (0 when skipped).  Bursts before
        #: :attr:`head` have fired.
        self.plan_t: list = []
        self.plan_end: list = []
        self.plan_channel: list = []
        self.plan_len: list = []
        self.head = 0
        #: The time of the first burst not yet planned (its gap is drawn),
        #: ``None`` before :meth:`start`.
        self.next_us: Optional[float] = None
        self._tx_until = self.radio._tx_until_us
        self.bursts_sent = 0

    def start(self) -> None:
        """Begin bursting."""
        if self.next_us is not None:
            raise ConfigurationError(
                f"interferer {self.radio.name!r} cannot be restarted")
        self._running = True
        gap = float(self._rng.exponential(self._mean_gap_us))
        self.next_us = self.sim.now + max(gap, 1.0)
        self.sim.schedule_at(self.next_us, self._burst, "wifi-burst")
        engine = self.sim.fast_forward
        if engine is not None:
            engine.enrol(self)

    def stop(self) -> None:
        """Stop after any in-flight burst; the planned ones never fire,
        and the track leaves the fast-forward engine, if any."""
        self._running = False
        for column in (self.plan_t, self.plan_end, self.plan_channel,
                       self.plan_len):
            column.clear()
        self.head = 0
        engine = self.sim.fast_forward
        if engine is not None:
            engine.leave(self)

    def plan_until(self, horizon_us: float) -> None:
        """Plan every burst due before ``horizon_us``."""
        assert self.next_us is not None  # started
        t = self.next_us
        if not t < horizon_us:
            return
        head = self.head
        if head >= self._KEEP_FIRED:
            for column in (self.plan_t, self.plan_end, self.plan_channel,
                           self.plan_len):
                del column[:head]
            self.head = 0
        rng, channels = self._rng, self.channels
        exponential, integers, n_channels = \
            rng.exponential, rng.integers, len(channels)
        mean_burst, mean_gap = self.mean_burst_us, self._mean_gap_us
        tx_until = self._tx_until
        add_t, add_end, add_channel, add_len = (
            self.plan_t.append, self.plan_end.append,
            self.plan_channel.append, self.plan_len.append)
        while t < horizon_us:
            # Transceiver.is_transmitting(t): a burst waits out the last.
            if tx_until > t + TIME_EPS_US:
                add_end(t)
                add_channel(0)
                add_len(0)
            else:
                # The burst lasts at least 40 µs and is encoded as a PDU
                # long enough to span it (8 µs per byte at LE 1M
                # equivalence), of 1 to 250 bytes.
                pdu_len = int(exponential(mean_burst) / 8.0) - 8
                pdu_len = 1 if pdu_len < 1 else 250 if pdu_len > 250 \
                    else pdu_len
                # One integers(0, len) draw, as Generator.choice makes.
                add_channel(int(channels[integers(n_channels)]))
                add_len(pdu_len)
                tx_until = t + _BURST_AIR_US[pdu_len]
                add_end(tx_until)
            add_t(t)
            gap = exponential(mean_gap)
            t += gap if gap > 1.0 else 1.0
        self.next_us, self._tx_until = t, tx_until

    def _burst(self) -> None:
        if not self._running:
            return
        head = self.head
        if head == len(self.plan_t):
            # Bursts lie 1 µs apart at the least: this plans exactly one.
            self.plan_until(self.sim.now + 1.0)
            head = self.head
        pdu_len, channel = self.plan_len[head], self.plan_channel[head]
        self.head = head = head + 1
        after = self.plan_t[head] if head < len(self.plan_t) \
            else self.next_us
        if pdu_len:
            self.radio.transmit(NOISE_ACCESS_ADDRESS, bytes(pdu_len), 0,
                                channel)
            self.bursts_sent += 1
        self.sim.schedule_at(after, self._burst, "wifi-burst")


class RogueAdvertiser:
    """A chatty BLE advertiser congesting the advertising channels.

    Models the "several other BLE devices" of the paper's environment:
    it stresses CONNECT_REQ capture and initiator scanning.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str = "rogue-adv",
        adv_interval_ms: float = 25.0,
        tx_power_dbm: float = 0.0,
    ):
        from repro.host.gap import adv_data_with_name
        from repro.ll.pdu.address import BdAddress
        from repro.ll.slave import SlaveLinkLayer

        self.ll = SlaveLinkLayer(
            sim, medium, name,
            BdAddress.generate(sim.streams.get(f"addr-{name}")),
            adv_interval_ms=adv_interval_ms,
            adv_data=adv_data_with_name(name),
            tx_power_dbm=tx_power_dbm,
        )

    def start(self) -> None:
        """Begin advertising."""
        self.ll.start_advertising()

    def stop(self) -> None:
        """Stop advertising."""
        self.ll.stop_advertising()
