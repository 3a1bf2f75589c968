"""Wideband frame capture over the simulated medium.

A :class:`FrameRecorder` taps the :class:`~repro.sim.medium.Medium` (the
simulated equivalent of an SDR monitor sitting next to the testbed) and
keeps one :class:`~repro.telemetry.pcap.NordicBleFrame` per transmission:

* **CRC verdicts** are exact for connections whose CONNECT_REQ was
  captured (CRCInit learned from it, like the paper's sniffer does) and
  for advertising traffic; data frames under an unknown CRCInit are
  marked good, matching what a real sniffer reports before recovery.
* **Direction** is inferred per access address from connection-event
  timing (the Master opens each event; the Slave answers T_IFS later).
* **RSSI** is what a monitor co-located with the victims would measure:
  the transmit power minus a nominal 1 m free-space loss — captures are
  about *what* was sent *when*; fine-grained fading lives in the medium.

The recorder keeps every frame in memory and exports them to PCAP
(:meth:`write_pcap`) or JSONL (:meth:`write_jsonl`); it is also the one
tap behind ``repro capture``'s text log, which
:func:`repro.analysis.packets.render_capture` dissects from
:attr:`frames`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.pdu.advertising import ConnectReq, decode_advertising_pdu
from repro.phy.crc import ADVERTISING_CRC_INIT, crc24
from repro.phy.signal import RadioFrame
from repro.sim.medium import Medium
from repro.telemetry.pcap import NordicBleFrame, write_pcap

__all__ = ["FrameRecorder"]

#: Free-space loss at the nominal 1 m monitor distance, dB.
_MONITOR_LOSS_DB = 40.0

#: Frames closer than this on one AA belong to one connection event.
_EVENT_GAP_US = 2_000.0


class FrameRecorder:
    """Records every frame put on air, ready for PCAP/JSONL export.

    Args:
        medium: the medium to tap (taps fire at every frame start).
        board_id: board id stamped into the Nordic framing.
    """

    def __init__(self, medium: Medium, board_id: int = 0) -> None:
        self.board_id = board_id
        self.frames: list[NordicBleFrame] = []
        self._crc_inits: dict[int, int] = {}
        self._event_state: dict[int, tuple[float, int]] = {}
        medium.add_tap(self._on_frame)

    # ------------------------------------------------------------------
    # Tap
    # ------------------------------------------------------------------

    def _on_frame(self, frame: RadioFrame) -> None:
        aa = frame.access_address
        if aa == ADVERTISING_ACCESS_ADDRESS:
            crc_ok = crc24(frame.pdu, ADVERTISING_CRC_INIT) == frame.crc
            master_to_slave = False
            event_counter = 0
            self._learn_connection(frame)
        else:
            crc_init = self._crc_inits.get(aa)
            crc_ok = (crc24(frame.pdu, crc_init) == frame.crc
                      if crc_init is not None else True)
            master_to_slave, event_counter = self._advance_event(aa, frame)
        self.frames.append(NordicBleFrame(
            time_us=int(round(frame.start_us)),
            access_address=aa,
            channel=frame.channel,
            rssi_dbm=int(round(frame.tx_power_dbm - _MONITOR_LOSS_DB)),
            pdu=bytes(frame.pdu),
            crc=frame.crc,
            crc_ok=crc_ok,
            master_to_slave=master_to_slave,
            event_counter=event_counter,
            board_id=self.board_id,
        ))

    def _learn_connection(self, frame: RadioFrame) -> None:
        """Learn CRCInit (and reset event counting) from a CONNECT_REQ."""
        try:
            pdu = decode_advertising_pdu(frame.pdu)
        except Exception:
            return
        if isinstance(pdu, ConnectReq):
            self._crc_inits[pdu.ll_data.access_address] = pdu.ll_data.crc_init
            self._event_state.pop(pdu.ll_data.access_address, None)

    def _advance_event(self, aa: int,
                       frame: RadioFrame) -> tuple[bool, int]:
        state = self._event_state.get(aa)
        if state is None or frame.start_us - state[0] > _EVENT_GAP_US:
            counter = 0 if state is None else (state[1] + 1) & 0xFFFF
            self._event_state[aa] = (frame.start_us, counter)
            return True, counter
        self._event_state[aa] = (frame.start_us, state[1])
        return False, state[1]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_pcap(self, destination: Union[str, Path]) -> int:
        """Export as a Wireshark-compatible pcap; returns frames written."""
        return write_pcap(destination, self.frames)

    def write_jsonl(self, destination: Union[str, Path]) -> int:
        """Export as JSONL (one frame object per line)."""
        with open(destination, "w", encoding="utf-8") as handle:
            for frame in self.frames:
                json.dump(
                    {"time_us": frame.time_us,
                     "access_address": frame.access_address,
                     "channel": frame.channel,
                     "rssi_dbm": frame.rssi_dbm,
                     "pdu": frame.pdu.hex(),
                     "crc": frame.crc,
                     "crc_ok": frame.crc_ok,
                     "master_to_slave": frame.master_to_slave,
                     "event_counter": frame.event_counter},
                    handle, separators=(",", ":"), sort_keys=True)
                handle.write("\n")
        return len(self.frames)

    def __len__(self) -> int:
        return len(self.frames)
