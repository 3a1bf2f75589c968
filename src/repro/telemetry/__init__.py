"""Telemetry & capture: metrics, JSONL trace files, PCAP export.

The paper's success heuristic (eq. 7) and the §VII sensitivity analysis
are driven entirely by *what happened on air and when*.  This package is
the system of record for that question:

* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (tx/rx/collision counts, injection
  attempts-to-success, anchor drift, per-channel airtime).  The disabled
  path is a single attribute check, cheap enough to leave the
  instrumentation permanently compiled into the hot paths.
* :mod:`repro.telemetry.sinks` — :class:`JsonlSink`, which streams
  trace records to a file as one JSON object per line, and
  :func:`read_jsonl`, which parses such files (and capture JSONL) back.
* :mod:`repro.telemetry.pcap` — a Wireshark-compatible PCAP writer/reader
  pair using Nordic BLE sniffer framing (DLT 272): access address,
  channel, RSSI and CRC verdict per frame, so any simulated connection
  opens directly in Wireshark.
* :mod:`repro.telemetry.capture` — a medium tap collecting every on-air
  frame (with per-connection CRC validation learned from CONNECT_REQs)
  and exporting it as PCAP or JSONL.
* :mod:`repro.telemetry.progress` — wall-clock-free campaign progress
  counters (ok/failed units) with throttled line output.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.telemetry.sinks import JsonlSink, read_jsonl
from repro.telemetry.pcap import (
    DLT_NORDIC_BLE,
    NordicBleFrame,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    pcap_bytes,
    read_pcap,
    write_pcap,
)
from repro.telemetry.capture import FrameRecorder
from repro.telemetry.progress import ProgressTracker

__all__ = [
    "Counter",
    "DLT_NORDIC_BLE",
    "FrameRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NordicBleFrame",
    "PcapFormatError",
    "PcapReader",
    "PcapWriter",
    "ProgressTracker",
    "merge_snapshots",
    "pcap_bytes",
    "read_jsonl",
    "read_pcap",
    "write_pcap",
]
