"""Countermeasures from paper §VIII, grown into a defense bench.

Three mitigation families are reproduced:

1. **Window-widening reduction** — implemented as
   ``SlaveLinkLayer.widening_scale``; exercised by the ablation benchmark.
2. **Systematic link-layer encryption** — implemented by the SMP + LL
   encryption pipeline; limits InjectaBLE to denial of service.
3. **Passive intrusion detection** — a pluggable detector framework:
   :class:`~repro.defense.bank.DetectorBank` taps the medium like a
   RadIoT-style wideband monitor and fans frames out to registered
   :class:`~repro.defense.api.Detector`s, which emit scored
   :class:`~repro.defense.api.Verdict` streams (see
   :mod:`repro.defense.detectors` for the built-ins and
   ``docs/DEFENSE.md`` for the handbook).  The classic §VIII IDS is
   a bank loaded with ``("double-frame", "anchor-anomaly", "jamming")``,
   queried through :meth:`~repro.defense.bank.DetectorBank.alerts_of`.
"""

from repro.defense import detectors as _builtin_detectors  # noqa: F401
from repro.defense.api import (
    ALERT_SCORE,
    DETECTORS,
    Detector,
    DetectorDef,
    FrameView,
    Verdict,
    detector_names,
    get_detector,
    make_detectors,
    register_detector,
)
from repro.defense.bank import DetectorBank, verdict_stream_digest

__all__ = [
    "ALERT_SCORE",
    "DETECTORS",
    "Detector",
    "DetectorBank",
    "DetectorDef",
    "FrameView",
    "Verdict",
    "detector_names",
    "get_detector",
    "make_detectors",
    "register_detector",
    "verdict_stream_digest",
]
