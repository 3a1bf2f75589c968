"""Advertisement-spoofing MitM baselines: GATTacker and BTLEJuice.

Both tools (paper §II) interpose on a connection by winning the
*advertising* race — which is exactly why neither can attack a connection
that is already established, the gap InjectaBLE closes.

* **GATTacker** clones the Peripheral's advertisements and broadcasts them
  faster, hoping the Central connects to the clone.
* **BTLEJuice** first connects to the real Peripheral (which therefore
  stops advertising) and only then exposes the clone, removing the race.

The clone serves a copy of the victim's GATT profile (the real tools scan
it in a preliminary phase); writes are forwarded to the real device when
the proxy connection is up, reads are served from the mirrored attribute
values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import SimulatedPeripheral
from repro.host.gatt.attributes import Characteristic, Service
from repro.host.gatt.server import GattServer
from repro.host.stack import CentralHost, PeripheralHost
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.ll.slave import SlaveLinkLayer
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator


@dataclass
class SpoofingResult:
    """Outcome of an advertisement-spoofing interposition.

    Attributes:
        central_captured: the victim Central connected to the clone.
        proxy_connected: the attacker holds a connection to the real
            Peripheral (for forwarding).
        forwarded_writes: writes relayed to the real device.
    """

    central_captured: bool = False
    proxy_connected: bool = False
    forwarded_writes: int = 0


class GattackerMitm:
    """GATTacker: clone the advertisements, advertise faster.

    Args:
        sim: owning simulator.
        medium: radio medium; ``name`` must be placed in its topology.
        name: attacker device name.
        victim: the real peripheral being cloned (provides identity and
            GATT profile, standing in for GATTacker's scanning phase).
        clone_adv_interval_ms: advertising interval of the clone — smaller
            than the victim's to win the race.
    """

    #: Whether this tool can attack an already-established connection.
    WORKS_ON_ESTABLISHED = False

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        victim: SimulatedPeripheral,
        clone_adv_interval_ms: float = 20.0,
    ):
        self.sim = sim
        self.medium = medium
        self.victim = victim
        self.result = SpoofingResult()
        self.clone_ll = SlaveLinkLayer(
            sim, medium, name,
            victim.address,  # spoofed identity
            adv_interval_ms=clone_adv_interval_ms,
            adv_data=victim.ll.adv_data,
            scan_data=victim.ll.scan_data,
        )
        self.clone_gatt = self._mirror_profile(victim.gatt)
        self.clone_host = PeripheralHost(self.clone_ll, self.clone_gatt)
        self.clone_ll.on_connected = self._on_central_captured
        # Proxy side: our own Central toward the real device.
        self.proxy_ll = MasterLinkLayer(
            sim, medium, f"{name}#proxy",
            BdAddress.generate(sim.streams.get(f"addr-{name}-proxy")),
        )
        self.proxy = CentralHost(self.proxy_ll)
        self.proxy_ll.on_connected = self._on_proxy_connected
        self._position_proxy(name)

    def _position_proxy(self, name: str) -> None:
        position = self.medium.topology.position_of(name)
        self.medium.topology.place(f"{name}#proxy", position.x, position.y)

    def _mirror_profile(self, original: GattServer) -> GattServer:
        """Clone the victim's services; writes forward to the real device."""
        mirror = GattServer()
        for service in original.services:
            cloned = Service(service.uuid)
            for char in service.characteristics:
                cloned.add(Characteristic(
                    uuid=char.uuid,
                    value=char.value,
                    read=char.read,
                    write=char.write,
                    write_no_rsp=char.write_no_rsp,
                    notify=char.notify,
                    indicate=char.indicate,
                    on_write=lambda value, c=char: self._forward_write(c, value),
                ))
            mirror.register(cloned)
        return mirror

    def _forward_write(self, original_char, value: bytes) -> None:
        if not self.proxy_ll.is_connected:
            return
        self.proxy.att.write(original_char.value_handle, value)
        self.result.forwarded_writes += 1
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.clone_ll.name,
                                  "spoof-forward-write",
                                  uuid=original_char.uuid)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the interposition attempt (advertising race)."""
        self.clone_ll.start_advertising()

    def _on_central_captured(self) -> None:
        self.result.central_captured = True
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.clone_ll.name,
                                  "spoof-central-captured")
        # Connect to the real device for forwarding (it may still be
        # advertising since the victim Central never reached it).
        if not self.proxy_ll.is_connected:
            self.proxy_ll.connect(self.victim.address)

    def _on_proxy_connected(self) -> None:
        self.result.proxy_connected = True


class BtleJuiceMitm(GattackerMitm):
    """BTLEJuice: connect to the real Peripheral first, then expose a clone.

    Removes GATTacker's advertising race: once the attacker's proxy holds
    the only connection to the Peripheral, the victim Central can only
    find the clone.  Still strictly pre-connection.
    """

    WORKS_ON_ESTABLISHED = False

    def start(self) -> None:
        """Phase 1: silence the real device by connecting to it."""
        self.proxy_ll.connect(self.victim.address)

    def _on_proxy_connected(self) -> None:
        super()._on_proxy_connected()
        # Phase 2: the real device stopped advertising; expose the clone.
        if self.clone_ll.state.value != "advertising":
            self.clone_ll.start_advertising()
