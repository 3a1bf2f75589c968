"""Unit tests for the GATT layer: registration, access, notifications."""

import pytest

from repro.errors import HostError
from repro.host.att.pdus import (
    HandleValueNtf,
    ReadReq,
    ReadRsp,
    WriteReq,
    decode_att_pdu,
)
from repro.host.gatt.attributes import Characteristic, Service
from repro.host.gatt.server import GattServer
from repro.host.gatt.uuids import (
    PROP_NOTIFY,
    PROP_READ,
    PROP_WRITE,
    UUID_CCCD,
    UUID_CHARACTERISTIC,
    UUID_DEVICE_NAME,
    UUID_GAP_SERVICE,
    UUID_PRIMARY_SERVICE,
)


@pytest.fixture
def server():
    gatt = GattServer()
    gap = Service(UUID_GAP_SERVICE)
    gap.add(Characteristic(UUID_DEVICE_NAME, value=b"dev", read=True,
                           write=True))
    gatt.register(gap)
    custom = Service(0xFF10)
    custom.add(Characteristic(0xFF11, read=False, write=True))
    custom.add(Characteristic(0xFF12, value=b"\x05", read=True, notify=True))
    gatt.register(custom)
    return gatt


def ask(server, pdu):
    raw = server.handle_request(pdu.to_bytes())
    return decode_att_pdu(raw) if raw is not None else None


class TestRegistration:
    def test_db_layout(self, server):
        # GAP: svc(1), decl(2), value(3); custom: svc(4), decl(5), value(6),
        # decl(7), value(8), cccd(9).
        handles = server.db.handles()
        assert handles == list(range(1, 10))
        assert server.db.get(1).type_uuid == UUID_PRIMARY_SERVICE
        assert server.db.get(2).type_uuid == UUID_CHARACTERISTIC
        assert server.db.get(9).type_uuid == UUID_CCCD

    def test_declaration_value(self, server):
        char = server.find_characteristic(UUID_DEVICE_NAME)
        decl = server.db.get(char.value_handle - 1)
        props = decl.value[0]
        assert props & PROP_READ and props & PROP_WRITE
        assert int.from_bytes(decl.value[1:3], "little") == char.value_handle
        assert int.from_bytes(decl.value[3:5], "little") == UUID_DEVICE_NAME

    def test_cccd_only_for_notifying_chars(self, server):
        assert server.find_characteristic(0xFF12).cccd_handle != 0
        assert server.find_characteristic(0xFF11).cccd_handle == 0

    def test_find_characteristic(self, server):
        assert server.find_characteristic(0xFF11) is not None
        assert server.find_characteristic(0xDEAD) is None


class TestAccess:
    def test_read_through_att(self, server):
        char = server.find_characteristic(UUID_DEVICE_NAME)
        assert ask(server, ReadReq(char.value_handle)) == ReadRsp(b"dev")

    def test_write_updates_characteristic(self, server):
        char = server.find_characteristic(0xFF11)
        ask(server, WriteReq(char.value_handle, b"\x01"))
        assert char.value == b"\x01"

    def test_on_write_hook(self, server):
        calls = []
        char = server.find_characteristic(0xFF11)
        char.on_write = calls.append
        ask(server, WriteReq(char.value_handle, b"\x02"))
        assert calls == [b"\x02"]

    def test_on_read_hook(self, server):
        char = server.find_characteristic(0xFF12)
        char.on_read = lambda: b"\x63"
        assert ask(server, ReadReq(char.value_handle)) == ReadRsp(b"\x63")


class TestNotifications:
    def test_not_sent_without_subscription(self, server):
        sent = []
        server.send = sent.append
        char = server.find_characteristic(0xFF12)
        assert not server.notify(char, b"\x07")
        assert sent == []

    def test_sent_after_cccd_write(self, server):
        sent = []
        server.send = sent.append
        char = server.find_characteristic(0xFF12)
        ask(server, WriteReq(char.cccd_handle, b"\x01\x00"))
        assert server.notify(char, b"\x07")
        assert decode_att_pdu(sent[-1]) == HandleValueNtf(char.value_handle,
                                                          b"\x07")

    def test_force_bypasses_cccd(self, server):
        sent = []
        server.send = sent.append
        char = server.find_characteristic(0xFF12)
        assert server.notify(char, b"\x07", force=True)

    def test_indicate_requires_indication_bit(self, server):
        sent = []
        server.send = sent.append
        char = server.find_characteristic(0xFF12)
        ask(server, WriteReq(char.cccd_handle, b"\x01\x00"))  # notify only
        assert not server.indicate(char, b"\x07")

    def test_notify_without_transport_raises(self, server):
        char = server.find_characteristic(0xFF12)
        with pytest.raises(HostError):
            server.notify(char, b"\x07")


class TestCharacteristicObject:
    def test_properties_bitfield(self):
        char = Characteristic(0x1234, read=True, notify=True)
        assert char.properties == PROP_READ | PROP_NOTIFY

    def test_declaration_requires_registration(self):
        with pytest.raises(HostError):
            Characteristic(0x1234).declaration_value()

    def test_service_find(self):
        service = Service(0xAAAA)
        char = service.add(Characteristic(0xBBBB))
        assert service.find(0xBBBB) is char
        assert service.find(0xCCCC) is None
