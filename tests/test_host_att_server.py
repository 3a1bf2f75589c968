"""Unit tests for the ATT server and attribute database."""

import pytest

from repro.errors import HostError
from repro.host.att.opcodes import AttError
from repro.host.att.pdus import (
    ErrorRsp,
    ExchangeMtuReq,
    ExchangeMtuRsp,
    FindInformationReq,
    FindInformationRsp,
    ReadByGroupTypeReq,
    ReadByGroupTypeRsp,
    ReadByTypeReq,
    ReadByTypeRsp,
    ReadReq,
    ReadRsp,
    WriteCmd,
    WriteReq,
    WriteRsp,
    decode_att_pdu,
)
from repro.host.att.server import Attribute, AttributeDb, AttServer


@pytest.fixture
def db():
    database = AttributeDb()
    database.allocate(0x2800, value=b"\x00\x18")          # handle 1
    database.allocate(0x2A00, value=b"bulb")              # handle 2
    database.allocate(0x2800, value=b"\x10\xff")          # handle 3
    database.allocate(0xFF11, value=b"", readable=False,
                      writable=True)                       # handle 4
    database.allocate(0xFF12, value=b"\x01")              # handle 5
    return database


@pytest.fixture
def server(db):
    return AttServer(db)


def ask(server, pdu):
    raw = server.handle_request(pdu.to_bytes())
    return decode_att_pdu(raw) if raw is not None else None


class TestAttributeDb:
    def test_handles_ascend(self, db):
        assert db.handles() == [1, 2, 3, 4, 5]

    def test_duplicate_handle_rejected(self, db):
        with pytest.raises(HostError):
            db.add(Attribute(handle=3, type_uuid=0x2A00))

    def test_range_query(self, db):
        assert [a.handle for a in db.in_range(2, 4)] == [2, 3, 4]

    def test_by_type(self, db):
        assert [a.handle for a in db.by_type(0x2800)] == [1, 3]


class TestReads:
    def test_read(self, server):
        assert ask(server, ReadReq(2)) == ReadRsp(b"bulb")

    def test_read_invalid_handle(self, server):
        rsp = ask(server, ReadReq(99))
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.INVALID_HANDLE

    def test_read_not_permitted(self, server):
        rsp = ask(server, ReadReq(4))
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.READ_NOT_PERMITTED

    def test_read_hook_overrides_value(self, server, db):
        db.get(5).read_hook = lambda handle: b"\x2a"
        assert ask(server, ReadReq(5)) == ReadRsp(b"\x2a")

    def test_read_truncated_to_mtu(self, db):
        db.get(2).value = bytes(100)
        server = AttServer(db, mtu=23)
        rsp = ask(server, ReadReq(2))
        assert len(rsp.value) == 22


class TestWrites:
    def test_write_updates_value(self, server, db):
        rsp = ask(server, WriteReq(4, b"\x01\x00"))
        assert rsp == WriteRsp()
        assert db.get(4).value == b"\x01\x00"

    def test_write_hook_called(self, server, db):
        calls = []
        db.get(4).write_hook = lambda handle, value: calls.append((handle,
                                                                   value))
        ask(server, WriteReq(4, b"\xaa"))
        assert calls == [(4, b"\xaa")]

    def test_write_not_permitted(self, server):
        rsp = ask(server, WriteReq(2, b"evil"))
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.WRITE_NOT_PERMITTED

    def test_write_invalid_handle(self, server):
        rsp = ask(server, WriteReq(1234, b"x"))
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.INVALID_HANDLE

    def test_write_command_has_no_response(self, server, db):
        assert ask(server, WriteCmd(4, b"\x02")) is None
        assert db.get(4).value == b"\x02"

    def test_write_command_fails_silently(self, server, db):
        assert ask(server, WriteCmd(2, b"x")) is None
        assert db.get(2).value == b"bulb"


class TestDiscovery:
    def test_exchange_mtu(self, server):
        assert ask(server, ExchangeMtuReq(185)) == ExchangeMtuRsp(23)

    def test_read_by_type_device_name(self, server):
        rsp = ask(server, ReadByTypeReq(1, 0xFFFF, 0x2A00))
        assert rsp == ReadByTypeRsp(((2, b"bulb"),))

    def test_read_by_type_not_found(self, server):
        rsp = ask(server, ReadByTypeReq(1, 0xFFFF, 0x9999))
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.ATTRIBUTE_NOT_FOUND

    def test_read_by_group_type_spans(self, server):
        rsp = ask(server, ReadByGroupTypeReq(1, 0xFFFF, 0x2800))
        assert isinstance(rsp, ReadByGroupTypeRsp)
        assert rsp.records == ((1, 2, b"\x00\x18"), (3, 5, b"\x10\xff"))

    def test_find_information(self, server):
        rsp = ask(server, FindInformationReq(1, 3))
        assert rsp == FindInformationRsp(((1, 0x2800), (2, 0x2A00),
                                          (3, 0x2800)))

    def test_find_information_not_found(self, server):
        rsp = ask(server, FindInformationReq(50, 60))
        assert isinstance(rsp, ErrorRsp)


class TestRobustness:
    def test_garbage_returns_invalid_pdu(self, server):
        raw = server.handle_request(b"\xff\x00")
        rsp = decode_att_pdu(raw)
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.INVALID_PDU

    def test_unsupported_request(self, server):
        # A response opcode sent as a request is not supported.
        raw = server.handle_request(ReadRsp(b"x").to_bytes())
        rsp = decode_att_pdu(raw)
        assert isinstance(rsp, ErrorRsp)
        assert rsp.error is AttError.REQUEST_NOT_SUPPORTED
