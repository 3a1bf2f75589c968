"""Tests for the Nordic BLE pcap writer/reader and the frame recorder."""

import io
import struct
from pathlib import Path

import pytest

from repro.devices import Lightbulb, Smartphone
from repro.telemetry import (
    DLT_NORDIC_BLE,
    FrameRecorder,
    NordicBleFrame,
    PcapFormatError,
    PcapWriter,
    pcap_bytes,
    read_pcap,
    write_pcap,
)
from repro.telemetry.sinks import read_jsonl

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_nordic.pcap"

#: Exactly the frames the checked-in golden file was generated from.
GOLDEN_FRAMES = [
    NordicBleFrame(time_us=0, access_address=0x8E89BED6, channel=37,
                   rssi_dbm=-40, pdu=bytes.fromhex("4025aabbccddeeff"),
                   crc=0x123456, crc_ok=True),
    NordicBleFrame(time_us=1_250, access_address=0x50655074, channel=12,
                   rssi_dbm=-58, pdu=bytes.fromhex("0105010203040506"),
                   crc=0x00ABCD, crc_ok=True, master_to_slave=True,
                   event_counter=7),
    NordicBleFrame(time_us=1_400, access_address=0x50655074, channel=12,
                   rssi_dbm=-61, pdu=bytes.fromhex("0900"),
                   crc=0x0F0E0D, crc_ok=False, master_to_slave=False,
                   event_counter=7),
    NordicBleFrame(time_us=4_294_967_296 + 99, access_address=0x50655074,
                   channel=39, rssi_dbm=-127, pdu=bytes.fromhex("030412"),
                   crc=0xFFFFFF, crc_ok=True, encrypted=True,
                   event_counter=65535, board_id=3),
]


class TestRoundTrip:
    def test_frames_survive_write_read(self):
        assert read_pcap(io.BytesIO(pcap_bytes(GOLDEN_FRAMES))) \
            == GOLDEN_FRAMES

    def test_write_read_write_is_byte_identical(self):
        first = pcap_bytes(GOLDEN_FRAMES)
        again = pcap_bytes(read_pcap(io.BytesIO(first)))
        assert again == first

    def test_time_beyond_32bit_microseconds_is_preserved(self):
        [frame] = read_pcap(io.BytesIO(pcap_bytes([GOLDEN_FRAMES[-1]])))
        assert frame.time_us == 4_294_967_296 + 99

    def test_file_path_roundtrip(self, tmp_path):
        path = tmp_path / "cap.pcap"
        assert write_pcap(path, GOLDEN_FRAMES) == len(GOLDEN_FRAMES)
        assert read_pcap(path) == GOLDEN_FRAMES


class TestGoldenFile:
    def test_reader_parses_the_checked_in_capture(self):
        assert read_pcap(GOLDEN_PATH) == GOLDEN_FRAMES

    def test_writer_reproduces_the_checked_in_bytes(self):
        assert pcap_bytes(GOLDEN_FRAMES) == GOLDEN_PATH.read_bytes()

    def test_global_header_advertises_nordic_ble(self):
        magic, _maj, _min, _tz, _sig, _snap, network = struct.unpack(
            "<IHHiIII", GOLDEN_PATH.read_bytes()[:24])
        assert magic == 0xA1B2C3D4
        assert network == DLT_NORDIC_BLE == 272


class TestFlags:
    def test_flag_bits(self):
        base = GOLDEN_FRAMES[0]
        assert base.flags == 0b001
        assert GOLDEN_FRAMES[1].flags == 0b011
        assert GOLDEN_FRAMES[2].flags == 0b000
        assert GOLDEN_FRAMES[3].flags == 0b101


class TestStrictReader:
    def _valid(self):
        return bytearray(pcap_bytes(GOLDEN_FRAMES[:1]))

    def test_bad_magic(self):
        data = self._valid()
        data[0] ^= 0xFF
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(data)))

    def test_wrong_linktype(self):
        data = self._valid()
        struct.pack_into("<I", data, 20, 1)  # DLT_EN10MB
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(data)))

    def test_truncated_global_header(self):
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(self._valid()[:10]))

    def test_truncated_record_body(self):
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(self._valid()[:-3])))

    def test_sliced_record_rejected(self):
        data = self._valid()
        # incl_len (offset 24+8) != orig_len
        struct.pack_into("<I", data, 24 + 8, 5)
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(data)))

    def test_payload_timestamp_must_match_record_header(self):
        data = self._valid()
        # payload layout: flags, channel, rssi, event LE16, then µs LE32 —
        # 5 bytes in, after the 7-byte Nordic header
        struct.pack_into("<I", data, 24 + 16 + 7 + 5, 999)
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(data)))

    def test_unsupported_protocol_version(self):
        data = self._valid()
        data[24 + 16 + 3] = 1  # protover byte of the Nordic header
        with pytest.raises(PcapFormatError):
            read_pcap(io.BytesIO(bytes(data)))


class TestWriterValidation:
    def test_invalid_channel_rejected(self):
        bad = NordicBleFrame(time_us=0, access_address=1, channel=40,
                             rssi_dbm=-40, pdu=b"\x00", crc=0)
        with pytest.raises(PcapFormatError):
            pcap_bytes([bad])

    def test_oversized_pdu_rejected(self):
        bad = NordicBleFrame(time_us=0, access_address=1, channel=0,
                             rssi_dbm=-40, pdu=bytes(300), crc=0)
        with pytest.raises(PcapFormatError):
            pcap_bytes([bad])

    def test_rssi_is_clamped_to_a_magnitude_byte(self):
        loud = NordicBleFrame(time_us=0, access_address=1, channel=0,
                              rssi_dbm=20, pdu=b"\x00", crc=0)
        [back] = read_pcap(io.BytesIO(pcap_bytes([loud])))
        assert back.rssi_dbm == 0  # positive RSSI floors at magnitude 0

    def test_writer_on_open_file_stays_open(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_frame(GOLDEN_FRAMES[0])
        writer.close()
        assert not buffer.closed and writer.written == 1


class TestFrameRecorder:
    def _world(self, triangle_world):
        simulator, medium = triangle_world(names=("bulb", "phone", "mon"),
                                           seed=97)
        recorder = FrameRecorder(medium)
        bulb = Lightbulb(simulator, medium, "bulb")
        phone = Smartphone(simulator, medium, "phone", interval=36)
        bulb.power_on()
        phone.connect_to(bulb.address)
        simulator.run(until_us=1_500_000)
        assert phone.is_connected
        return recorder

    def test_capture_validates_crc_with_learned_init(self, triangle_world):
        recorder = self._world(triangle_world)
        assert len(recorder) > 10
        # CONNECT_REQ was on air, so every clean frame verifies
        assert all(f.crc_ok for f in recorder.frames)
        data = [f for f in recorder.frames
                if f.access_address != 0x8E89BED6]
        assert data and any(f.master_to_slave for f in data)
        assert any(not f.master_to_slave for f in data)
        assert max(f.event_counter for f in data) > 0

    def test_recorder_pcap_roundtrip_byte_identical(self, triangle_world,
                                                    tmp_path):
        recorder = self._world(triangle_world)
        path = tmp_path / "world.pcap"
        assert recorder.write_pcap(path) == len(recorder)
        frames = read_pcap(path)
        assert pcap_bytes(frames) == path.read_bytes()
        assert frames == list(recorder.frames)

    def test_recorder_jsonl_export(self, triangle_world, tmp_path):
        recorder = self._world(triangle_world)
        path = tmp_path / "world.jsonl"
        assert recorder.write_jsonl(path) == len(recorder)
        rows = read_jsonl(path)
        assert len(rows) == len(recorder)
        assert rows[0]["channel"] in range(40)
        assert bytes.fromhex(rows[0]["pdu"])  # hex-encoded PDU decodes
