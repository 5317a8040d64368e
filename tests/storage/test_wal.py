"""Unit tests of the write-ahead log: framing, scanning, crash tails."""

import os
import struct

import pytest

from repro.core.columnar import ColumnarDataPage
from repro.core.node import DataPage, diff_records
from repro.errors import SimulatedCrashError, StorageError, WalCorruptionError
from repro.storage.durable import codec
from repro.storage.durable.wal import (
    REC_ALLOC,
    REC_COMMIT,
    REC_COMMIT_FLAG,
    REC_META,
    REC_WRITE,
    WAL_MAGIC,
    WriteAheadLog,
    base_type,
    iter_frames,
    pack_record,
    scan_wal,
)
from repro.storage.faults import FaultPlan


def make_wal(tmp_path, **fault_kwargs):
    plan = FaultPlan(**fault_kwargs) if fault_kwargs else FaultPlan()
    return WriteAheadLog(tmp_path / "wal.log", plan)


class TestFraming:
    def test_pack_and_iter_round_trip(self):
        buf = b"".join(
            pack_record(seq, REC_WRITE, {"id": seq, "x": 1})
            for seq in (1, 2, 3)
        )
        records = list(iter_frames(buf))
        assert [seq for seq, _, _, _ in records] == [1, 2, 3]
        assert records[0][2] == {"id": 1, "x": 1}
        assert records[-1][3] == len(buf)

    def test_iter_stops_at_short_frame(self):
        buf = pack_record(1, REC_WRITE, {"id": 1}) + b"\x07\x00"
        assert len(list(iter_frames(buf))) == 1

    def test_iter_stops_at_bad_crc(self):
        good = pack_record(1, REC_WRITE, {"id": 1})
        bad = bytearray(pack_record(2, REC_WRITE, {"id": 2}))
        bad[-6] ^= 0xFF  # flip a payload byte; the CRC no longer matches
        tail = pack_record(3, REC_WRITE, {"id": 3})
        records = list(iter_frames(good + bytes(bad) + tail))
        assert [seq for seq, _, _, _ in records] == [1]

    def test_commit_flag_rides_the_type_byte(self):
        flagged = REC_WRITE | REC_COMMIT_FLAG
        assert base_type(flagged) == REC_WRITE
        assert base_type(REC_WRITE) == REC_WRITE
        buf = pack_record(1, flagged, {"id": 1, "op": "insert"})
        [(_, rtype, payload, _)] = list(iter_frames(buf))
        assert rtype == flagged
        assert payload["op"] == "insert"

    def test_undecodable_payload_ends_the_scan(self):
        header = struct.pack("<IIB", 3, 1, REC_WRITE)
        body = b"not"
        import zlib

        crc = struct.pack(
            "<I", zlib.crc32(body, zlib.crc32(header)) & 0xFFFFFFFF
        )
        assert list(iter_frames(header + body + crc)) == []


class TestScan:
    def test_missing_file_is_an_empty_log(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.records == []
        assert not scan.torn

    def test_empty_file_is_an_empty_log(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        assert scan_wal(path).records == []

    def test_partial_magic_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(WAL_MAGIC[:3])
        scan = scan_wal(path)
        assert scan.records == []
        assert scan.torn
        assert scan.discarded_bytes == 3

    def test_foreign_file_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"definitely not a WAL of ours")
        with pytest.raises(WalCorruptionError):
            scan_wal(path)

    def test_scan_accepts_any_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        records = [
            pack_record(seq, REC_META, {"key": "k", "v": seq, "x": seq})
            for seq in range(1, 6)
        ]
        full = WAL_MAGIC + b"".join(records)
        boundary = len(WAL_MAGIC) + sum(len(r) for r in records[:3])
        for cut in (boundary, boundary + 1, boundary + len(records[3]) - 1):
            path.write_bytes(full[:cut])
            scan = scan_wal(path)
            assert len(scan.records) == 3
            assert scan.torn == (cut != boundary)
        path.write_bytes(full)
        assert scan_wal(path).last_seq == 5


class TestWriteAheadLog:
    def test_append_assigns_increasing_seq(self, tmp_path):
        wal = make_wal(tmp_path)
        assert wal.append(REC_ALLOC, {"id": 1}) == 1
        assert wal.append(REC_WRITE, {"id": 1}) == 2
        assert wal.seq == 2
        wal.close()
        scan = scan_wal(wal.path)
        assert [seq for seq, _, _ in scan.records] == [1, 2]

    def test_appends_are_buffered_until_flush(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(REC_META, {"key": "a", "v": 1})
        assert os.path.getsize(wal.path) < wal.length
        wal.flush()
        assert os.path.getsize(wal.path) == wal.length
        wal.close()

    def test_stats_count_commits_via_flag(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(REC_WRITE, {"id": 1})
        wal.append(REC_WRITE | REC_COMMIT_FLAG, {"id": 1, "op": "insert"})
        wal.append(REC_COMMIT, {"x": 2})
        assert wal.stats.appends == 3
        assert wal.stats.commits == 2
        wal.close()

    def test_start_seq_continues_numbering(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", FaultPlan(), start_seq=40)
        assert wal.append(REC_META, {"key": "k", "v": 0}) == 41
        wal.close()

    def test_reset_truncates_but_seq_survives(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(REC_WRITE, {"id": 1})
        wal.append(REC_WRITE, {"id": 2})
        wal.reset()
        assert os.path.getsize(wal.path) == len(WAL_MAGIC)
        assert wal.append(REC_WRITE, {"id": 3}) == 3
        wal.close()
        assert [seq for seq, _, _ in scan_wal(wal.path).records] == [3]

    def test_closed_log_refuses_everything(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.close()
        wal.close()  # idempotent
        for call in (
            lambda: wal.append(REC_WRITE, {"id": 1}),
            wal.flush,
            wal.sync,
            wal.reset,
        ):
            with pytest.raises(StorageError):
                call()


class TestCrashTails:
    def three_records(self, wal):
        for seq in (1, 2, 3):
            wal.append(REC_META, {"key": "k", "v": seq, "x": seq})

    def test_crash_point_fires_on_the_nth_append(self, tmp_path):
        wal = make_wal(tmp_path, crash_after_appends=2)
        wal.append(REC_META, {"key": "k", "v": 1})
        with pytest.raises(SimulatedCrashError):
            wal.append(REC_META, {"key": "k", "v": 2})
        assert wal.closed
        assert len(scan_wal(wal.path).records) == 2  # tail=keep

    def test_torn_tail_cuts_the_final_record(self, tmp_path):
        wal = make_wal(
            tmp_path, crash_after_appends=3, tail="torn", torn_fraction=0.5
        )
        with pytest.raises(SimulatedCrashError):
            self.three_records(wal)
        scan = scan_wal(wal.path)
        assert len(scan.records) == 2
        assert scan.torn
        assert 0 < scan.discarded_bytes

    def test_drop_unsynced_keeps_only_the_synced_prefix(self, tmp_path):
        wal = make_wal(
            tmp_path, crash_after_appends=3, tail="drop_unsynced"
        )
        wal.append(REC_META, {"key": "k", "v": 1, "x": 1})
        wal.sync()
        with pytest.raises(SimulatedCrashError):
            wal.append(REC_META, {"key": "k", "v": 2, "x": 2})
            wal.append(REC_META, {"key": "k", "v": 3, "x": 3})
        scan = scan_wal(wal.path)
        assert [p["v"] for _, _, p in scan.records] == [1]
        assert not scan.torn  # the cut is at a record boundary

    def test_lying_fsync_never_advances_the_watermark(self, tmp_path):
        wal = make_wal(
            tmp_path,
            crash_after_appends=2,
            tail="drop_unsynced",
            drop_fsync=True,
        )
        wal.append(REC_META, {"key": "k", "v": 1, "x": 1})
        wal.sync()
        assert wal.stats.syncs_dropped == 1
        with pytest.raises(SimulatedCrashError):
            wal.append(REC_META, {"key": "k", "v": 2, "x": 2})
        assert scan_wal(wal.path).records == []


class TestCodecRoundTrips:
    @pytest.mark.parametrize("path_bits", [40, 80])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_columnar_image_matches_records_encoding(self, path_bits, n):
        # The columnar image is read off the columns; its bytes must be
        # those of the records-based encoding the object layout uses,
        # plus the three columnar construction keys.
        columnar = ColumnarDataPage(3, path_bits)
        records = DataPage()
        values = [5, "s", None, {"k": [1]}, 2.5, -3, True]
        points = [
            (float("inf"), -0.0, 1e-300),
            (0.25, 0.5, 0.75),
            (float("nan"), 1.0, -2.5),
        ]
        for i in range(n):
            path = (i * 2654435761) % (1 << path_bits)
            columnar.insert(path, points[i % 3], values[i])
            records.insert(path, points[i % 3], values[i])
        want = codec.encode_content(records)
        want.update(c=1, nd=3, pb=path_bits)
        image = codec.encode_content(columnar)
        assert codec.dumps(image) == codec.dumps(want)
        again = codec.decode_content(codec.loads(codec.dumps(image)))
        assert isinstance(again, ColumnarDataPage)
        assert codec.dumps(codec.encode_content(again)) == codec.dumps(want)

    def test_delta_body_matches_generic_encoding(self):
        base = {3: ((0.25, 0.5), "a")}
        current = {
            3: ((0.25, 0.5), "a"),
            7: ((0.125, 0.75), 11),
        }
        added, removed = diff_records(base, current)
        body = codec.encode_delta_body(9, 4, added, removed)
        assert body == codec.dumps({
            "d": 2,
            "dk": 1,
            "id": 9,
            "p": [7],
            "pts": struct.pack("<2d", 0.125, 0.75).hex(),
            "r": [],
            "v": [11],
            "x": 4,
        })

    def test_delta_encodes_non_finite_floats_exactly(self):
        inf = float("inf")
        body = codec.encode_delta_body(1, 1, [(5, ((inf, -0.0), None))], [])
        page = codec.decode_content({"k": "data", "d": 2, "p": [], "v": [],
                                     "pts": ""})
        codec.apply_data_delta(page, codec.loads(body))
        (point, value) = page.records[5]
        assert point == (inf, -0.0)
        assert struct.pack("<d", point[1]) == struct.pack("<d", -0.0)

    def test_delta_removal_of_absent_path_is_corruption(self):
        page = codec.decode_content(
            {"k": "data", "d": 1, "p": [], "v": [], "pts": ""}
        )
        with pytest.raises(WalCorruptionError):
            codec.apply_data_delta(
                page, {"d": 1, "p": [], "v": [], "pts": "", "r": [9]}
            )

    def test_equal_maps_yield_no_delta(self):
        records = {1: ((0.5,), "v")}
        assert diff_records(records, dict(records)) == ([], [])
        page = DataPage()
        page.insert(1, (0.5,), "v")
        assert page.changes_since(page.clone()) == ([], [])

    def test_diff_detects_removals(self):
        base = {1: ((0.1,), "a"), 2: ((0.2,), "b")}
        current = {1: ((0.1,), "a")}
        added, removed = diff_records(base, current)
        assert added == []
        assert removed == [2]
