import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse.errors import CorruptionError, NotFoundError
from modalfuse.store import EmbeddingRecord, Store, atomic_commit, write_store


def rand_record(rng, key, max_arrays=3):
    arrays = []
    for _ in range(rng.integers(1, max_arrays + 1)):
        rank = int(rng.integers(0, 3))
        shape = tuple(int(d) for d in rng.integers(0, 6, size=rank))
        arrays.append(("frame", rng.normal(size=shape).astype(np.float32)))
    return EmbeddingRecord(key, tuple(arrays))


def records_equal(a, b):
    if a.key != b.key or len(a.arrays) != len(b.arrays):
        return False
    return all(
        ta == tb and xa.shape == xb.shape and np.array_equal(xa, xb)
        for (ta, xa), (tb, xb) in zip(a.arrays, b.arrays)
    )


class TestRoundtrip:
    def test_empty_store(self, tmp_path):
        path = tmp_path / "s.store"
        summary = write_store([], path)
        assert summary.count == 0
        with Store(path) as s:
            assert len(s) == 0
            with pytest.raises(NotFoundError):
                s.get_by_key("anything")

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [rand_record(rng, f"key{i}") for i in range(200)]
        path = tmp_path / "s.store"
        write_store(recs, path)
        with Store(path) as s:
            assert len(s) == 200
            for i, rec in enumerate(recs):
                assert records_equal(s.get(i), rec)

    def test_ragged_and_empty_arrays(self, tmp_path):
        recs = [
            EmbeddingRecord("a", (("frame", np.zeros((0,), np.float32)),)),
            EmbeddingRecord("b", (("caption", np.ones((3, 4, 5), np.float32)),
                                  ("raw", np.float32(7.0).reshape(())),)),
        ]
        path = tmp_path / "s.store"
        write_store(recs, path)
        with Store(path) as s:
            assert records_equal(s.get(0), recs[0])
            assert records_equal(s.get(1), recs[1])

    def test_duplicate_key_rejected(self, tmp_path):
        recs = [EmbeddingRecord("dup", ()), EmbeddingRecord("dup", ())]
        with pytest.raises(ValueError, match="dup"):
            write_store(recs, tmp_path / "s.store")
        assert not (tmp_path / "s.store").exists()


class TestGet:
    def test_out_of_range(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("k", ())], path)
        with Store(path) as s:
            with pytest.raises(IndexError):
                s.get(1)
            with pytest.raises(IndexError):
                s.get(-1)

    def test_bytes_read_independent_of_index(self, tmp_path):
        arr = np.arange(64, dtype=np.float32)
        recs = [EmbeddingRecord(f"k{i:04d}", (("frame", arr),)) for i in range(100)]
        path = tmp_path / "s.store"
        write_store(recs, path)
        with Store(path) as s:
            s.bytes_read = 0
            s.get(0)
            first = s.bytes_read
            s.bytes_read = 0
            s.get(99)
            last = s.bytes_read
        assert first == last

    def test_crc_detects_payload_bit_flip(self, tmp_path):
        arr = np.arange(32, dtype=np.float32)
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("k", (("frame", arr),))], path)
        with Store(path) as s:
            off = int(s._offsets[0])
            length = int(s._lengths[0])
        data = bytearray(path.read_bytes())
        # flip one bit in the payload area (skip key/header bytes of the record)
        data[off + length - 10] ^= 0x01
        path.write_bytes(bytes(data))
        with Store(path) as s:
            with pytest.raises(CorruptionError):
                s.get(0)

    def test_get_by_key(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = [rand_record(rng, f"key-{i}") for i in range(50)]
        path = tmp_path / "s.store"
        write_store(recs, path)
        with Store(path) as s:
            for i in (0, 17, 49):
                assert records_equal(s.get_by_key(f"key-{i}"), recs[i])
            with pytest.raises(NotFoundError):
                s.get_by_key("nope")


class TestIndexIntegrity:
    def recrc(self, path, data):
        """Write ``data`` with its footer CRC recomputed over header + index,
        so the file passes the CRC check and only the edited bytes are wrong."""
        index_offset, _, tail = struct.unpack("<QI4s", data[-16:])
        crc = zlib.crc32(data[:17] + data[index_offset:-16])
        path.write_bytes(data[:-16] + struct.pack("<QI4s", index_offset, crc, tail))

    def rewrite_table(self, path, table):
        """Replace the hash table, keeping the footer CRC valid."""
        data = path.read_bytes()
        (index_offset,) = struct.unpack_from("<Q", data, len(data) - 16)
        (count,) = struct.unpack_from("<Q", data, 9)
        entries = data[index_offset : index_offset + 24 * count]
        index = entries + struct.pack("<Q", len(table)) + np.asarray(table, "<u8").tobytes()
        self.recrc(path, data[:index_offset] + index + data[-16:])

    @pytest.mark.parametrize("table", [[98, 0, 1, 2, 3, 0, 0, 0],   # slot past count 3
                                       [1, 2, 3]])                   # size not a power of two
    def test_bad_hash_table_rejected_at_open(self, tmp_path, table):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord(f"k{i}", ()) for i in range(3)], path)
        self.rewrite_table(path, table)
        with pytest.raises(CorruptionError, match="hash table"):
            Store(path)

    def test_compressed_store_rejected_at_open(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("k", (("frame", np.ones(4, np.float32)),))], path)
        data = bytearray(path.read_bytes())
        data[8] = 1                       # the header's compression byte: deflate
        self.recrc(path, bytes(data))
        with pytest.raises(CorruptionError, match="re-run"):
            Store(path)


class TestAtomicity:
    def test_crash_before_rename_preserves_old_store(self, tmp_path):
        path = tmp_path / "s.store"
        old = [EmbeddingRecord("old", (("frame", np.ones(8, np.float32)),))]
        write_store(old, path)
        old_bytes = path.read_bytes()

        # a writer that dies mid-stream must leave the target untouched
        def explode():
            yield EmbeddingRecord("new", (("frame", np.zeros(8, np.float32)),))
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            write_store(explode(), path)
        assert path.read_bytes() == old_bytes
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        with Store(path) as s:
            assert s.get(0).key == "old"

    def test_failed_commit_leaves_target_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"committed\n")
        with pytest.raises(RuntimeError):
            with atomic_commit(path) as f:
                f.write(b"partial")
                raise RuntimeError("simulated crash")
        assert path.read_bytes() == b"committed\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_truncated_temp_never_corrupts(self, tmp_path):
        # simulate preemption: truncate a copy of the in-flight temp file at
        # arbitrary byte positions; the committed store must stay valid
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("keep", (("frame", np.ones(4, np.float32)),))], path)
        committed = path.read_bytes()

        rng = np.random.default_rng(2)
        new = [rand_record(rng, f"n{i}") for i in range(20)]
        staged = tmp_path / "staged.store"
        write_store(new, staged)
        blob = staged.read_bytes()
        for cut in rng.integers(0, len(blob), size=100):
            (tmp_path / ".s.store.partial.tmp").write_bytes(blob[: int(cut)])
            assert path.read_bytes() == committed
            with Store(path) as s:
                assert s.get(0).key == "keep"


class TestConcurrency:
    def test_threaded_reads_match_single_thread(self, tmp_path):
        rng = np.random.default_rng(3)
        recs = [rand_record(rng, f"k{i}") for i in range(64)]
        path = tmp_path / "s.store"
        write_store(recs, path)
        with Store(path) as s:
            expected = [s.get(i) for i in range(64)]
            results = [None] * 8

            def reader(t):
                order = np.random.default_rng(t).permutation(64)
                got = {int(i): s.get(int(i)) for i in order}
                results[t] = got

            threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for got in results:
                for i, rec in got.items():
                    assert records_equal(rec, expected[i])


@given(st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(st.integers(0, 4), max_size=3),
    ),
    max_size=8,
))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(tmp_path_factory, shapes):
    rng = np.random.default_rng(0)
    recs = []
    for i, (_, shape) in enumerate(shapes):
        arr = rng.normal(size=tuple(shape)).astype(np.float32)
        recs.append(EmbeddingRecord(f"r{i}", (("caption", arr),)))
    path = tmp_path_factory.mktemp("prop") / "s.store"
    write_store(recs, path)
    with Store(path) as s:
        for i, rec in enumerate(recs):
            assert records_equal(s.get(i), rec)
