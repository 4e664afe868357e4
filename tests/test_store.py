import hashlib
import json
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalfuse import store
from modalfuse.backbone import Model, ModelConfig, save_checkpoint
from modalfuse.cli import main
from modalfuse.errors import ConfigError, CorruptionError, NotFoundError, ValidationError
from modalfuse.experts import StubEncoders
from modalfuse.store import EmbeddingRecord, Store, atomic_commit, write_store
from modalfuse.synthetic import make_transcript_words


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

    def test_rank_zero_kept(self, tmp_path):
        rec = EmbeddingRecord("k", (("raw", np.float32(0.5).reshape(())),))
        assert rec.arrays[0][1].shape == ()
        path = tmp_path / "s.store"
        write_store([rec], path)
        # after the 28-byte header: u16 array count, u8 tag, u8 rank, payload
        assert path.read_bytes()[28:36] == struct.pack("<HBBf", 1, 4, 0, 0.5)
        with Store(path) as s:
            back = s.get(0).arrays[0][1]
        assert back.shape == () and back == np.float32(0.5)

    def test_duplicate_key_rejected(self, tmp_path):
        recs = [EmbeddingRecord("dup", ()), EmbeddingRecord("dup", ())]
        with pytest.raises(ValueError, match="dup"):
            write_store(recs, tmp_path / "s.store")
        assert not (tmp_path / "s.store").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_lossy_float32_cast_refused(self):
        for values in ([0.1], [1e40], [16777217]):
            with pytest.raises(ConfigError, match="record 'k': frame values change"):
                EmbeddingRecord("k", (("frame", np.array(values)),))
        exact = EmbeddingRecord("k", (("raw", np.array([np.nan, 0.5, 16777216, 255])),))
        assert exact.arrays[0][1].tobytes() == np.array([np.nan, 0.5, 16777216, 255],
                                                        np.float32).tobytes()


class TestEncoders:
    def test_header_names_the_encoders(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([], path, StubEncoders(d=4, seed=-1))
        with Store(path) as s:
            encoders = s.encoders(4)
            assert s.inspect()["encoders"] == {"d": 4, "seed": 2**64 - 1}
        # the seed as hash_bytes takes it, so the rows are those of seed -1
        assert encoders == StubEncoders(d=4, seed=2**64 - 1)
        assert (encoders.encode_captions(["a dog"]).tobytes()
                == StubEncoders(d=4, seed=-1).encode_captions(["a dog"]).tobytes())

    def test_width_mismatch_and_no_encoders_refused(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([], path, StubEncoders(d=4, seed=0))
        with Store(path) as s, pytest.raises(ConfigError, match="width 4, the model's is 8"):
            s.encoders(8)
        save_checkpoint(Model(ModelConfig(d_model=4, n_heads=1, n_encoder_layers=1,
                                          n_decoder_layers=1, d_ff=8, max_target_len=8)), path)
        with Store(path) as s:
            assert s.inspect()["encoders"] is None
            with pytest.raises(ValidationError, match=f"{path} names no encoders"):
                s.encoders(4)


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
            _, off, length = s._entries[0]
        data = bytearray(path.read_bytes())
        # flip one bit in the payload area (before the record's trailing CRC)
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

    def test_get_returns_read_only_arrays(self, tmp_path):
        # the arrays are views of the bytes read, not copies
        rng = np.random.default_rng(2)
        path = tmp_path / "s.store"
        write_store([rand_record(rng, "k")], path)
        with Store(path) as s:
            for rec in (s.get(0), s.get_by_key("k")):
                assert all(not arr.flags.writeable for _, arr in rec.arrays)


HEADER, FOOTER = 28, 16


def index_offset(blob):
    return struct.unpack_from("<Q", blob, len(blob) - FOOTER)[0]


def with_index(blob, index, count=None):
    """``blob`` with its index (and, given ``count``, its record count) replaced
    and the footer CRC recomputed, so only the edited bytes are wrong."""
    header = (blob[:8] + struct.pack("<Q", count) + blob[16:HEADER] if count is not None
              else blob[:HEADER])
    return (header + blob[HEADER : index_offset(blob)] + index
            + struct.pack("<QI4s", index_offset(blob), zlib.crc32(header + index), b"SPTV"))


def index_bytes(entries):
    out = b""
    for off, length, key in entries:
        key = key.encode("utf-8")
        out += struct.pack("<QQH", off, length, len(key)) + key
    return out


class TestLayout:
    def test_two_record_store_bytes(self, tmp_path):
        recs = [EmbeddingRecord("a", (("frame", np.array([1.0, -2.0], np.float32)),)),
                EmbeddingRecord("bc", (("caption", np.zeros((0, 3), np.float32)),
                                       ("raw", np.array([0.5], np.float32))))]
        path = tmp_path / "s.store"
        write_store(recs, path, StubEncoders(d=2, seed=-1))
        expected = bytes.fromhex(
            # header: magic, version 3, 2 records, encoders' width 2 and seed -1 & (2**64 - 1)
            "56505453 03000000 0200000000000000 02000000 ffffffffffffffff"
            # record 0 at 28: 1 array | frame, rank 1, dims 2 | 1.0, -2.0 | CRC32
            "0100 00 01 02000000 0000803f 000000c0 e164dbd5"
            # record 1 at 48: 2 arrays | caption, rank 2, dims 0 3, no payload
            # | raw, rank 1, dims 1 | 0.5 | CRC32
            "0200 01 02 00000000 03000000 04 01 01000000 0000003f 96f9978f"
            # index at 74: offset | length | key length | key, per record
            "1c00000000000000 1400000000000000 0100 61"
            "3000000000000000 1a00000000000000 0200 6263"
            # footer: index offset 74 | CRC32(header + index) | tail magic
            "4a00000000000000 f973e186 53505456")
        assert path.read_bytes() == expected
        for start, end in ((28, 48), (48, 74)):
            assert zlib.crc32(expected[start : end - 4]) == int.from_bytes(
                expected[end - 4 : end], "little")
        assert zlib.crc32(expected[:28] + expected[74:113]) == 0x86E173F9


class TestText:
    def test_round_trip(self):
        for text in ("", "a dog", "h\u00e9llo w\u00f6rld \u2713"):
            row = store.text_row(text)
            assert row.dtype == np.float32 and row.tolist() == list(text.encode("utf-8"))
            assert store.row_text(row, "k") == text

    @pytest.mark.parametrize("values, match", [
        ([100.7], "whole numbers in 0..255"), ([367.0], "whole numbers in 0..255"),
        ([-1.0], "whole numbers in 0..255"), ([np.nan], "whole numbers in 0..255"),
        ([0xC3, 0x28], "not UTF-8")])
    def test_values_that_are_not_utf8_bytes_refused(self, values, match):
        with pytest.raises(CorruptionError, match=f"record 'k': text.*{match}"):
            store.row_text(np.array(values, np.float32), "k")


def pack_seeded_store(tmp_path):
    """Two videos' transcripts, segmented and packed at d=16 with a scene graph
    for one segment; the store's path."""
    rng = np.random.default_rng(11)
    transcripts, graphs = tmp_path / "t.jsonl", tmp_path / "g.jsonl"
    with open(transcripts, "w", encoding="utf-8") as f:
        for v in range(2):
            f.write(json.dumps({"video_id": f"vid{v}", "lang": "en"}) + "\n")
            for w, start, end in make_transcript_words(rng, 30, wpm=45.0):
                f.write(json.dumps({"w": w, "s": start, "e": end}) + "\n")
    graphs.write_text(json.dumps({"key": "vid1:0", "objects": ["dog", "cat"],
                                  "relations": [[0, "chasing", 1]]}) + "\n")
    segments, path = tmp_path / "s.jsonl", tmp_path / "emb.store"
    assert main(["segment", "--transcripts", str(transcripts), "--out", str(segments)]) == 0
    assert main(["encode-pack", "--segments", str(segments), "--graphs", str(graphs),
                 "--out", str(path), "--d", "16", "--seed", "3"]) == 0
    return path


class TestPinnedBytes:
    """SHA-256 of two files the store must keep writing byte for byte; a
    change to the format, the encoders or the model's draws shows here too."""

    def test_encode_pack_store(self, tmp_path):
        digest = hashlib.sha256(pack_seeded_store(tmp_path).read_bytes()).hexdigest()
        assert digest == "87602b08142e8d0328f0b95cd1e14ce8d7ef111030bf40d6dd985778a13f6a0c"

    def test_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(ModelConfig(d_model=16, n_heads=2, n_encoder_layers=1,
                                          n_decoder_layers=1, d_ff=32, max_target_len=16),
                              seed=7), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "dd2b7cd852c1d503e92458bea50d701b01b1bbb63e5b73e202d0a2b2406eb4b6"


class TestIndexIntegrity:
    def test_v1_store_refused(self, tmp_path):
        # an empty store as the version-1 writer laid it out: a header with a
        # compression byte, a 2-slot hash table as the index
        header = struct.pack("<4sIBQ", b"VPTS", 1, 0, 0)
        index = struct.pack("<Q", 2) + bytes(16)
        path = tmp_path / "v1.store"
        path.write_bytes(header + index + struct.pack(
            "<QI4s", len(header), zlib.crc32(header + index), b"SPTV"))
        with pytest.raises(CorruptionError, match="version 1.*re-run"):
            Store(path)

    @pytest.mark.parametrize("records", [0, 1])
    def test_v2_store_refused(self, tmp_path, records):
        # the version-2 layout: a 16-byte header without the encoders; an
        # empty one is smaller than a version-3 header and footer
        header = struct.pack("<4sIQ", b"VPTS", 2, records)
        body = struct.pack("<HI", 0, zlib.crc32(struct.pack("<H", 0))) if records else b""
        index = struct.pack("<QQH", len(header), len(body), 1) + b"k" if records else b""
        path = tmp_path / "v2.store"
        path.write_bytes(header + body + index + struct.pack(
            "<QI4s", len(header) + len(body), zlib.crc32(header + index), b"SPTV"))
        with pytest.raises(CorruptionError, match="version 2 is not read.*re-run the stage"):
            Store(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda e: [e[0], (*e[1][:2], "k0")], "duplicate key 'k0'"),
        (lambda e: index_bytes(e)[:-1], "index"),
        (lambda e: index_bytes(e)[:-5], "index"),
        (lambda e: index_bytes(e) + b"\0", "index holds"),
        (lambda e: [e[0], (2**64 - 1, *e[1][1:])], "outside"),
        (lambda e: [e[0], (e[1][0], 2**40, e[1][2])], "outside"),
        (lambda e: [e[0], (e[1][0], e[1][1] + 1, e[1][2])], "outside"),
        (lambda e: [(HEADER - 1, *e[0][1:]), e[1]], "outside"),
    ], ids=["duplicate-key", "key-cut-short", "entry-cut-short", "bytes-past-entries",
            "offset-2**64-1", "length-2**40", "extent-into-index", "extent-into-header"])
    def test_bad_index_rejected_at_open(self, tmp_path, edit, match):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord(f"k{i}", (("frame", np.ones(3, np.float32)),))
                     for i in range(2)], path)
        with Store(path) as s:
            entries = [(off, length, key) for key, off, length in s._entries]
        index = edit(entries)
        if isinstance(index, list):
            index = index_bytes(index)
        path.write_bytes(with_index(path.read_bytes(), index))
        with pytest.raises(CorruptionError, match=match):
            Store(path)

    def test_count_disagreeing_with_index_rejected(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord(f"k{i}", ()) for i in range(2)], path)
        blob = path.read_bytes()
        index = blob[index_offset(blob) : -FOOTER]
        for count in (1, 3, 2**64 - 1):
            path.write_bytes(with_index(blob, index, count=count))
            with pytest.raises(CorruptionError, match="index"):
                Store(path)

    def test_record_crc_covers_dims(self, tmp_path):
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("k", (("frame", np.ones((2, 3), np.float32)),))], path)
        with Store(path) as s:
            _, off, _ = s._entries[0]
        data = bytearray(path.read_bytes())
        data[off + 4] ^= 0x01          # after u16 array count, u8 tag, u8 rank: dims[0]
        path.write_bytes(bytes(data))
        with Store(path) as s:
            with pytest.raises(CorruptionError, match="CRC"):
                s.get(0)


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


class TestVectoredIO:
    """Records whose parts straddle the write buffer, or span many buffers."""

    def test_records_around_the_write_buffer_round_trip(self, tmp_path):
        # payloads just below, at and above the buffer's size, between small
        # records that leave it partly full: copied into it, or written from the array
        n = store._WRITE_BUFFER // 4
        rng = np.random.default_rng(8)
        recs = [EmbeddingRecord(key, (("frame", rng.normal(size=size).astype(np.float32)),))
                for key, size in (("s0", 3), ("below", n - 1), ("s1", 5), ("at", n),
                                  ("above", n + 1), ("s2", 0))]
        path = tmp_path / "s.store"
        write_store(recs, path)
        body, index = b"", b""   # the file, from the layout alone
        for r in recs:
            [(tag, arr)] = r.arrays
            record = struct.pack("<HBBI", 1, store.TAG_TO_ID[tag], 1, arr.size) + arr.tobytes()
            record += struct.pack("<I", zlib.crc32(record))
            index += struct.pack("<QQH", 28 + len(body), len(record), len(r.key)) + r.key.encode()
            body += record
        header = struct.pack("<4sIQIQ", b"VPTS", 3, len(recs), 0, 0)
        assert path.read_bytes() == header + body + index + struct.pack(
            "<QI4s", 28 + len(body), zlib.crc32(header + index), b"SPTV")
        with Store(path) as s:
            assert all(records_equal(s.get(i), r) for i, r in enumerate(recs))

    def test_600_array_record_round_trips(self, tmp_path):
        # 1,201 header and payload parts in one record
        rng = np.random.default_rng(6)
        arrays = tuple(("frame", rng.normal(size=(i % 4, 3)[: i % 3]).astype(np.float32))
                       for i in range(600))
        path = tmp_path / "s.store"
        write_store([EmbeddingRecord("many", arrays)], path)
        with Store(path) as s:
            got = s.get_by_key("many")
        assert records_equal(got, EmbeddingRecord("many", arrays))
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got.arrays, arrays))


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


# ---------------------------------------------------------------------------
# Fuzz: whatever the bytes, open, get and get_by_key raise only CorruptionError,
# NotFoundError or, for an index past the end, IndexError.
# ---------------------------------------------------------------------------

FUZZ_KEYS = ("a", "bb", "k\u00e9y", "vid007:120")


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """(file bytes, [(key, offset, length)]) of a 4-record store, and a scratch path."""
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("fuzz") / "s.store"
    write_store([rand_record(rng, k) for k in FUZZ_KEYS], path)
    with Store(path) as s:
        entries = list(s._entries)
    return path.read_bytes(), entries, path


def exercise(path):
    try:
        s = Store(path)
    except CorruptionError:
        return
    with s:
        for i in range(len(s)):
            try:
                s.get(i)
            except CorruptionError:
                pass
        for key in (*FUZZ_KEYS, "absent"):
            try:
                s.get_by_key(key)
            except (CorruptionError, NotFoundError):
                pass
        with pytest.raises(IndexError):
            s.get(len(s))


flips = st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), min_size=1, max_size=4)


def flipped(data, edits, start=0, end=None):
    """``data`` with each (position, mask) XORed into [start, end)."""
    data = bytearray(data)
    end = len(data) if end is None else end
    for pos, mask in edits:
        data[start + pos % (end - start)] ^= mask
    return bytes(data)


@given(cut=st.integers(0, 2**20))
@settings(max_examples=100, deadline=None)
def test_fuzz_truncated_file(fuzz_base, cut):
    blob, _, path = fuzz_base
    path.write_bytes(blob[: cut % len(blob)])
    exercise(path)


@given(edits=flips, resize=st.integers(-12, 12), count=st.one_of(st.none(), st.integers(0, 8)))
@settings(max_examples=200, deadline=None)
def test_fuzz_crc_valid_index(fuzz_base, edits, resize, count):
    blob, _, path = fuzz_base
    index = blob[index_offset(blob) : -FOOTER]
    index = flipped(index, edits)
    index = index[:resize] if resize < 0 else index + bytes(resize)
    path.write_bytes(with_index(blob, index, count))
    exercise(path)


@given(offset=st.one_of(st.integers(0, 2**12), st.integers(0, 2**64 - 1)))
@settings(max_examples=100, deadline=None)
def test_fuzz_footer_index_offset(fuzz_base, offset):
    # the footer CRC covers the header and whatever the offset points at
    blob, _, path = fuzz_base
    header, body = blob[:HEADER], blob[:-FOOTER]
    path.write_bytes(body + struct.pack("<QI4s", offset,
                                        zlib.crc32(header + body[offset:]), b"SPTV"))
    exercise(path)


@given(record=st.integers(0, len(FUZZ_KEYS) - 1), edits=flips)
@example(record=0, edits=[(3, 4)])   # rank 2 -> 6: a zero dim beside dims numpy cannot hold
@settings(max_examples=200, deadline=None)
def test_fuzz_crc_valid_record(fuzz_base, record, edits):
    blob, entries, path = fuzz_base
    _, off, length = entries[record]
    data = bytearray(flipped(blob, edits, off, off + length - 4))
    data[off + length - 4 : off + length] = struct.pack("<I", zlib.crc32(data[off : off + length - 4]))
    path.write_bytes(bytes(data))
    exercise(path)
