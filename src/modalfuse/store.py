"""Binary store for ragged multimodal embedding records.

Requirements covered: O(1) record lookup via an offset index, ragged
float32 arrays per record stored uncompressed, atomic commit via temp-file +
rename, and unlimited concurrent readers over the immutable committed file.

On-disk layout (all little-endian):

  header   magic "VPTS" | u32 version=1 | u8 compression, always 0
           | u64 record count
  records  per record:
             u16 key length | key (UTF-8)
             u16 array count
             per array: u8 modality tag | u8 rank | rank x u32 dims
                        | u64 stored payload length | payload
                        | u32 CRC32 of the stored payload bytes
  index    per record: u64 offset | u64 length | u64 key hash
           u64 hash-table size | size x u64 slots (record index + 1; 0 empty)
  footer   u64 index offset | u32 CRC32(header + index) | magic "SPTV"

The index sits at the end so records stream out in one pass; readers locate
it through the fixed-size footer. The hash table is open-addressed with
linear probing; collisions resolve by comparing the actual record key.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import ConfigError, CorruptionError, NotFoundError
from .experts import hash_bytes

MAGIC_HEAD = b"VPTS"
MAGIC_TAIL = b"SPTV"
VERSION = 1

# u8 modality tags; "raw" covers non-modality payloads such as checkpoints
TAG_TO_ID = {"frame": 0, "caption": 1, "scene_graph": 2, "question": 3, "raw": 4}
ID_TO_TAG = {v: k for k, v in TAG_TO_ID.items()}

_HEADER = struct.Struct("<4sIBQ")
_FOOTER = struct.Struct("<QI4s")
_INDEX_ENTRY = struct.Struct("<QQQ")


@dataclass(frozen=True)
class EmbeddingRecord:
    key: str
    arrays: tuple[tuple[str, np.ndarray], ...]   # (modality tag, float32 array)

    def __post_init__(self):
        fixed = []
        for tag, arr in self.arrays:
            if tag not in TAG_TO_ID:
                raise ConfigError(f"unknown modality tag {tag!r}")
            fixed.append((tag, np.ascontiguousarray(arr, dtype=np.float32)))
        object.__setattr__(self, "arrays", tuple(fixed))


@dataclass(frozen=True)
class StoreSummary:
    path: Path
    count: int
    file_bytes: int


def _encode_record(record: EmbeddingRecord) -> bytes:
    key_bytes = record.key.encode("utf-8")
    if len(key_bytes) > 0xFFFF:
        raise ValueError(f"key too long: {len(key_bytes)} bytes")
    out = bytearray()
    out += struct.pack("<H", len(key_bytes))
    out += key_bytes
    out += struct.pack("<H", len(record.arrays))
    for tag, arr in record.arrays:
        payload = arr.tobytes()
        out += struct.pack("<BB", TAG_TO_ID[tag], arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += struct.pack("<Q", len(payload))
        out += payload
        out += struct.pack("<I", zlib.crc32(payload))
    return bytes(out)


def _decode_record(blob: bytes, where: str) -> EmbeddingRecord:
    try:
        pos = 0
        (key_len,) = struct.unpack_from("<H", blob, pos); pos += 2
        key = blob[pos : pos + key_len].decode("utf-8"); pos += key_len
        (n_arrays,) = struct.unpack_from("<H", blob, pos); pos += 2
        arrays = []
        for _ in range(n_arrays):
            tag_id, rank = struct.unpack_from("<BB", blob, pos); pos += 2
            dims = struct.unpack_from(f"<{rank}I", blob, pos); pos += 4 * rank
            (payload_len,) = struct.unpack_from("<Q", blob, pos); pos += 8
            payload = blob[pos : pos + payload_len]; pos += payload_len
            (crc,) = struct.unpack_from("<I", blob, pos); pos += 4
            if zlib.crc32(payload) != crc:
                raise CorruptionError(f"CRC mismatch in record {where}")
            expect = int(np.prod(dims, dtype=np.int64)) * 4
            if len(payload) != expect:
                raise CorruptionError(f"record {where}: payload {len(payload)} bytes, "
                                      f"shape {tuple(dims)} needs {expect}")
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            arrays.append((ID_TO_TAG[tag_id], arr))
        if pos != len(blob):
            raise CorruptionError(f"record {where}: {len(blob) - pos} trailing bytes")
        return EmbeddingRecord(key, tuple(arrays))
    except (struct.error, UnicodeDecodeError, KeyError) as e:
        raise CorruptionError(f"record {where} is corrupt: {e}") from e


def _build_hash_table(key_hashes: list[int]) -> np.ndarray:
    size = 1
    while size < 2 * max(len(key_hashes), 1):
        size <<= 1
    table = np.zeros(size, dtype=np.uint64)
    for idx, h in enumerate(key_hashes):
        slot = h & (size - 1)
        while table[slot] != 0:
            slot = (slot + 1) & (size - 1)
        table[slot] = idx + 1
    return table


@contextmanager
def atomic_commit(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary temp file beside ``path``; on a clean exit, fsync it and
    rename it over ``path``.

    A pre-existing file at ``path`` stays untouched until the final rename;
    on any failure the temporary file is removed and ``path`` is unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_store(records: Iterable[EmbeddingRecord], path: str | Path) -> StoreSummary:
    """Stream records into a new store, committed through ``atomic_commit``."""
    path = Path(path)
    offsets: list[tuple[int, int, int]] = []
    seen: set[str] = set()
    with atomic_commit(path) as f:
        # count is unknown until the stream ends; patch the header last
        f.write(_HEADER.pack(MAGIC_HEAD, VERSION, 0, 0))
        for record in records:
            if record.key in seen:
                raise ValueError(f"duplicate key {record.key!r}")
            seen.add(record.key)
            blob = _encode_record(record)
            offsets.append((f.tell(), len(blob), hash_bytes(record.key.encode("utf-8"))))
            f.write(blob)

        count = len(offsets)
        index_offset = f.tell()
        index = bytearray()
        for off, length, key_hash in offsets:
            index += _INDEX_ENTRY.pack(off, length, key_hash)
        table = _build_hash_table([h for _, _, h in offsets])
        index += struct.pack("<Q", len(table))
        index += table.astype("<u8").tobytes()
        f.write(index)

        header = _HEADER.pack(MAGIC_HEAD, VERSION, 0, count)
        f.write(_FOOTER.pack(index_offset, zlib.crc32(header + bytes(index)), MAGIC_TAIL))
        f.seek(0)
        f.write(header)
    return StoreSummary(path, count, path.stat().st_size)


class Store:
    """Reader over a committed store file.

    The index loads once at open; each ``get`` then performs exactly one
    extent read whose size depends only on the record, not its position.
    ``bytes_read`` counts extent bytes for instrumentation.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._f = open(self.path, "rb")
        self.bytes_read = 0
        try:
            self._load_index()
        except Exception:
            self._f.close()
            raise

    def _load_index(self):
        file_size = self.path.stat().st_size
        if file_size < _HEADER.size + _FOOTER.size:
            raise CorruptionError(f"{self.path}: too small to be a store")
        self._f.seek(0)
        header = self._f.read(_HEADER.size)
        magic, version, comp, count = _HEADER.unpack(header)
        if magic != MAGIC_HEAD:
            raise CorruptionError(f"{self.path}: bad header magic")
        if version != VERSION:
            raise CorruptionError(f"{self.path}: unsupported version {version}")
        if comp != 0:
            raise CorruptionError(
                f"{self.path}: compression byte {comp}; compressed stores are no longer "
                "read, so re-run the stage that wrote this file (encode-pack for an "
                "embedding store, pretrain or finetune for a checkpoint)")
        self.count = count

        self._f.seek(file_size - _FOOTER.size)
        index_offset, crc, tail = _FOOTER.unpack(self._f.read(_FOOTER.size))
        if tail != MAGIC_TAIL:
            raise CorruptionError(f"{self.path}: bad footer magic")
        self._f.seek(index_offset)
        index = self._f.read(file_size - _FOOTER.size - index_offset)
        if zlib.crc32(header + index) != crc:
            raise CorruptionError(f"{self.path}: header/index CRC mismatch")

        need = count * _INDEX_ENTRY.size + 8
        if len(index) < need:
            raise CorruptionError(f"{self.path}: index truncated")
        entries = np.frombuffer(index[: count * _INDEX_ENTRY.size], dtype="<u8")
        entries = entries.reshape(count, 3)
        self._offsets = entries[:, 0].astype(np.int64)
        self._lengths = entries[:, 1].astype(np.int64)
        self._key_hashes = entries[:, 2]
        (table_size,) = struct.unpack_from("<Q", index, count * _INDEX_ENTRY.size)
        table_bytes = index[count * _INDEX_ENTRY.size + 8 :]
        if len(table_bytes) != table_size * 8:
            raise CorruptionError(f"{self.path}: hash table truncated")
        self._table = np.frombuffer(table_bytes, dtype="<u8")
        # get_by_key masks slots with size - 1 and reads record (entry - 1)
        if table_size == 0 or table_size & (table_size - 1):
            raise CorruptionError(f"{self.path}: hash table size {table_size} is not a power of two")
        if int(self._table.max()) > count:
            raise CorruptionError(f"{self.path}: hash table points past record count {count}")

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __len__(self):
        return self.count

    def get(self, index: int) -> EmbeddingRecord:
        if not (0 <= index < self.count):
            raise IndexError(f"record index {index} out of range [0, {self.count})")
        off = int(self._offsets[index])
        length = int(self._lengths[index])
        # pread keeps gets thread-safe over the shared descriptor
        blob = os.pread(self._f.fileno(), length, off)
        self.bytes_read += len(blob)
        if len(blob) != length:
            raise CorruptionError(f"{self.path}: record {index} extent truncated")
        return _decode_record(blob, where=str(index))

    def get_by_key(self, key: str) -> EmbeddingRecord:
        if self.count == 0:
            raise NotFoundError(f"key {key!r} not in empty store")
        h = hash_bytes(key.encode("utf-8"))
        mask = len(self._table) - 1
        slot = h & mask
        for _ in range(len(self._table)):
            entry = int(self._table[slot])
            if entry == 0:
                break
            idx = entry - 1
            if int(self._key_hashes[idx]) == h:
                record = self.get(idx)
                if record.key == key:
                    return record
            slot = (slot + 1) & mask
        raise NotFoundError(f"key {key!r} not found in {self.path}")

    def inspect(self) -> dict:
        records = []
        for i in range(self.count):
            r = self.get(i)
            records.append({
                "key": r.key,
                "arrays": [(tag, list(arr.shape)) for tag, arr in r.arrays],
            })
        return {
            "path": str(self.path),
            "version": VERSION,
            "count": self.count,
            "file_bytes": self.path.stat().st_size,
            "records": records,
        }
