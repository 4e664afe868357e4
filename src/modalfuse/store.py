"""Binary store for ragged multimodal embedding records.

Requirements covered: O(1) record lookup via an offset index, ragged
float32 arrays per record stored uncompressed, atomic commit via temp-file +
rename, and unlimited concurrent readers over the immutable committed file.

On-disk layout (all little-endian):

  header   magic "VPTS" | u32 version=3 | u64 record count
           | u32 width | u64 seed & (2**64 - 1): the stub encoders that made the
             rows, as ``Store.encoders`` returns them (width 0: none, as in a checkpoint)
  records  per record:
             u16 array count
             per array: u8 modality tag | u8 rank | rank x u32 dims
                        | float32 payload (product of dims x 4 bytes)
             u32 CRC32 of the record's preceding bytes
  index    per record: u64 offset | u64 length | u16 key length | key (UTF-8)
  footer   u64 index offset | u32 CRC32(header + index) | magic "SPTV"

The index sits at the end so records stream out in one pass; readers locate
it through the fixed-size footer. A reader parses the whole index at open
into record extents and a key -> record map, so a keyed lookup costs one
dict probe and one extent read.

``write_store`` writes through ``atomic_commit``'s buffered file, which
copies headers and small arrays; an array larger than its buffer goes out
from its own memory. ``Store.get``, the one read path, reads a record with
``os.preadv`` into a fresh numpy buffer that its arrays view. From
``_SPLIT_BYTES`` on, the worker thread (``_beside``) computes a written
record's CRC, and reads and checks the first half of a record read;
``crc32_combine`` joins the halves' CRCs.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import ConfigError, CorruptionError, NotFoundError, ValidationError
# hash_bytes is unused here but stays importable as store.hash_bytes,
# where the benchmark's call tracer patches it.
from .experts import StubEncoders, hash_bytes  # noqa: F401

MAGIC_HEAD = b"VPTS"
MAGIC_TAIL = b"SPTV"
VERSION = 3   # bumped by any change to a stub's output too: a header's encoders reproduce its rows

# u8 modality tags; "raw" covers non-modality payloads such as checkpoints
TAG_TO_ID = {"frame": 0, "caption": 1, "scene_graph": 2, "question": 3, "raw": 4}
ID_TO_TAG = {v: k for k, v in TAG_TO_ID.items()}

_HEADER = struct.Struct("<4sIQIQ")
_FOOTER = struct.Struct("<QI4s")
_INDEX_ENTRY = struct.Struct("<QQH")   # followed by the key bytes
_CRC = struct.Struct("<I")

_WRITE_BUFFER = 1 << 19   # atomic_commit's file buffer: with 8 KiB, stores write slower
_SPLIT_BYTES = 1 << 20   # record size from which a get reads and checks halves, one on the worker
_worker = None   # the executor of the one worker thread, made on first use


def _beside(work: int, least: int, job, *args):
    """``job(*args)``, on the one worker thread when ``work`` reaches ``least``
    and the process may use 2 CPUs, else here; either way, a handle whose
    ``result()`` joins the job and returns its value.

    The jobs are a large record's CRC and first half's read (``write_store``,
    ``Store.get``), and backbone's product halves, weight-gradient products,
    AdamW halves and draws. Each computes the bits the main thread would, so
    a run's outputs are the same on one CPU or two. Jobs call numpy,
    ``os.preadv`` and ``zlib.crc32`` only, never a modalfuse function or
    method: the benchmark's tracer keeps one span stack.
    """
    global _worker
    if work < least or len(os.sched_getaffinity(0)) < 2:
        value = job(*args)
        return SimpleNamespace(result=lambda: value)
    if _worker is None:   # imported here: a run that never hands off loads nothing
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, "modalfuse")
    return _worker.submit(job, *args)


def _times(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, both in zlib's reflected bit order."""
    product = 0
    for bit in range(31, -1, -1):
        if a >> bit & 1:
            product ^= b
        b = b >> 1 ^ (0xEDB88320 if b & 1 else 0)   # b * x: the polynomial, reflected
    return product


_X8N = [1 << 23]   # x^(8 * 2^k), k = 0, 1, ...: the shift past 2^k bytes
for _ in range(63):
    _X8N.append(_times(_X8N[-1], _X8N[-1]))


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from crc1 and crc2, the CRCs of ``a`` and ``b``, and len2,
    ``len(b)``: crc1 shifted past len2 bytes, plus crc2, as zlib's crc32_combine."""
    shift = 1 << 31   # x^0
    for k in range(len2.bit_length()):
        if len2 >> k & 1:
            shift = _times(_X8N[k], shift)
    return _times(shift, crc1) ^ crc2


@dataclass(frozen=True)
class EmbeddingRecord:
    key: str
    arrays: tuple[tuple[str, np.ndarray], ...]   # (modality tag, float32 array)

    def __post_init__(self):
        fixed = []
        for tag, arr in self.arrays:
            if tag not in TAG_TO_ID:
                raise ConfigError(f"unknown modality tag {tag!r}")
            # not ascontiguousarray, which turns a 0-d array into shape (1,)
            cast = np.asarray(arr, dtype=np.float32, order="C")
            if cast is not arr and not np.array_equal(cast, arr, equal_nan=True):
                raise ConfigError(f"record {self.key!r}: {tag} values change in a float32 cast")
            fixed.append((tag, cast))
        object.__setattr__(self, "arrays", tuple(fixed))


@dataclass(frozen=True)
class StoreSummary:
    path: Path
    count: int
    file_bytes: int


def text_row(text: str) -> np.ndarray:
    """``text`` as a float32 row of its UTF-8 bytes, one value per byte."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def row_text(row: np.ndarray, key: str) -> str:
    """The text of ``row``, a ``text_row`` of record ``key``; CorruptionError
    unless every value is a whole number in 0..255 and the bytes are UTF-8."""
    if not ((row >= 0) & (row <= 255) & (np.floor(row) == row)).all():
        raise CorruptionError(f"record {key!r}: text values must be whole numbers in 0..255")
    try:
        return bytes(row.astype(np.uint8)).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptionError(f"record {key!r}: text is not UTF-8: {e}") from e


def _decode_arrays(blob: np.ndarray, where: str) -> tuple[tuple[str, np.ndarray], ...]:
    """The arrays of ``blob``, a record's bytes whose CRC has been checked."""
    end = len(blob) - _CRC.size
    try:
        (n_arrays,) = struct.unpack_from("<H", blob, 0)
        pos = 2
        arrays = []
        for _ in range(n_arrays):
            tag_id, rank = struct.unpack_from("<BB", blob, pos); pos += 2
            dims = struct.unpack_from(f"<{rank}I", blob, pos); pos += 4 * rank
            n = math.prod(dims)
            if pos + 4 * n > end:
                raise CorruptionError(f"record {where}: shape {dims} overruns the record")
            # a view: the record's arrays share the blob, uncopied
            arr = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(dims)
            pos += 4 * n
            arrays.append((ID_TO_TAG[tag_id], arr))
    except (struct.error, KeyError, ValueError) as e:
        raise CorruptionError(f"record {where} is corrupt: {e}") from e
    if pos != end:
        raise CorruptionError(f"record {where}: {end - pos} trailing bytes")
    return tuple(arrays)


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
        with os.fdopen(fd, "wb", buffering=_WRITE_BUFFER) as f:
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


def write_store(records: Iterable[EmbeddingRecord], path: str | Path,
                encoders: StubEncoders | None = None) -> StoreSummary:
    """Stream records into a new store, committed through ``atomic_commit``;
    the header names ``encoders``, those that made the rows, or none."""
    path = Path(path)
    seen: set[str] = set()
    index = bytearray()
    with atomic_commit(path) as f:
        # count is unknown until the stream ends; the header is written again last
        names = (encoders.d, encoders.seed & (2**64 - 1)) if encoders is not None else (0, 0)
        f.write(_HEADER.pack(MAGIC_HEAD, VERSION, 0, *names))
        pos = _HEADER.size
        for record in records:
            if record.key in seen:
                raise ValueError(f"duplicate key {record.key!r}")
            seen.add(record.key)
            key_bytes = record.key.encode("utf-8")
            if len(key_bytes) > 0xFFFF:
                raise ValueError(f"key too long: {len(key_bytes)} bytes")
            parts = [struct.pack("<H", len(record.arrays))]
            for tag, arr in record.arrays:   # the head, then the array's own bytes, uncopied
                parts += [struct.pack(f"<BB{arr.ndim}I", TAG_TO_ID[tag], arr.ndim, *arr.shape),
                          memoryview(arr.reshape(-1)).cast("B")]
            length = sum(map(len, parts)) + _CRC.size
            # a job (see _beside): the CRC chained over the parts
            pending = _beside(length, _SPLIT_BYTES, reduce, lambda crc, part: zlib.crc32(part, crc),
                              parts, 0)
            f.writelines(parts)
            f.write(_CRC.pack(pending.result()))
            index += _INDEX_ENTRY.pack(pos, length, len(key_bytes)) + key_bytes
            pos += length

        header = _HEADER.pack(MAGIC_HEAD, VERSION, len(seen), *names)
        f.writelines([index, _FOOTER.pack(pos, zlib.crc32(header + index), MAGIC_TAIL)])
        f.seek(0)
        f.write(header)
    return StoreSummary(path, len(seen), path.stat().st_size)


class Store:
    """Reader over a committed store file.

    The index loads once at open; each ``get`` then reads only its record's
    extent, whose size depends only on the record, not its position.
    ``bytes_read`` counts the extent bytes it reads, for instrumentation.
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
        fd = self._f.fileno()
        file_size = os.fstat(fd).st_size
        header = os.pread(fd, _HEADER.size, 0)
        if header[:4] != MAGIC_HEAD:
            raise CorruptionError(f"{self.path}: bad header magic")
        # read before the size: an empty version-2 store is smaller than this header
        if (version := int.from_bytes(header[4:8], "little")) != VERSION:
            raise CorruptionError(
                f"{self.path}: store format version {version} is not read (this reader "
                f"reads version {VERSION}); re-run the stage that wrote this file "
                "(encode-pack for an embedding store, pretrain or finetune for a checkpoint)")
        if file_size < _HEADER.size + _FOOTER.size:
            raise CorruptionError(f"{self.path}: too small to be a store")
        _, _, count, *self._encoders = _HEADER.unpack(header)

        index_end = file_size - _FOOTER.size
        index_offset, crc, tail = _FOOTER.unpack(os.pread(fd, _FOOTER.size, index_end))
        if tail != MAGIC_TAIL:
            raise CorruptionError(f"{self.path}: bad footer magic")
        if not _HEADER.size <= index_offset <= index_end:
            raise CorruptionError(f"{self.path}: index offset {index_offset} out of range")
        index = os.pread(fd, index_end - index_offset, index_offset)
        if zlib.crc32(header + index) != crc:
            raise CorruptionError(f"{self.path}: header/index CRC mismatch")

        # (key, offset, length) per record, and key -> record number
        self._entries: list[tuple[str, int, int]] = []
        self._by_key: dict[str, int] = {}
        pos = 0
        try:
            for i in range(count):
                off, length, key_len = _INDEX_ENTRY.unpack_from(index, pos)
                pos += _INDEX_ENTRY.size
                key = index[pos : pos + key_len].decode("utf-8")
                pos += key_len
                if key in self._by_key:
                    raise CorruptionError(f"{self.path}: duplicate key {key!r} in index")
                if not (_HEADER.size <= off and off + length <= index_offset):
                    raise CorruptionError(f"{self.path}: record {i} extent "
                                          f"[{off}, {off + length}) is outside the records")
                self._entries.append((key, off, length))
                self._by_key[key] = i
        except (struct.error, UnicodeDecodeError) as e:
            raise CorruptionError(f"{self.path}: index is corrupt: {e}") from e
        if pos != len(index):
            raise CorruptionError(f"{self.path}: index holds {len(index)} bytes, "
                                  f"{count} entries use {pos}")
        self.count = count

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __len__(self):
        return self.count

    def encoders(self, d_model: int) -> StubEncoders:
        """The stub encoders that made the rows, checked to be ``d_model`` wide."""
        d, seed = self._encoders
        if not d:
            raise ValidationError(f"{self.path} names no encoders (a checkpoint names none)")
        if d != d_model:
            raise ConfigError(f"{self.path} holds rows of width {d}, the model's is {d_model}")
        return StubEncoders(d, seed)

    def get(self, index: int) -> EmbeddingRecord:
        if not (0 <= index < self.count):
            raise IndexError(f"record index {index} out of range [0, {self.count})")
        key, off, length = self._entries[index]
        fd, blob, end = self._f.fileno(), np.empty(length, np.uint8), length - _CRC.size

        def read(lo: int, hi: int) -> tuple[int, int]:   # a job (see _beside); thread-safe
            return os.preadv(fd, [blob[lo:hi]], off + lo), zlib.crc32(blob[lo:min(hi, end)])

        if length < _SPLIT_BYTES:
            got, crc = read(0, length)
        else:   # the first half on the worker, the second here
            cut = length // 2
            first = _beside(length, _SPLIT_BYTES, read, 0, cut)
            (got, crc), (got1, crc1) = read(cut, length), first.result()
            got, crc = got1 + got, crc32_combine(crc1, crc, end - cut)
        if got != length:   # blob holds uninitialised bytes
            raise CorruptionError(f"{self.path}: record {index} is cut short: "
                                  f"read {got} of its {length} bytes")
        self.bytes_read += length
        if end < 2 or crc != _CRC.unpack_from(blob, end)[0]:
            raise CorruptionError(f"CRC mismatch in record {index}")
        return EmbeddingRecord(key, _decode_arrays(blob, where=str(index)))

    def get_by_key(self, key: str) -> EmbeddingRecord:
        number = self._by_key.get(key)
        if number is None:
            raise NotFoundError(f"key {key!r} not found in {self.path}")
        return self.get(number)

    def inspect(self) -> dict:
        records = [{"key": r.key, "arrays": [(tag, list(arr.shape)) for tag, arr in r.arrays]}
                   for r in map(self.get, range(self.count))]
        d, seed = self._encoders
        return {
            "path": str(self.path),
            "version": VERSION,
            "count": self.count,
            "encoders": {"d": d, "seed": seed} if d else None,
            "file_bytes": self.path.stat().st_size,
            "records": records,
        }
