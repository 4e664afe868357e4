"""Tour of the binary embedding store: write, keyed lookup, index-independent
reads, integrity checking, and crash-safe commits."""

import tempfile
from pathlib import Path

import numpy as np

from modalfuse.errors import CorruptionError
from modalfuse.store import EmbeddingRecord, Store, write_store


def main():
    with tempfile.TemporaryDirectory(prefix="modalfuse-store-") as root:
        tour(Path(root))


def tour(root: Path):
    path = root / "demo.store"
    rng = np.random.default_rng(0)

    records = [
        EmbeddingRecord(f"vid{i:03d}:0", (
            ("frame", rng.normal(size=64).astype(np.float32)),
            ("caption", rng.normal(size=64).astype(np.float32)),
        ))
        for i in range(100)
    ]
    summary = write_store(records, path)
    print(f"wrote {summary.count} records, {summary.file_bytes} bytes\n")

    with Store(path) as s:
        rec = s.get_by_key("vid042:0")
        print(f"keyed lookup 'vid042:0' -> {len(rec.arrays)} arrays, "
              f"shapes {[a.shape for _, a in rec.arrays]}")

        s.bytes_read = 0
        s.get(0)
        a = s.bytes_read
        s.bytes_read = 0
        s.get(99)
        print(f"bytes read for get(0) = {a}, get(99) = {s.bytes_read} "
              f"(index-independent: any record is one seek away)")

    # integrity: flip one payload bit and watch the CRC catch it
    blob = bytearray(path.read_bytes())
    blob[200] ^= 0x01
    bad = root / "tampered.store"
    bad.write_bytes(bytes(blob))
    with Store(bad) as s:
        try:
            for i in range(len(s)):
                s.get(i)
        except CorruptionError as e:
            print(f"\ntampered store detected: {e}")

    # atomicity: a writer that dies mid-stream leaves the committed file alone
    before = path.read_bytes()

    def dying_writer():
        yield EmbeddingRecord("new", (("frame", np.zeros(4, np.float32)),))
        raise RuntimeError("simulated crash")

    try:
        write_store(dying_writer(), path)
    except RuntimeError:
        pass
    print(f"after simulated crash, store unchanged: {path.read_bytes() == before}")


if __name__ == "__main__":
    main()
