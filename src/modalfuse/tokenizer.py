"""Byte-level tokenizer: 256 byte values plus PAD/BOS/EOS specials.

Byte-level keeps the vocabulary tiny and makes round-tripping exact for any
UTF-8 text, with no trained merge tables to ship.
"""

from __future__ import annotations

import numpy as np

PAD = 256
BOS = 257
EOS = 258
VOCAB_SIZE = 259


def tokenize(text: str, max_len: int) -> np.ndarray:
    """[BOS, bytes..., EOS] truncated/padded to exactly max_len ids."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 to fit BOS and EOS, got {max_len}")
    data = text.encode("utf-8")[: max_len - 2]
    ids = [BOS, *data, EOS]
    ids += [PAD] * (max_len - len(ids))
    return np.array(ids, dtype=np.int64)


def truncates(text: str, max_len: int) -> bool:
    """Whether ``tokenize(text, max_len)`` cuts ``text``: it keeps max_len - 2 bytes."""
    return len(text.encode("utf-8")) > max_len - 2


def detokenize(tokens: np.ndarray) -> str:
    """Inverse of tokenize on untruncated text; ignores specials."""
    data = bytearray()
    for t in np.asarray(tokens).reshape(-1).tolist():   # Python ints loop faster than numpy ones
        if t == EOS:
            break
        if t < 256:
            data.append(t)
    return data.decode("utf-8", errors="replace")
