"""Sliding-window segmentation of word-timestamped transcripts.

Transcripts arrive as ordered (word, start, end) triples. We partition them
into fixed-size word windows, compute the words-per-minute density of each
window, drop low-density windows, and pick evenly spaced frame-sample times
inside each window's time span.

Conventions (all documented, all testable):
  * default window is 15 words, default density threshold 30 wpm (inclusive);
  * duration is measured first-word-start to last-word-end;
  * a trailing window shorter than ``window`` words is dropped, never padded;
  * zero-duration windows get infinite density and always pass the filter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, TextIO

from .errors import RecordParseError, ValidationError, check_fields, json_records

DEFAULT_WINDOW = 15
DEFAULT_MIN_WPM = 30.0


@dataclass(frozen=True)
class TimedWord:
    text: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError("word text must be non-empty")
        if any(c.isspace() for c in self.text):
            raise ValidationError(f"word text contains whitespace: {self.text!r}")
        if self.start_s < 0:
            raise ValidationError(f"negative start time: {self.start_s}")
        if self.end_s < self.start_s:
            raise ValidationError(
                f"word end {self.end_s} precedes start {self.start_s}"
            )


@dataclass(frozen=True)
class TimedTranscript:
    video_id: str
    words: tuple[TimedWord, ...]

    def __post_init__(self):
        if not self.video_id:
            raise ValidationError("video_id must be non-empty")
        object.__setattr__(self, "words", tuple(self.words))
        starts = [w.start_s for w in self.words]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValidationError(f"transcript {self.video_id}: words not sorted by start time")


@dataclass(frozen=True)
class Segment:
    video_id: str
    word_start: int          # index of first word in the source transcript
    word_end: int            # one past the last word
    caption: str
    t_start: float
    t_end: float
    frame_times: tuple[float, ...] = field(default_factory=tuple)

    @property
    def word_count(self) -> int:
        return self.word_end - self.word_start


def segment_transcript(
    transcript: TimedTranscript,
    window: int = DEFAULT_WINDOW,
    stride: int | None = None,
) -> list[Segment]:
    """Partition a transcript into word windows at offsets 0, stride, 2*stride, ...

    Each produced segment has exactly ``window`` words; a trailing remainder is
    dropped. ``stride`` defaults to ``window`` (non-overlapping partition).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride is None:
        stride = window
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    words = transcript.words
    segments = []
    for offset in range(0, len(words) - window + 1, stride):
        span = words[offset : offset + window]
        segments.append(Segment(
            video_id=transcript.video_id,
            word_start=offset,
            word_end=offset + len(span),
            caption=" ".join(w.text for w in span),
            t_start=span[0].start_s,
            t_end=span[-1].end_s,
        ))
    return segments


def word_density(segment: Segment) -> float:
    """Words per minute over the segment's first-start-to-last-end span.

    A zero-duration span returns ``inf``: such segments are degenerate but
    maximally dense, so they always pass the density filter.
    """
    if segment.word_count < 1:
        raise ValueError("segment has no words")
    duration_min = (segment.t_end - segment.t_start) / 60.0
    if duration_min == 0.0:
        return math.inf
    return segment.word_count / duration_min


def filter_segments(segments: Iterable[Segment], min_wpm: float = DEFAULT_MIN_WPM) -> list[Segment]:
    """Keep segments whose density is >= min_wpm (inclusive), preserving order."""
    if min_wpm <= 0:
        raise ValueError(f"min_wpm must be positive, got {min_wpm}")
    return [s for s in segments if word_density(s) >= min_wpm]


def sample_frame_times(segment: Segment, k: int) -> list[float]:
    """k timestamps at the midpoints of k equal sub-spans of [t_start, t_end].

    k=1 yields the span midpoint; a degenerate span collapses all samples
    onto the single timestamp.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    span = segment.t_end - segment.t_start
    return [segment.t_start + (i + 0.5) * span / k for i in range(k)]


def with_frame_times(segment: Segment, k: int) -> Segment:
    return replace(segment, frame_times=tuple(sample_frame_times(segment, k)))


# ---------------------------------------------------------------------------
# Line-delimited IO.
#
# Transcript files: a header record {"video_id": str, "lang": any, ignored}
# followed by one word record {"w": str, "s": number, "e": number} per line.
# Several transcripts may be concatenated in one file; each header starts a
# new one.
# ---------------------------------------------------------------------------

_WORD_FIELDS = {"w": str, "s": float, "e": float}
_NUMBER = (int, float)
_SEGMENT_FIELDS = {"video_id": str, "word_start": int, "word_end": int, "caption": str,
                   "t_start": float, "t_end": float, "frame_times": [float]}


def read_transcripts(fp: TextIO) -> Iterator[TimedTranscript]:
    video_id = None
    words: list[TimedWord] = []
    for lineno, rec in json_records(fp, "transcript"):
        if "video_id" in rec:
            check_fields(rec, {"video_id": str}, "transcript header", lineno)
            if video_id is not None:
                yield TimedTranscript(video_id, tuple(words))
            video_id = rec["video_id"]
            words = []
        elif "w" in rec:
            if video_id is None:
                raise RecordParseError("word record before transcript header", line=lineno)
            # inline type tests, as this runs per word; check_fields names the bad field
            w, s, e = rec.get("w"), rec.get("s"), rec.get("e")
            if type(w) is not str or type(s) not in _NUMBER or type(e) not in _NUMBER:
                check_fields(rec, _WORD_FIELDS, "word", lineno)
            try:
                words.append(TimedWord(w, float(s), float(e)))
            except (ValidationError, OverflowError) as e:
                raise RecordParseError(str(e), line=lineno) from e
        else:
            raise RecordParseError(f"unrecognized record: {str(rec)[:80]}", line=lineno)
    if video_id is not None:
        yield TimedTranscript(video_id, tuple(words))


def write_segments(segments: Iterable[Segment], fp: TextIO) -> int:
    """One JSON line per segment. The "wpm" key is informational: readers
    recompute density with ``word_density``."""
    n = 0
    for s in segments:
        wpm = word_density(s)
        fp.write(json.dumps({
            "video_id": s.video_id,
            "word_start": s.word_start,
            "word_end": s.word_end,
            "caption": s.caption,
            "t_start": s.t_start,
            "t_end": s.t_end,
            "frame_times": list(s.frame_times),
            "wpm": wpm if math.isfinite(wpm) else None,
        }) + "\n")
        n += 1
    return n


def read_segments(fp: TextIO) -> Iterator[Segment]:
    """The segments of ``write_segments`` lines; "frame_times" may be absent."""
    for lineno, rec in json_records(fp, "segment"):
        rec.setdefault("frame_times", [])
        check_fields(rec, _SEGMENT_FIELDS, "segment", lineno)
        yield Segment(rec["video_id"], rec["word_start"], rec["word_end"], rec["caption"],
                      float(rec["t_start"]), float(rec["t_end"]), tuple(rec["frame_times"]))
