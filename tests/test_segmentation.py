import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse.errors import RecordParseError, ValidationError
from modalfuse.segmentation import (Segment, TimedTranscript, TimedWord,
                                    filter_segments, read_segments,
                                    read_transcripts, sample_frame_times,
                                    segment_transcript, with_frame_times,
                                    word_density, write_segments)


def make_transcript(n_words, wpm=45.0, video_id="v1"):
    dt = 60.0 / wpm
    words = tuple(
        TimedWord(f"w{i}", i * dt, i * dt + 0.8 * dt) for i in range(n_words)
    )
    return TimedTranscript(video_id, words)


def make_segment(n_words=15, duration_s=30.0):
    return Segment(
        video_id="v",
        word_start=0,
        word_end=n_words,
        caption=" ".join(f"w{i}" for i in range(n_words)),
        t_start=0.0,
        t_end=duration_s,
    )


class TestSegmentTranscript:
    def test_exact_partition(self):
        segs = segment_transcript(make_transcript(30), window=15, stride=15)
        assert len(segs) == 2
        assert (segs[0].word_start, segs[0].word_end) == (0, 15)
        assert (segs[1].word_start, segs[1].word_end) == (15, 30)

    def test_empty_transcript(self):
        assert segment_transcript(make_transcript(0), window=15) == []

    def test_trailing_remainder_dropped(self):
        segs = segment_transcript(make_transcript(20), window=15, stride=15)
        assert len(segs) == 1
        assert segs[0].word_end == 15

    def test_overlapping_stride(self):
        segs = segment_transcript(make_transcript(30), window=15, stride=5)
        assert [s.word_start for s in segs] == [0, 5, 10, 15]

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            segment_transcript(make_transcript(10), window=0)
        with pytest.raises(ValueError):
            segment_transcript(make_transcript(10), window=5, stride=0)

    def test_unsorted_transcript_rejected(self):
        words = (TimedWord("b", 5.0, 6.0), TimedWord("a", 1.0, 2.0))
        with pytest.raises(ValidationError):
            TimedTranscript("v", words)

    def test_caption_and_times(self):
        segs = segment_transcript(make_transcript(15), window=15)
        seg = segs[0]
        assert seg.caption.split(" ") == [f"w{i}" for i in range(15)]
        assert seg.t_start == 0.0
        assert seg.t_end == pytest.approx(14 * (60 / 45) + 0.8 * (60 / 45))

    def test_deterministic(self):
        t = make_transcript(47)
        a = segment_transcript(t, window=15, stride=7)
        b = segment_transcript(t, window=15, stride=7)
        assert a == b

    @given(n=st.integers(0, 120), window=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_prefix(self, n, window):
        # oracle: offsets enumerated directly
        segs = segment_transcript(make_transcript(n), window=window, stride=window)
        expected_offsets = list(range(0, n - window + 1, window))
        assert [s.word_start for s in segs] == expected_offsets
        assert all(s.word_count == window for s in segs)
        covered = [i for s in segs for i in range(s.word_start, s.word_end)]
        assert covered == list(range((n // window) * window))


class TestWordDensity:
    @pytest.mark.parametrize("duration,expected", [(30.0, 30.0), (60.0, 15.0), (15.0, 60.0)])
    def test_known_densities(self, duration, expected):
        assert word_density(make_segment(15, duration)) == pytest.approx(expected)

    def test_zero_duration_is_infinite(self):
        assert word_density(make_segment(15, 0.0)) == math.inf

    def test_segmenter_fills_wpm(self):
        seg = segment_transcript(make_transcript(15), window=15)[0]
        buf = io.StringIO()
        write_segments([seg], buf)
        assert json.loads(buf.getvalue())["wpm"] == word_density(seg)


class TestFilterSegments:
    def test_inclusive_threshold(self):
        segs = [make_segment(15, d) for d in (60.0, 30.0, 15.0)]  # wpm 15, 30, 60
        kept = filter_segments(segs, min_wpm=30.0)
        assert [word_density(s) for s in kept] == [pytest.approx(30.0), pytest.approx(60.0)]

    def test_empty(self):
        assert filter_segments([], min_wpm=30.0) == []

    def test_tiny_threshold_keeps_all(self):
        segs = [make_segment(15, d) for d in (10.0, 100.0, 400.0)]
        assert filter_segments(segs, min_wpm=0.0001) == segs

    def test_idempotent(self):
        segs = [make_segment(15, d) for d in (10.0, 20.0, 30.0, 40.0, 120.0)]
        once = filter_segments(segs, 30.0)
        assert filter_segments(once, 30.0) == once

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            filter_segments([], min_wpm=0.0)

    def test_infinite_density_always_passes(self):
        assert filter_segments([make_segment(15, 0.0)], min_wpm=1e9)


class TestSampleFrameTimes:
    def test_single_frame_is_midpoint(self):
        seg = Segment("v", 0, 2, "a b", 10.0, 20.0)
        assert sample_frame_times(seg, 1) == [15.0]

    def test_two_frames(self):
        seg = Segment("v", 0, 2, "a b", 10.0, 20.0)
        assert sample_frame_times(seg, 2) == [12.5, 17.5]

    def test_degenerate_span(self):
        seg = Segment("v", 0, 2, "a b", 5.0, 5.0)
        assert sample_frame_times(seg, 3) == [5.0, 5.0, 5.0]

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            sample_frame_times(make_segment(), 0)

    @given(k=st.integers(1, 12), t0=st.floats(0, 100), span=st.floats(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_containment(self, k, t0, span):
        seg = Segment("v", 0, 2, "a b", t0, t0 + span)
        times = sample_frame_times(seg, k)
        assert len(times) == k
        assert all(seg.t_start <= t <= seg.t_end for t in times)


class TestIO:
    def test_transcript_roundtrip(self):
        src = io.StringIO(
            '{"video_id": "vid1", "lang": "en"}\n'
            '{"w": "hello", "s": 0.0, "e": 0.5}\n'
            '{"w": "world", "s": 0.6, "e": 1.0}\n'
            '{"video_id": "vid2", "lang": "en"}\n'
            '{"w": "solo", "s": 0.0, "e": 0.2}\n'
        )
        ts = list(read_transcripts(src))
        assert [t.video_id for t in ts] == ["vid1", "vid2"]
        assert ts[0].words[1].text == "world"

    def test_malformed_line_reports_number(self):
        src = io.StringIO('{"video_id": "v", "lang": "en"}\n{not json}\n')
        with pytest.raises(RecordParseError, match="line 2"):
            list(read_transcripts(src))

    @pytest.mark.parametrize("line, message", [
        ('5', "transcript record must be a JSON object, got 5"),
        ('{"w": 5, "s": 0.0, "e": 0.5}', "word field 'w' must be a string, got 5"),
        ('{"w": "a", "s": "0", "e": 0.5}', "word field 's' must be a number, got '0'"),
        ('{"w": "a", "s": 0.0, "e": true}', "word field 'e' must be a number, got True"),
        ('{"video_id": ["v"], "lang": "en"}',
         "transcript header field 'video_id' must be a string, got ['v']"),
        ('{"w": "a", "s": 1' + "0" * 400 + ', "e": 0.5}', "int too large to convert to float"),
        ('{"w": "a", "s": 1' + "0" * 5000 + ', "e": 0.5}', "bad transcript record: Exceeds"),
    ], ids=["not-an-object", "int-word", "string-start", "bool-end", "list-video-id",
            "start-beyond-float", "start-beyond-int-digits"])
    def test_mistyped_transcript_record_rejected(self, line, message):
        src = io.StringIO('{"video_id": "v", "lang": "en"}\n\n' + line + "\n")
        with pytest.raises(RecordParseError, match=re.escape(f"line 3: {message}")):
            list(read_transcripts(src))

    def test_transcript_language_is_ignored(self):
        src = io.StringIO('{"video_id": "v", "lang": 7}\n{"w": "a", "s": 0, "e": 1}\n')
        (t,) = read_transcripts(src)
        assert t == TimedTranscript("v", (TimedWord("a", 0.0, 1.0),))

    SEGMENT = {"video_id": "v", "word_start": 0, "word_end": 3, "caption": "a b c",
               "t_start": 0, "t_end": 2.5, "frame_times": [1, 1.5], "wpm": 72.0}

    @pytest.mark.parametrize("edit, message", [
        ({"frame_times": "ab"}, "segment field 'frame_times' must be a list of numbers"),
        ({"frame_times": [1.0, None]}, "segment field 'frame_times' must be a list of numbers"),
        ({"caption": 5}, "segment field 'caption' must be a string, got 5"),
        ({"word_start": 2.7}, "segment field 'word_start' must be an int, got 2.7"),
        ({"word_end": True}, "segment field 'word_end' must be an int, got True"),
        ({"t_end": "2.5"}, "segment field 't_end' must be a number, got '2.5'"),
        ({"video_id": None}, "segment field 'video_id' must be a string, got None"),
        ({"t_start": 2 ** 1024}, "segment field 't_start' must be a number, got 1797"),
        ({"frame_times": [1.0, 2 ** 1024]}, "segment field 'frame_times' must be a list of"),
    ], ids=["string-frame-times", "null-frame-time", "int-caption", "float-word-start",
            "bool-word-end", "string-t-end", "null-video-id", "t-start-beyond-float",
            "frame-time-beyond-float"])
    def test_mistyped_segment_record_rejected(self, edit, message):
        src = io.StringIO(json.dumps(self.SEGMENT) + "\n" + json.dumps({**self.SEGMENT, **edit}))
        with pytest.raises(RecordParseError, match=re.escape(f"line 2: {message}")):
            list(read_segments(src))

    def test_segment_ints_read_as_numbers(self):
        (seg,) = read_segments(io.StringIO(json.dumps(self.SEGMENT)))
        assert seg == Segment("v", 0, 3, "a b c", 0.0, 2.5, (1, 1.5))

    def test_segment_roundtrip(self):
        segs = [with_frame_times(make_segment(5, 10.0), 2)]
        buf = io.StringIO()
        write_segments(segs, buf)
        buf.seek(0)
        back = list(read_segments(buf))
        assert back[0].caption == segs[0].caption
        assert back[0].frame_times == segs[0].frame_times
