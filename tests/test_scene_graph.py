import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse.errors import RecordParseError, ValidationError
from modalfuse.scene_graph import (SceneGraph, linearize, parse_scene_graph,
                                   read_graph_manifest, serialize_scene_graph)


class TestParse:
    def test_basic(self):
        g = parse_scene_graph('{"objects":["person","racket"],"relations":[[0,"holding",1]]}')
        assert g.objects == ("person", "racket")
        assert g.relations == ((0, "holding", 1),)

    def test_empty(self):
        g = parse_scene_graph('{"objects":[],"relations":[]}')
        assert g.objects == ()
        assert linearize(g) == ""

    def test_dangling_index(self):
        with pytest.raises(ValidationError):
            parse_scene_graph('{"objects":["a","b"],"relations":[[0,"on",5]]}')

    def test_malformed_with_line(self):
        with pytest.raises(RecordParseError, match="line 7"):
            parse_scene_graph("{broken", line=7)

    @pytest.mark.parametrize("label, why", [
        ("NaN", "NaN is not a JSON number"), ("Infinity", "Infinity is not a JSON number"),
        ("1e400", "beyond float range"), ('"\\ud800"', "lone surrogate")])
    def test_what_json_lacks_names_its_line(self, label, why):
        with pytest.raises(RecordParseError, match=f"line 3: bad scene-graph record: .*{why}"):
            parse_scene_graph(f'{{"objects": [{label}], "relations": []}}', line=3)

    def test_a_record_that_is_not_an_object(self):
        with pytest.raises(RecordParseError, match="line 2: scene-graph record must be a JSON"):
            parse_scene_graph("[1, 2]", line=2)

    def test_manifest_key_must_be_a_string(self):
        lines = ['{"key": "v:0", "objects": ["a", "b"], "relations": [[0, "on", 1]]}',
                 '{"key": ["v", 0], "objects": ["a", "b"], "relations": [[0, "on", 1]]}']
        with pytest.raises(RecordParseError, match="line 2: graph manifest key") as e:
            read_graph_manifest(io.StringIO("\n".join(lines)))
        assert e.value.line == 2

    def test_manifest_lone_surrogate_names_its_line(self):
        lines = ['{"key": "v:0", "objects": ["a", "b"], "relations": [[0, "on", 1]]}',
                 '{"key": "v:15", "objects": ["a", "b\\ud83d"], "relations": []}']
        with pytest.raises(RecordParseError, match=re.escape(
                "line 2: bad graph manifest record: '\\ud83d' is a lone surrogate")):
            read_graph_manifest(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("graph, message", [
        ({"objects": ["a", "b"], "relations": [[0.9, "on", 1]]}, "relations must be"),
        ({"objects": ["a", "b"], "relations": [[True, "on", 1]]}, "relations must be"),
        ({"objects": ["a", "b"], "relations": [[0, 5, 1]]}, "relations must be"),
        ({"objects": ["a", "b"], "relations": [[0, "on", 1, 1]]}, "relations must be"),
        ({"objects": [1, 2], "relations": []}, "objects must be a list of strings"),
        ({"objects": "ab", "relations": []}, "objects must be a list of strings"),
    ], ids=["float-index", "bool-index", "int-predicate", "four-items", "int-objects",
            "string-objects"])
    def test_mistyped_graph_record_rejected(self, graph, message):
        lines = ['{"key": "v:0", "objects": ["a", "b"], "relations": [[0, "on", 1]]}',
                 json.dumps({"key": "v:15", **graph})]
        with pytest.raises(RecordParseError,
                           match=f"line 2: malformed scene graph: {message}") as e:
            read_graph_manifest(io.StringIO("\n".join(lines)))
        assert e.value.line == 2

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(ValidationError):
            SceneGraph(("dog",), ((0, "next to", 0),))

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            SceneGraph(("", "b"), ())


class TestLinearize:
    def test_single_phrase(self):
        g = SceneGraph(("person", "racket"), ((0, "holding", 1),))
        assert linearize(g) == "person holding racket"

    def test_sorted_by_subject(self):
        g = SceneGraph(("dog", "grass", "cat"), ((0, "on", 1), (2, "on", 1)))
        assert linearize(g) == "cat on grass. dog on grass"

    def test_order_invariance(self):
        a = SceneGraph(("dog", "grass", "cat"), ((0, "on", 1), (2, "on", 1)))
        b = SceneGraph(("dog", "grass", "cat"), ((2, "on", 1), (0, "on", 1)))
        assert linearize(a) == linearize(b)


labels = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def graphs(draw):
    objs = draw(st.lists(labels, min_size=1, max_size=5))
    n = len(objs)
    rels = draw(st.lists(
        st.tuples(st.integers(0, n - 1), labels, st.integers(0, n - 1)),
        max_size=6,
    ))
    rels = [(s, p, o) for s, p, o in rels if s != o]
    return SceneGraph(tuple(objs), tuple(rels))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_serialize_roundtrip(g):
    assert parse_scene_graph(serialize_scene_graph(g)) == g


@given(graphs(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_linearize_permutation_invariant(g, rnd):
    shuffled = list(g.relations)
    rnd.shuffle(shuffled)
    assert linearize(SceneGraph(g.objects, tuple(shuffled))) == linearize(g)
