"""Scene-graph triplets and their deterministic text linearization.

Graphs are small webs of (subject, predicate, object) relations over labeled
regions. Downstream they become one text string fed to the text expert, so
the linearization must be canonical: the same graph always yields the same
string regardless of the order relations arrived in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import RecordParseError, ValidationError, json_object, json_records


@dataclass(frozen=True)
class SceneGraph:
    objects: tuple[str, ...]
    relations: tuple[tuple[int, str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "relations", tuple(tuple(r) for r in self.relations))
        n = len(self.objects)
        for label in self.objects:
            if not label:
                raise ValidationError("object labels must be non-empty")
        for subj, pred, obj in self.relations:
            if not (0 <= subj < n and 0 <= obj < n):
                raise ValidationError(
                    f"relation ({subj}, {pred!r}, {obj}) references a missing object "
                    f"(graph has {n} objects)"
                )
            if not pred:
                raise ValidationError("predicate must be non-empty")
            if subj == obj:
                raise ValidationError(f"self-loop on object {subj} ({self.objects[subj]!r})")


def scene_graph_from_dict(rec, line: int | None = None) -> SceneGraph:
    """Build a graph from one decoded {"objects": [str, ...], "relations":
    [[int, str, int], ...]} record."""
    if not isinstance(rec, dict) or "objects" not in rec or "relations" not in rec:
        raise RecordParseError("scene-graph record needs 'objects' and 'relations'", line=line)
    objects, relations = rec["objects"], rec["relations"]
    if type(objects) is not list or any(type(o) is not str for o in objects):
        raise RecordParseError(f"malformed scene graph: objects must be a list of strings, "
                               f"got {objects!r}", line=line)
    if type(relations) is not list or any(
            type(r) is not list or [type(x) for x in r] != [int, str, int] for r in relations):
        raise RecordParseError(f"malformed scene graph: relations must be [int, str, int] "
                               f"triples, got {relations!r}", line=line)
    return SceneGraph(objects, relations)


def parse_scene_graph(text: str, line: int | None = None) -> SceneGraph:
    """Parse one serialized graph record: {"objects": [...], "relations": [[s, p, o], ...]}."""
    return scene_graph_from_dict(json_object(text, "scene-graph", line), line)


def serialize_scene_graph(graph: SceneGraph) -> str:
    return json.dumps({
        "objects": list(graph.objects),
        "relations": [list(r) for r in graph.relations],
    })


def linearize(graph: SceneGraph) -> str:
    """Render the graph as '. '-joined "subject predicate object" phrases.

    Phrases are sorted lexicographically by (subject label, predicate,
    object label) so linearization is invariant to relation order.
    """
    phrases = sorted(
        (graph.objects[s], p, graph.objects[o]) for s, p, o in graph.relations
    )
    return ". ".join(f"{s} {p} {o}" for s, p, o in phrases)


def read_graph_manifest(fp) -> dict[str, SceneGraph]:
    """Read a line-delimited manifest of {"key": ..., "objects": ..., "relations": ...}."""
    graphs: dict[str, SceneGraph] = {}
    for lineno, rec in json_records(fp, "graph manifest"):
        key = rec.get("key")
        if type(key) is not str:
            raise RecordParseError(f"graph manifest key must be a string, got {key!r}",
                                   line=lineno)
        graphs[key] = scene_graph_from_dict(rec, line=lineno)
    return graphs
