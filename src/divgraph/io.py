"""File formats.

Graph file: JSON with ``name`` (string), ``vertices`` (array of strings)
and ``edges`` (array of [u, v, multiplicity]); multiplicity defaults to 1.

Divisor file: JSON object mapping vertex names to integer coefficients;
omitted vertices mean 0.

Morphism file: JSON with ``source`` and ``target`` (inline graph object,
or a string: graph file path or family spec), ``vertex_map`` (object),
``edge_map`` (array of [source_edge, target_edge] with edges as [u, v] or
[u, v, copy]), optional ``local_degree`` (object, default 1 per vertex)
and optional ``marked_legs`` (object; branch/ramification marks echoed in
reports).  Every vertex name is a string.

Every file is read as UTF-8; one that cannot be read, or is not UTF-8, is
invalid input.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from . import families
from .brill_noether import SearchResult
from .divisors import Divisor
from .errors import IntegerTooLargeError, InvalidInputError, check_type
from .graphs import Multigraph, build_graph
from .harmonic import GraphMorphism, build_morphism


def parse_json(text: str, source):
    """Parse a JSON document read from ``source``.  Invalid JSON, or JSON
    nested deeper than the interpreter's recursion limit, raises
    :class:`InvalidInputError`; an integer literal past the interpreter's
    int-to-str digit limit raises :class:`IntegerTooLargeError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{source} is not valid JSON: {exc}")
    except RecursionError:
        raise InvalidInputError(f"{source} is nested too deeply to parse")
    except ValueError as exc:
        # sys.get_int_max_str_digits() caps str-to-int conversion too
        raise IntegerTooLargeError(f"{source}: {exc}")


def dump_json(doc, **options) -> str:
    """``json.dumps(doc, **options)``.  An integer past the interpreter's
    int-to-str digit limit (``sys.get_int_max_str_digits``) raises
    :class:`IntegerTooLargeError` in place of the bare ``ValueError``."""
    try:
        return json.dumps(doc, **options)
    except ValueError as exc:
        raise IntegerTooLargeError(str(exc)) from exc


def read_text(path: Union[str, Path]) -> str:
    """The text of a UTF-8 file.  A file that cannot be read, or whose
    bytes are not UTF-8, raises :class:`InvalidInputError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")


def load_json(path: Union[str, Path]):
    """Read a JSON document; an unreadable or non-UTF-8 file, or invalid
    JSON, raises :class:`InvalidInputError`, an oversized integer
    :class:`IntegerTooLargeError`."""
    return parse_json(read_text(path), path)


def graph_from_doc(doc: dict) -> tuple[str, Multigraph]:
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InvalidInputError("graph document needs 'vertices' and 'edges' fields")
    return check_type(doc.get("name", "graph"), "string", "graph 'name'"), build_graph(
        check_type(doc["vertices"], "array", "graph 'vertices'"),
        check_type(doc["edges"], "array", "graph 'edges'"),
    )


def graph_to_doc(graph: Multigraph, name: str) -> dict:
    return {
        "name": name,
        "vertices": list(graph.vertices),
        "edges": [[u, v, m] for u, v, m in graph.edges],
    }


def load_graph(path: Union[str, Path]) -> tuple[str, Multigraph]:
    return graph_from_doc(load_json(path))


def resolve_graph(ref: str, base_dir: Union[str, Path, None] = None) -> tuple[str, Multigraph]:
    """Resolve a graph reference: an existing file path wins, then a family
    spec such as ``banana(3)``."""
    candidate = Path(ref)
    # os.path.exists is False, not an OSError, for a name too long to stat
    if base_dir is not None and not candidate.is_absolute():
        based = Path(base_dir) / candidate
        if os.path.exists(based):
            candidate = based
    if os.path.exists(candidate):
        return load_graph(candidate)
    if families.is_family_spec(ref):
        return ref, families.from_spec(ref)
    raise InvalidInputError(f"{ref!r} is neither a readable graph file nor a family spec")


def load_divisor(path: Union[str, Path], graph: Multigraph) -> Divisor:
    return Divisor.from_map(graph, check_type(load_json(path), "object", "divisor document"))


def divisor_to_doc(divisor: Divisor) -> dict[str, int]:
    return divisor.to_map()


def search_result_to_doc(result: SearchResult) -> dict:
    """The result fields of a ``search`` report and of a batch record."""
    return {
        "found": result.found,
        "k": result.k,
        "witness": divisor_to_doc(result.witness) if result.witness else None,
        "classes_examined": result.classes_examined,
        "exhausted": result.exhausted,
        "limit_hit": result.limit_hit,
    }


def _resolve_graph_field(doc: dict, field: str, base_dir) -> tuple[str, Multigraph]:
    if field not in doc:
        raise InvalidInputError(f"morphism document needs a {field!r} field")
    ref = doc[field]
    if isinstance(ref, dict):
        return graph_from_doc(ref)
    return resolve_graph(check_type(ref, "string", f"morphism {field!r}"), base_dir)


def load_morphism(path: Union[str, Path]) -> GraphMorphism:
    doc = check_type(load_json(path), "object", "morphism document")
    base_dir = Path(path).parent
    _, source = _resolve_graph_field(doc, "source", base_dir)
    _, target = _resolve_graph_field(doc, "target", base_dir)
    if "vertex_map" not in doc or "edge_map" not in doc:
        raise InvalidInputError("morphism document needs 'vertex_map' and 'edge_map'")
    return build_morphism(
        source,
        target,
        vertex_map=doc["vertex_map"],
        edge_map=doc["edge_map"],
        local_degree=doc.get("local_degree"),
        marked_legs=doc.get("marked_legs"),
    )
