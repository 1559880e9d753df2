"""Resumable batch runs of the existence search over graph families.

A batch config names built-in family graphs and a (d, r) grid; each unit of
work is one (graph, d, r) search, identified by its record key, which
spells a family spec canonically.  A unit that the config lists twice, in
any spelling, is one unit and gets one record.  Results append to
a JSON-lines file, one record per unit, so that re-running an identical
config skips all completed work.  Units run in a process pool when more
than one worker would be busy, in this process otherwise; records are
written in config order either way, so the output file is deterministic
apart from the elapsed time field.  The output file is opened before any
unit runs.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Union

from . import __version__
from .brill_noether import SearchLimits, bn_bound, find_gdr, rho
from .divisors import rank
from .errors import DivGraphError, IntegerTooLargeError, InvalidInputError, check_int, check_type
from .families import canonical_spec
from .graphs import Multigraph, genus
from .io import dump_json, graph_file, parse_json, read_text, resolve_graph, search_result_to_doc


# a unit of work: (graph reference, graph, d, r, limits)
Unit = tuple[str, Multigraph, int, int, SearchLimits]


def unit_key(graph_ref: str, d: int, r: int, limits: SearchLimits) -> str:
    return (
        f"{graph_ref}|d={d}|r={r}"
        f"|max_k={limits.max_k}|max_classes={limits.max_classes}"
    )


def expand_units(config: dict, base_dir=None) -> dict[str, Unit]:
    """Resolve the config into concrete (ref, graph, d, r, limits) units,
    keyed by their record key, keeping only instances with rho >= 0.  A
    family spec is keyed by its canonical spelling (``banana( 01)`` as
    ``banana(1)``), a graph file by its reference.  The map is in config
    order; a unit listed twice, in any spelling, keeps its first
    occurrence.
    A malformed config, such as a count that is not a non-negative JSON
    integer, raises :class:`InvalidInputError`."""
    graphs = config.get("graphs") if isinstance(config, dict) else None
    if not isinstance(graphs, (list, tuple)):
        raise InvalidInputError("batch config must be an object with a 'graphs' list")
    params = check_type(config.get("params", {}), "object", "batch config 'params'")
    if "pairs" in params:
        pairs = params["pairs"]
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
        ):
            raise InvalidInputError("batch config 'pairs' must be a list of [d, r] pairs")
        pairs = [
            (check_int(d, "batch config d", 0), check_int(r, "batch config r", 0))
            for d, r in pairs
        ]
    else:
        d_max = check_int(params.get("d_max", 4), "batch config d_max", 0)
        r_max = check_int(params.get("r_max", 2), "batch config r_max", 0)
        pairs = [(d, r) for r in range(r_max + 1) for d in range(d_max + 1)]
    limits_cfg = check_type(config.get("limits", {}), "object", "batch config 'limits'")
    limits = SearchLimits(
        max_k=limits_cfg.get("max_k"),
        max_classes=limits_cfg.get("max_classes"),
    )
    units: dict[str, Unit] = {}
    for ref in graphs:
        _, graph = resolve_graph(check_type(ref, "string", "batch config graph"), base_dir)
        # a file wins over a spec; a spec is keyed by its canonical spelling
        key_ref = ref if graph_file(ref, base_dir) else canonical_spec(ref)
        g = genus(graph)
        for d, r in pairs:
            if rho(g, d, r) >= 0:
                units.setdefault(unit_key(key_ref, d, r, limits), (ref, graph, d, r, limits))
    return units


def run_unit(item: tuple[str, Unit]) -> dict:
    """Run one ``(key, unit)`` item of :func:`expand_units` and build its
    record.  Failures become error records, never silent skips."""
    key, (ref, graph, d, r, limits) = item
    g = genus(graph)
    record: dict = {
        "key": key,
        "graph": ref,
        "genus": g,
        "d": d,
        "r": r,
    }
    start = time.perf_counter()
    try:
        record["rho"] = rho(g, d, r)
        record["theorem_bound"] = bn_bound(g, d, r)
        result = find_gdr(graph, d, r, limits)
        # the witness re-check of ``search``
        w = result.witness
        verified = (w.degree == d and rank(w.graph, w) >= r) if result.found else None
        record.update(search_result_to_doc(result), verified=verified)
    except DivGraphError as exc:
        record.update(error=exc.slug, message=str(exc))
    record["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
    record["engine_version"] = __version__
    return record


def _encode_record(record: dict) -> tuple[str, dict]:
    """The JSON line of a record, and the record it encodes.

    A record holding an integer past the interpreter's int-to-str digit
    limit (``sys.get_int_max_str_digits``) cannot be written; it becomes an
    ``integer-too-large`` error record with the same key.
    """
    try:
        return dump_json(record, sort_keys=True), record
    except IntegerTooLargeError as exc:
        kept = ("key", "graph", "genus", "d", "r", "elapsed_ms", "engine_version")
        record = {name: record[name] for name in kept}
        record.update(error=exc.slug, message=str(exc))
        return dump_json(record, sort_keys=True), record


def load_recorded_keys(out_path: Union[str, Path]) -> set[str]:
    """The keys of the records in ``out_path``.  A file that cannot be
    read, or a line that is not a JSON object with a string ``key``, raises
    :class:`InvalidInputError`; an oversized integer literal raises
    :class:`IntegerTooLargeError`."""
    keys: set[str] = set()
    # os.path.exists is False, not an OSError, for a name too long to stat
    if os.path.exists(out_path):
        for line in read_text(out_path).splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = parse_json(line, out_path)
            except InvalidInputError:
                record = None
            key = record.get("key") if isinstance(record, dict) else None
            if not isinstance(key, str):
                raise InvalidInputError(f"corrupt record in {out_path}: {line[:80]}")
            keys.add(key)
    return keys


def batch_run(
    config: dict,
    out_path: Union[str, Path],
    jobs: int = 1,
    base_dir=None,
) -> dict:
    """Run every unit of the config that has no record yet.

    Appends records to ``out_path`` in config order and returns a summary.
    Units run in a process pool of ``min(jobs, units left, CPUs)`` workers
    when that is more than one, in this process otherwise; the file order
    is the same.  ``jobs`` below 1, or an ``out_path`` that cannot be
    written, raises :class:`InvalidInputError` before any unit runs.
    """
    check_int(jobs, "jobs", 1)
    units = expand_units(config, base_dir)
    done = load_recorded_keys(out_path)
    todo = [item for item in units.items() if item[0] not in done]
    summary = {
        "total_units": len(units),
        "skipped": len(units) - len(todo),
        "new_units": len(todo),
        "found": 0,
        "not_found": 0,
        "errors": 0,
    }
    if not todo:
        return summary

    path = Path(out_path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        sink = path.open("a", encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out_path}: {exc}")
    workers = min(jobs, len(todo), os.cpu_count() or 1)
    with sink, ExitStack() as stack:
        run_all = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # the fork start method starts every worker at the first submit
            run_all = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for record in run_all(run_unit, todo):
            line, record = _encode_record(record)
            sink.write(line + "\n")
            sink.flush()
            if "error" in record:
                summary["errors"] += 1
            elif record["found"]:
                summary["found"] += 1
            else:
                summary["not_found"] += 1
    return summary
