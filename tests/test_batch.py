"""Batch runner: records, resumability, determinism, failure records."""

import concurrent.futures
import json
import os
import sys
from pathlib import Path

import pytest

import divgraph.batch
from divgraph.batch import batch_run, expand_units, load_recorded_keys, run_unit, unit_key
from divgraph.brill_noether import SearchLimits, find_gdr
from divgraph.cli import main
from divgraph.errors import InvalidInputError, PreconditionViolatedError
from divgraph.families import from_spec, theta
from divgraph.io import search_result_to_doc

from conftest import assert_treewidth_floor

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RESULT_FIELDS = ("found", "k", "witness", "classes_examined", "exhausted", "limit_hit")

BASE_CONFIG = {
    "graphs": ["banana(1)", "banana(2)", "cycle(4)"],
    "params": {"d_max": 3, "r_max": 1},
    "limits": {"max_classes": 100000},
}


def fake_pool(monkeypatch, cpus):
    """Report ``cpus`` CPUs and put a pool that starts no process, and maps
    in this one, in place of ``ProcessPoolExecutor``.  Returns the list of
    the ``max_workers`` of every pool built."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started


def read_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def assert_found_records_clear_treewidth(records):
    """Each found record's witness has the record's degree d, and d - r + 1
    is at least tw(G^(k)); no rank check enters the floor."""
    found = [rec for rec in records if rec["found"]]
    assert found
    for rec in found:
        assert sum(rec["witness"].values()) == rec["d"]
        assert_treewidth_floor(from_spec(rec["graph"]), rec["k"], rec["d"], rec["r"])


class TestExpandUnits:
    def test_rho_filter(self):
        units = expand_units(BASE_CONFIG)
        assert all((r + 1) * (d - r) >= 0 for _, _, d, r, _ in units.values())
        # banana(2) has genus 2: (d=2, r=1) has rho = 0 and stays,
        # (d=1, r=1) has rho = -2 and is dropped
        keys = {(ref, d, r) for ref, _, d, r, _ in units.values()}
        assert ("banana(2)", 2, 1) in keys
        assert ("banana(2)", 1, 1) not in keys

    def test_explicit_pairs(self):
        units = expand_units({"graphs": ["cycle(3)"], "params": {"pairs": [[2, 1], [0, 0]]}})
        assert [(d, r) for _, _, d, r, _ in units.values()] == [(2, 1), (0, 0)]

    def test_units_keyed_by_record_key(self):
        limits = SearchLimits(max_classes=100000)
        units = expand_units(BASE_CONFIG)
        assert list(units) == [unit_key(ref, d, r, limits) for ref, _, d, r, _ in units.values()]
        assert all(unit[4] == limits for unit in units.values())

    def test_repeated_unit_kept_once_in_config_order(self):
        config = {
            "graphs": ["banana(1)", "cycle(3)", "banana(1)"],
            "params": {"pairs": [[2, 1], [0, 0], [2, 1]]},
        }
        units = expand_units(config)
        assert [(ref, d, r) for ref, _, d, r, _ in units.values()] == [
            ("banana(1)", 2, 1), ("banana(1)", 0, 0), ("cycle(3)", 2, 1), ("cycle(3)", 0, 0),
        ]

    def test_missing_graphs_rejected(self):
        with pytest.raises(InvalidInputError):
            expand_units({"params": {}})


class TestBatchRun:
    def test_all_found_at_k0(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        summary = batch_run(BASE_CONFIG, out)
        assert summary["errors"] == 0
        assert summary["not_found"] == 0
        assert summary["new_units"] == summary["found"] == summary["total_units"]
        records = read_records(out)
        assert all(rec["found"] and rec["k"] == 0 for rec in records)
        assert all(rec["verified"] for rec in records)

    def test_rerun_is_no_work(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        batch_run(BASE_CONFIG, out)
        before = out.read_bytes()
        summary = batch_run(BASE_CONFIG, out)
        assert summary["new_units"] == 0
        assert summary["skipped"] == summary["total_units"]
        assert out.read_bytes() == before

    def test_banana_grid_all_found_at_k0(self, tmp_path):
        config = {
            "graphs": [f"banana({g})" for g in range(1, 7)],
            "params": {"d_max": 4, "r_max": 2},
        }
        out = tmp_path / "runs.jsonl"
        summary = batch_run(config, out)
        records = read_records(out)
        assert summary["errors"] == summary["not_found"] == 0
        assert all(rec["found"] and rec["k"] == 0 for rec in records)
        assert_found_records_clear_treewidth(records)

    def test_records_deterministic_up_to_timing(self, tmp_path):
        config = dict(BASE_CONFIG, graphs=BASE_CONFIG["graphs"] + ["random(5,8,7)"])
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        batch_run(config, out1)
        batch_run(config, out2)

        def strip(recs):
            return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in recs]

        assert strip(read_records(out1)) == strip(read_records(out2))
        assert_found_records_clear_treewidth(read_records(out1))

    def test_resume_after_partial_file(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        batch_run(BASE_CONFIG, out)
        full = read_records(out)
        # keep only the first three records and resume
        out.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in full[:3]))
        summary = batch_run(BASE_CONFIG, out)
        assert summary["skipped"] == 3
        assert summary["new_units"] == len(full) - 3
        resumed = read_records(out)
        assert {r["key"] for r in resumed} == {r["key"] for r in full}

    def test_repeated_units_run_once(self, tmp_path):
        # banana(1) twice and (2, 1) twice: one unit, one record
        config = {"graphs": ["banana(1)", "banana(1)"], "params": {"pairs": [[2, 1], [2, 1]]}}
        out = tmp_path / "runs.jsonl"
        summary = batch_run(config, out)
        assert (summary["total_units"], summary["new_units"], summary["found"]) == (1, 1, 1)
        (record,) = read_records(out)
        assert record["key"] == unit_key("banana(1)", 2, 1, SearchLimits())
        before = out.read_bytes()
        rerun = batch_run(config, out)
        assert (rerun["total_units"], rerun["skipped"], rerun["new_units"]) == (1, 1, 0)
        assert out.read_bytes() == before

    def test_spellings_of_one_spec_run_once(self, tmp_path):
        # five spellings of two genus-1 graphs, 4 (d, r) units each
        graphs = ["banana(1)", "banana( 1)", "banana(01)", "chain-of-loops(1)", "chain(1)"]
        config = {"graphs": graphs, "params": {"d_max": 2, "r_max": 1}}
        out = tmp_path / "runs.jsonl"
        summary = batch_run(config, out)
        assert (summary["total_units"], summary["new_units"]) == (8, 8)
        records = read_records(out)
        assert [r["key"].split("|")[0] for r in records] == ["banana(1)"] * 4 + ["chain(1)"] * 4
        # a unit keeps its first spelling
        assert [r["graph"] for r in records] == ["banana(1)"] * 4 + ["chain-of-loops(1)"] * 4
        rerun = batch_run(config, out)
        assert (rerun["total_units"], rerun["skipped"], rerun["new_units"]) == (8, 8, 0)

    def test_a_file_named_like_a_spec_keeps_its_reference(self, tmp_path):
        (tmp_path / "banana(01)").write_text(
            json.dumps({"name": "file", "vertices": ["a", "b"], "edges": [["a", "b", 3]]}),
            encoding="utf-8",
        )
        config = {"graphs": ["banana(01)", "banana(1)"], "params": {"pairs": [[2, 1]]}}
        units = expand_units(config, tmp_path)
        assert [unit[0] for unit in units.values()] == ["banana(01)", "banana(1)"]
        assert list(units) == [unit_key(ref, 2, 1, SearchLimits()) for ref in ("banana(01)", "banana(1)")]

    def test_repeated_graph_one_record_per_key(self, tmp_path):
        config = dict(BASE_CONFIG, graphs=BASE_CONFIG["graphs"] * 2)
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        expected = batch_run(BASE_CONFIG, once)
        summary = batch_run(config, twice, jobs=2)
        assert summary == expected
        keys = [record["key"] for record in read_records(twice)]
        assert keys == [record["key"] for record in read_records(once)]
        assert len(set(keys)) == len(keys) == summary["total_units"]
        assert batch_run(config, twice)["skipped"] == summary["total_units"]

    def test_limit_truncation_recorded_not_skipped(self, tmp_path):
        config = {
            "graphs": ["banana(2)"],
            "params": {"pairs": [[2, 1]]},
            "limits": {"max_classes": 1},
        }
        out = tmp_path / "runs.jsonl"
        summary = batch_run(config, out)
        assert summary["not_found"] == 1
        (rec,) = read_records(out)
        assert rec["found"] is False
        assert rec["exhausted"] is False
        assert rec["limit_hit"] == "max-classes"

    def test_parallel_jobs_same_records(self, tmp_path):
        out1, out2 = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
        batch_run(BASE_CONFIG, out1, jobs=1)
        batch_run(BASE_CONFIG, out2, jobs=2)

        def strip(recs):
            return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in recs]

        assert strip(read_records(out1)) == strip(read_records(out2))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
    )
    def test_integer_past_digit_limit_becomes_error_record(self, tmp_path):
        # theorem_bound = 1600!/2 has 4,466 digits
        config = {"graphs": ["banana(1600)"], "params": {"pairs": [[1600, 1]]}}
        out = tmp_path / "runs.jsonl"
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            summary = batch_run(config, out)
            rerun = batch_run(config, out)
        finally:
            sys.set_int_max_str_digits(old)
        assert (summary["new_units"], summary["errors"], summary["found"]) == (1, 1, 0)
        assert rerun["new_units"] == 0
        (record,) = read_records(out)
        assert record["key"] == unit_key("banana(1600)", 1600, 1, SearchLimits())
        assert record["error"] == "integer-too-large"
        assert (record["graph"], record["genus"], record["d"], record["r"]) == (
            "banana(1600)", 1600, 1600, 1,
        )

    def test_unit_keys_include_limits(self):
        a = unit_key("banana(1)", 2, 1, SearchLimits(max_classes=10))
        b = unit_key("banana(1)", 2, 1, SearchLimits(max_classes=20))
        assert a != b

    def test_blank_lines_are_skipped(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        out.write_text('{"key": "a"}\n\n   \n{"key": "b"}\n')
        assert load_recorded_keys(out) == {"a", "b"}

    def test_search_error_becomes_an_error_record(self, monkeypatch):
        def refuse(*args):
            raise PreconditionViolatedError("refused")

        monkeypatch.setattr(divgraph.batch, "find_gdr", refuse)
        key = unit_key("theta(2,2,2)", 3, 1, SearchLimits())
        record = run_unit((key, ("theta(2,2,2)", theta(2, 2, 2), 3, 1, SearchLimits())))
        assert (record["error"], record["message"]) == ("precondition-violated", "refused")
        assert "found" not in record and record["theorem_bound"] == 2
        assert record["key"] == key

    def test_corrupt_record_rejected(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        out.write_text("not json\n")
        with pytest.raises(InvalidInputError):
            load_recorded_keys(out)


class TestWitnessCheck:
    """A batch record re-checks its witness as the ``search`` report does,
    through ``rank``, and lays out the same result fields."""

    def test_verified_comes_from_rank(self, monkeypatch):
        # rank 0, one below the r = 1 asked for: the witness must fail
        monkeypatch.setattr(divgraph.batch, "rank", lambda graph, divisor: 0)
        key = unit_key("theta(2,2,2)", 3, 1, SearchLimits())
        record = run_unit((key, ("theta(2,2,2)", theta(2, 2, 2), 3, 1, SearchLimits())))
        assert record["found"] is True
        assert record["verified"] is False

    def test_records_match_search_reports(self, capsys):
        config = json.loads((FIXTURES / "batch_small.json").read_text(encoding="utf-8"))
        limits = SearchLimits(**config["limits"])
        units = expand_units(config)
        assert len(units) == 28
        for key, unit in units.items():
            ref, graph, d, r, unit_limits = unit
            assert unit_limits == limits
            record = run_unit((key, unit))
            assert record["key"] == key == unit_key(ref, d, r, limits)
            code = main([
                "search", "--graph", ref, "--d", str(d), "--r", str(r),
                "--max-classes", str(limits.max_classes),
            ])
            report = json.loads(capsys.readouterr().out)
            assert code == (0 if report["found"] else 3)
            layout = search_result_to_doc(find_gdr(graph, d, r, limits))
            assert list(layout) == list(RESULT_FIELDS)
            assert {f: record[f] for f in RESULT_FIELDS} == layout, (ref, d, r)
            assert {f: report[f] for f in RESULT_FIELDS} == layout, (ref, d, r)
            assert record["verified"] == report.get("verified"), (ref, d, r)
            assert record["verified"] is (True if report["found"] else None)


class TestBatchCli:
    @pytest.mark.parametrize("line", ["[1]", "5", '"key"', '{"key": [1]}'])
    def test_record_without_a_string_key_is_corrupt(self, capsys, tmp_path, line):
        config, out = tmp_path / "config.json", tmp_path / "runs.jsonl"
        config.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        out.write_text(line + "\n", encoding="utf-8")
        code = main(["batch", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "invalid-input"
        assert report["message"].startswith("corrupt record in ")
        assert captured.err == ""
        assert out.read_text(encoding="utf-8") == line + "\n"

    def test_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        code = main(["batch", "--config", str(config), "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["found"] == report["total_units"] > 0
        code = main(["batch", "--config", str(config), "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["new_units"] == 0

    def test_rr_shortcut_bound_recorded_by_workers(self, capsys, tmp_path):
        # banana(1) with d = 3, r = 1 has g - d + r < 0; the second unit
        # keeps two units in the pool
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"graphs": ["banana(1)"], "params": {"pairs": [[3, 1], [2, 1]]}}),
            encoding="utf-8",
        )
        out = tmp_path / "runs.jsonl"
        code = main(["batch", "--config", str(config), "--out", str(out), "--jobs", "2"])
        assert code == 0
        first, second = read_records(out)
        assert first["theorem_bound"] == "rr-shortcut"
        assert second["theorem_bound"] == 1

    @pytest.mark.parametrize(
        "jobs,cpus,workers",
        [("100000", 4, 4), ("100000", 64, 28), ("3", 64, 3), ("100000", None, 1)],
    )
    def test_pool_capped_at_units_and_cores(self, monkeypatch, tmp_path, jobs, cpus, workers):
        # the fork start method starts every worker at the first submit, so
        # the pool must not be larger than the work; one worker runs in this
        # process and builds no pool
        started = fake_pool(monkeypatch, cpus)
        out = tmp_path / "runs.jsonl"
        argv = ["batch", "--config", str(FIXTURES / "batch_small.json"), "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == 0
        pools = [workers] if workers > 1 else []
        assert started == pools
        records = read_records(out)
        assert len(records) == 28 and all(r["verified"] is True for r in records)
        # a resume with nothing to do builds no pool
        assert main(argv + ["--jobs", jobs]) == 0
        assert started == pools

    def test_one_unit_left_runs_in_process(self, monkeypatch, capsys, tmp_path):
        started = fake_pool(monkeypatch, 4)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"graphs": ["banana(1)"], "params": {"pairs": [[2, 1]]}}), encoding="utf-8"
        )
        out = tmp_path / "runs.jsonl"
        assert main(["batch", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["new_units"] == 1
        assert started == []
        (record,) = read_records(out)
        assert record["verified"] is True

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("target", ["directory", "under-a-file", "name-too-long"])
    def test_unwritable_out_is_invalid_input(self, monkeypatch, capsys, tmp_path, target, jobs):
        # rejected before any unit runs: no pool is built and no search starts
        started = fake_pool(monkeypatch, 4)

        def no_search(*args):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(divgraph.batch, "find_gdr", no_search)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        (tmp_path / "runs").mkdir()
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        out = {
            "directory": tmp_path / "runs",
            "under-a-file": tmp_path / "file" / "runs.jsonl",
            "name-too-long": tmp_path / ("r" * 300),
        }[target]
        before = sorted(tmp_path.rglob("*"))
        code = main(["batch", "--config", str(config), "--out", str(out), "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "invalid-input"
        assert str(out) in report["message"]
        assert captured.err == ""
        assert started == []
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_at_least_one(self, capsys, tmp_path, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        code = main(["batch", "--config", str(config), "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "invalid-input"
        assert not out.exists()


class TestMalformedConfig:
    """A malformed config is reported as invalid input before any unit runs."""

    CASES = {
        "top-level-array": ["banana(2)"],
        "graphs-not-a-list": {"graphs": "banana(2)"},
        "pair-not-an-integer": {"graphs": ["banana(2)"], "params": {"pairs": [["x", 1]]}},
        "pair-not-a-pair": {"graphs": ["banana(2)"], "params": {"pairs": [[2]]}},
        "negative-pair": {"graphs": ["banana(2)"], "params": {"pairs": [[-1, 0]]}},
        "boolean-d-max": {"graphs": ["banana(2)"], "params": {"d_max": True}},
        "params-not-an-object": {"graphs": ["banana(2)"], "params": [2, 1]},
        "limit-as-string": {"graphs": ["banana(2)"], "limits": {"max_classes": "5"}},
        "negative-max-classes": {"graphs": ["banana(2)"], "limits": {"max_classes": -1}},
        "negative-max-k": {"graphs": ["banana(2)"], "limits": {"max_k": -1}},
        "limits-not-an-object": {"graphs": ["banana(2)"], "limits": 5},
    }

    @pytest.mark.parametrize("config", CASES.values(), ids=CASES.keys())
    def test_invalid_input_exit_two(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        code = main(["batch", "--config", str(path), "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["error"] == "invalid-input"
        assert not out.exists()

    @pytest.mark.parametrize("ref,code", [("5", 0), (5, 2)])
    def test_graph_reference_must_be_a_string(self, capsys, tmp_path, ref, code):
        # a graph file named 5 next to the config; the number 5 must not find it
        graph = {"name": "b1", "vertices": ["a", "b"], "edges": [["a", "b", 2]]}
        (tmp_path / "5").write_text(json.dumps(graph), encoding="utf-8")
        path = tmp_path / "config.json"
        config = {"graphs": [ref], "params": {"pairs": [[2, 1]]}}
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["batch", "--config", str(path), "--out", str(out)]) == code
        report = json.loads(capsys.readouterr().out)
        assert report.get("error", "invalid-input") == "invalid-input"
        assert out.exists() == (code == 0)

    def test_graphs_string_is_not_iterated(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CASES["graphs-not-a-list"]), encoding="utf-8")
        main(["batch", "--config", str(path), "--out", str(tmp_path / "runs.jsonl")])
        assert "'graphs' list" in json.loads(capsys.readouterr().out)["message"]
