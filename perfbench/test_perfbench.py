"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench"""

import json
import sys

import pytest

import run
import tracing


def test_self_times_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 12.0, 13.5, -1),
    ]
    assert tracing.self_times(spans) == {"a": 3.0, "b": 3.5, "c": 1.0,
                                         "d": 4.0}


def test_self_times_count_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0),
             ("d", 8.0, 12.0, 0)]
    assert tracing.self_times(spans)["a"] == pytest.approx(10.0 - 6.0 - 2.0)


def test_unspanned_closes_the_sum_to_wall():
    tracer = tracing.Tracer()
    tracer.spans = [("ring.cup_s", 1.0, 3.0, -1),
                    ("exactla.rank_s", 1.5, 2.0, 0),
                    ("ring.cup_s", 4.0, 4.5, -1)]
    metrics = tracer.metrics(10.0, [])
    assert metrics["ring.cup_s"] == 2.0
    assert metrics["exactla.rank_s"] == 0.5
    assert metrics["ring.cup_calls"] == 2
    assert metrics["trace.unspanned_s"] == 7.5


GOLDEN_REPORT = {"records": [
    {"id": "dims.hh", "params": {"n": 2, "m": 1}, "status": "pass",
     "expected": 4, "computed": 4},
    {"id": "ring.presentation", "params": {"n": 3}, "status": "finding",
     "expected": 5, "computed": 4, "note": "known"},
]}


def golden():
    return {run.record_key(r): r for r in GOLDEN_REPORT["records"]}


def report_bytes(records):
    return json.dumps({"records": records}).encode()


def test_golden_accepts_same_records_with_extra_keys_and_records():
    records = [dict(r, instances=7) for r in GOLDEN_REPORT["records"]]
    records.append({"id": "new.check", "params": {}, "status": "pass",
                    "expected": 1, "computed": 1})
    assert run.golden_failure(0, report_bytes(records), golden()) is None


def test_golden_flags_a_differing_record():
    records = [dict(r) for r in GOLDEN_REPORT["records"]]
    records[0]["computed"] = 5
    why = run.golden_failure(0, report_bytes(records), golden())
    assert "differs in computed" in why


def test_golden_flags_a_missing_record():
    why = run.golden_failure(0, report_bytes(GOLDEN_REPORT["records"][:1]),
                             golden())
    assert "missing record" in why


def test_golden_flags_a_nonzero_exit_and_bad_output():
    good = report_bytes(GOLDEN_REPORT["records"])
    assert run.golden_failure(1, good, golden()) == "exit code 1"
    assert "unreadable" in run.golden_failure(0, b"not json", golden())


def test_golden_reports_pass_their_own_check():
    for name in run.WORKLOADS:
        with open(run.GOLDEN / f"{name}.json", "rb") as fh:
            assert run.golden_failure(0, fh.read(), run.load_golden(name)) \
                is None


def test_traced_report_bytes_equal_untraced():
    env = run.child_env()
    args = ["ring", "--n", "3", "--deg-max", "2", *run.REPORT_ARGS]
    code, plain, *_ = run.spawn([sys.executable, "-m", "hhext.cli", *args],
                                env)
    assert code == 0
    code, traced, err, *_ = run.spawn(
        [sys.executable, str(run.HERE / "tracing.py"), *args], env)
    assert code == 0
    assert traced == plain

    line = err.decode().splitlines()[-1]
    assert line.startswith(tracing.TRACE_PREFIX)
    metrics = json.loads(line[len(tracing.TRACE_PREFIX):])
    assert metrics["ring.cup_calls"] > 0
    assert metrics["cli.records"] == len(json.loads(plain)["records"])
    selfs = sum(v for k, v in metrics.items()
                if k.endswith(("_s", ".s")) and k != "trace.wall_s")
    assert selfs == pytest.approx(metrics["trace.wall_s"])

    with open(run.ROOT / "BENCHMARK.json") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert per_layer == set(metrics) | {"trace.overhead"}


def test_reported_units_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric
