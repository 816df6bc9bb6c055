"""The benchmark harness checked at 1/20 size (``--quick``).

Every workload runs once in a fresh process, as the driver runs it, and
must emit exactly the metrics ``BENCHMARK.json`` declares, with the
declared units.  The in-process tests pin the two properties a
benchmark is worth nothing without: a wrong answer lowers
``ok_op_share``, and the trace's self times add up.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(BENCH_DIR)
#: the benchmark's modules are scripts beside ``run.py``, not a package
BENCH_MODULES = ("harness", "spans", "metrics", "probes", "plans", "run",
                 "workloads")

with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def bench_modules(monkeypatch):
    """``bench/`` importable for one test; its top-level names (``run``,
    ``metrics``, ``workloads`` ...) are taken back out afterwards."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    yield
    for name in list(sys.modules):
        if name.split(".")[0] in BENCH_MODULES and os.path.dirname(
                getattr(sys.modules[name], "__file__", None) or ""
        ).startswith(BENCH_DIR):
            del sys.modules[name]


#: the ``--quick`` runs the tests below read: every workload traced,
#: and ``out_of_core`` untraced on two seeds
QUICK_RUNS = [(w, "--trace", "1") for w in WORKLOADS] + [
    ("out_of_core", "--trace", "0"), ("out_of_core", "--seed", "1")]


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``{command: (last-line JSON, --out report)}``, each run in a
    fresh process as the driver runs it.  They check, they do not time,
    so they all run at once."""
    started = {}
    for index, (workload, *extra) in enumerate(QUICK_RUNS):
        out_dir = tmp_path_factory.mktemp(f"run{index}")
        report = out_dir / "report.json"
        started[(workload, *extra)] = report, subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--quick", "--out", str(report),
             "--out-dir", str(out_dir), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    runs = {}
    for key, (report, process) in started.items():
        stdout, stderr = process.communicate(timeout=170)
        assert process.returncode == 0, stdout[-2000:] + stderr[-2000:]
        with open(report) as f:
            runs[key] = json.loads(stdout.strip().splitlines()[-1]), \
                json.load(f)
    return runs


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] \
        + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_declared_metric_once(workload, quick_runs):
    result, report = quick_runs[workload, "--trace", "1"]
    with open(os.path.join(BENCH_DIR, "known_failures.json")) as f:
        known = [e["op"] for e in json.load(f) if e["workload"] == workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # a listed failure lowers ok_op_share and nothing else
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(report["ops"])
    # traced run: the last line carries exactly the per-layer metrics
    declared = _declared("per_layer")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    # ... and the report the end-to-end ones, none of them zero
    assert set(report["end_to_end"]) == set(_declared("end_to_end"))
    assert all(value > 0 for value in report["end_to_end"].values())
    # references were checked on every op, and nothing was left behind
    # (the listed failure needs >= 6 000 rows; at this size it passes)
    failed = [name for name, op in report["ops"].items() if op["failed"]]
    assert set(failed) <= set(known)
    assert report["end_to_end"]["ok_op_share"] == pytest.approx(
        1 - len(failed) / len(report["ops"]))
    assert result["metrics"]["memory.leaked_bytes"]["value"] == 0
    assert result["metrics"]["memory.spill_files_left"]["value"] == 0
    # the layers' self times are the traced pass, by construction
    assert result["metrics"]["trace.coverage_ratio"]["value"] == \
        pytest.approx(1.0, abs=1e-6)
    with open(report["trace"]["path"]) as f:
        events = json.load(f)["traceEvents"]
    assert len(events) == result["metrics"]["trace.spans"]["value"]
    assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])


def test_untraced_run_and_what_a_seed_names(quick_runs):
    result, first = quick_runs["out_of_core", "--trace", "0"]
    # untraced: the last line carries exactly the end-to-end metrics
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] == first["end_to_end"][name]
    # one seed, one set of inputs; another seed, other inputs, same answer
    assert first["seed"] == 0
    _, again = quick_runs["out_of_core", "--trace", "1"]
    _, other = quick_runs["out_of_core", "--seed", "1"]
    assert first["input_sha256"] == again["input_sha256"]
    assert first["input_sha256"] != other["input_sha256"]
    assert other["end_to_end"]["ok_op_share"] == 1.0
    # what the issue wants identical for one seed is
    for key in ("peak_bytes", "ok_op_share"):
        assert first["end_to_end"][key] == again["end_to_end"][key]
    assert first["exact_counts"] == again["exact_counts"]


def test_a_wrong_reference_lowers_ok_op_share(tmp_path, bench_modules):
    from harness import Harness
    from workloads.out_of_core import OutOfCore

    harness = Harness(spill_dir=str(tmp_path / "spill"))
    workload = OutOfCore(harness, seed=0, quick=True)
    workload.prepare(str(tmp_path / "inputs"))
    workload.make_references()
    workload.ops = [op for op in workload.build_ops()
                    if op.name.startswith(("sum.", "broadcast."))]
    honest = harness.measure(workload, 0.0, 1, max_passes=1)
    assert honest.failed == 0 and honest.ok_share() == 1.0

    workload.reference["sum"] = workload.reference["nunique"]
    wrong = harness.measure(workload, 0.0, 1, max_passes=1)
    # sum.inmem, sum.shuffle.serial, sum.shuffle.threaded
    assert wrong.failed == wrong.failed_unexpectedly == 3
    assert wrong.ok_share() == pytest.approx(1 - 3 / len(workload.ops))
    assert "differs from the eager reference" in next(
        r.errors[0] for r in wrong.records if r.failed)


def test_self_times_share_the_wall_clock(bench_modules):
    from spans import Tracer

    tracer = Tracer()

    def span(name, layer, parent, start, end, tid=1):
        tracer.spans.append({"name": name, "layer": layer, "parent": parent,
                             "op": 1, "tid": tid, "start": start, "end": end})
        return len(tracer.spans) - 1

    op = span("op:x", "driver", None, 0.0, 10.0)
    execute = span("graph.scheduler.execute", "graph", op, 1.0, 9.0)
    span("exec.merge", "backends", execute, 2.0, 6.0, tid=2)
    read = span("exec.scan", "backends", execute, 4.0, 8.0, tid=3)
    span("io.csv.read_partition", "io", read, 5.0, 7.0, tid=3)
    table = tracer.layer_table()
    assert sum(table.values()) == pytest.approx(10.0)
    assert table["driver"] == pytest.approx(2.0)   # 0-1 and 9-10
    assert table["graph"] == pytest.approx(2.0)    # 1-2 and 8-9
    # 2-4 merge alone, 4-5 merge and scan, 5-6 merge and the scan's read,
    # 6-7 the read alone, 7-8 the scan alone
    assert table["io"] == pytest.approx(0.5 + 1.0)
    assert table["backends"] == pytest.approx(2.0 + 1.0 + 0.5 + 1.0)


def test_compare_flags_a_regression(tmp_path):
    def a_set(path, wall):
        runs = [{
            "workload": "out_of_core", "seed": seed,
            "end_to_end": {"wall_s": wall * (1 + 0.001 * seed),
                           "peak_bytes": 1000.0, "ok_op_share": 1.0,
                           "setup_s": 3.0 + 0.001 * seed},
            "exact_counts": {"io.bytes_read": 5}, "input_sha256": {"f": "x"},
        } for seed in range(1, 6)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    compare = os.path.join(BENCH_DIR, "compare.py")
    base = a_set(tmp_path / "a.json", 2.0)
    same = subprocess.run(
        [sys.executable, compare, base, a_set(tmp_path / "b.json", 2.02)],
        capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    slower = subprocess.run(
        [sys.executable, compare, base, a_set(tmp_path / "c.json", 2.6)],
        capture_output=True, text=True)
    assert slower.returncode == 1
    assert "regression" in slower.stdout
