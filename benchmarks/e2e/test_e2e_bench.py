"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Outside ``testpaths`` on purpose -- the smoke pass takes about half a
minute and tier-1 time must not change.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as bench  # noqa: E402
from spans import SpanTracer, Target, aggregate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The tracer, on a toy program with a scripted clock
# ----------------------------------------------------------------------


class Clock:
    """Advances only when the toy program says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def toy():
    """A module with a class, a function, a generator and a kernel object."""
    clock = Clock()
    module = types.ModuleType("toy_program")

    class Kernel:
        def single(self, x):
            clock.spend(3.0)
            return x * 2

    def leaf_work():
        clock.spend(1.0)
        return "leaf"

    class Pipeline:
        scale = staticmethod(lambda x: x + 1)

        def run(self, frames):
            clock.spend(2.0)
            return [self.frame(i) for i in range(frames)]

        def frame(self, i):
            clock.spend(1.0)
            module.helper()
            return module.KERNELS["k"].single(i)

        def steps(self, n):
            total = 0
            for i in range(n):
                clock.spend(1.0)
                module.helper()
                total += yield i
            return total

        def aside(self):
            clock.spend(5.0)
            return module.helper()

    module.Pipeline = Pipeline
    module.helper = leaf_work
    module.KERNELS = {"k": Kernel()}
    sys.modules["toy_program"] = module
    yield module, clock
    del sys.modules["toy_program"]


TOY_TABLE = (
    Target("pipeline", "toy_program:Pipeline.run"),
    Target("frame", "toy_program:Pipeline.frame", op=True),
    Target("steps", "toy_program:Pipeline.steps", op=True),
    Target("aside", "toy_program:Pipeline.aside", leaf=True),
    Target("helper", "toy_program:helper"),
    Target("kernel", "toy_program:KERNELS[k].single"),
    Target("gone", "toy_program:Pipeline.renamed_away"),
    Target("gone", "no_such_module:thing"),
)


def test_nested_self_time_sums_to_root(toy):
    module, clock = toy
    tracer = SpanTracer(clock=clock)
    with tracer.patch(TOY_TABLE):
        assert module.Pipeline().run(3) == [0, 2, 4]
    layers = aggregate(tracer.spans)
    assert layers["pipeline"]["self_s"] == pytest.approx(2.0)
    assert layers["frame"]["self_s"] == pytest.approx(3 * 1.0)
    assert layers["helper"]["self_s"] == pytest.approx(3 * 1.0)
    assert layers["kernel"]["self_s"] == pytest.approx(3 * 3.0)
    assert layers["frame"]["total_s"] == pytest.approx(3 * 5.0)
    root = [s for s in tracer.spans if s.parent < 0]
    assert len(root) == 1 and root[0].layer == "pipeline"
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(root[0].end - root[0].start)
    assert {layer: e["calls"] for layer, e in layers.items()} == {
        "pipeline": 1, "frame": 3, "helper": 3, "kernel": 3,
    }
    # Everything under one frame shares that frame's op id; the root has none.
    ops = {s.op for s in tracer.spans if s.layer != "pipeline"}
    assert ops == {0, 1, 2} and root[0].op == -1


def test_generator_is_timed_per_resumption_and_keeps_its_protocol(toy):
    module, clock = toy
    tracer = SpanTracer(clock=clock)
    with tracer.patch(TOY_TABLE):
        generator = module.Pipeline().steps(3)
        assert isinstance(generator, types.GeneratorType)
        clock.spend(100.0)                      # suspended time is nobody's
        assert generator.send(None) == 0
        clock.spend(100.0)
        assert generator.send(10) == 1
        assert generator.send(20) == 2
        with pytest.raises(StopIteration) as stop:
            generator.send(30)
        assert stop.value.value == 60           # sent values and return value intact
    layers = aggregate(tracer.spans)
    assert layers["steps"]["calls"] == 1        # one call, four resumptions
    assert layers["steps"]["spans"] == 5
    assert layers["steps"]["self_s"] == pytest.approx(3 * 1.0)
    assert layers["helper"]["self_s"] == pytest.approx(3 * 1.0)
    assert len({s.op for s in tracer.spans}) == 1   # all of it is one op

    # Exceptions thrown in reach the generator; closing it closes the inner one.
    def fragile():
        try:
            yield 1
        except KeyError:
            yield "caught"
        yield "unreachable"

    wrapped = SpanTracer(clock=clock).wrap("fragile", fragile)()
    assert next(wrapped) == 1
    assert wrapped.throw(KeyError()) == "caught"
    wrapped.close()
    with pytest.raises(StopIteration):
        next(wrapped)


def test_leaf_layer_mutes_what_runs_beneath_it(toy):
    module, clock = toy
    tracer = SpanTracer(clock=clock)
    with tracer.patch(TOY_TABLE):
        assert module.Pipeline().aside() == "leaf"
    layers = aggregate(tracer.spans)
    assert set(layers) == {"aside"}
    assert layers["aside"]["self_s"] == pytest.approx(6.0)


def test_unresolved_targets_are_skipped_and_every_patch_is_restored(toy):
    module, clock = toy
    kernel = module.KERNELS["k"]
    before = {
        "run": vars(module.Pipeline)["run"], "frame": vars(module.Pipeline)["frame"],
        "steps": vars(module.Pipeline)["steps"], "helper": module.helper,
    }
    tracer = SpanTracer(clock=clock)
    with tracer.patch(TOY_TABLE):
        assert vars(module.Pipeline)["run"] is not before["run"]
        assert "single" in vars(kernel)
        counted = tracer.count("toy_program:helper")
        module.helper()
        assert counted == [1]
        assert tracer.count("toy_program:nothing_here") == [0]
    assert tracer.unresolved == [
        "toy_program:Pipeline.renamed_away", "no_such_module:thing", "toy_program:nothing_here",
    ]
    assert vars(module.Pipeline)["run"] is before["run"]
    assert vars(module.Pipeline)["frame"] is before["frame"]
    assert vars(module.Pipeline)["steps"] is before["steps"]
    assert module.helper is before["helper"]
    assert "single" not in vars(kernel)         # the instance shadow is gone
    assert kernel.single(2) == 4
    # The time of a target that is gone falls into its parent.
    spans_before = len(tracer.spans)
    module.Pipeline().run(1)
    assert len(tracer.spans) == spans_before    # and nothing records after exit


def test_static_and_class_methods_keep_their_kind(toy):
    module, clock = toy
    tracer = SpanTracer(clock=clock)
    with tracer.patch((Target("scale", "toy_program:Pipeline.scale"),)):
        assert isinstance(vars(module.Pipeline)["scale"], staticmethod)
        assert module.Pipeline.scale(1) == 2 and module.Pipeline().scale(2) == 3
    assert [s.layer for s in tracer.spans] == ["scale", "scale"]
    assert module.Pipeline.scale(1) == 2


def test_thread_stacks_do_not_interleave(toy):
    module, clock = toy
    tracer = SpanTracer()                        # real clock: threads overlap in time
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait(timeout=10)
        module.Pipeline().run(20)

    with tracer.patch(TOY_TABLE):
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) == 4 * (1 + 20 * 3)
    for span in tracer.spans:
        if span.parent >= 0:
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
    roots = [s for s in tracer.spans if s.parent < 0]
    assert len(roots) == 4 and len({s.thread for s in roots}) == 4
    assert len({s.op for s in tracer.spans if s.op >= 0}) == 4 * 20


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"] and SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["call", "call_eval", "fleet", "service_churn"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_the_ten_end_to_end_metrics_are_all_declared():
    assert set(bench.metric_table(SPEC)) == {
        "setup_s", "frames_per_s", "delivery_ms_p50", "pssim_geometry", "pssim_color",
        "session_frames_per_s", "tick_ms_p50", "req_ms_p50", "req_ms_p95", "peak_rss_mb",
    }


# ----------------------------------------------------------------------
# The smoke pass: same code path and schema at tiny sizes
# ----------------------------------------------------------------------


def _run(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _run("--smoke", "--repeats", "2", "--trace", "1", "--out", str(out),
                "--trace-out", str(out.parent))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), out.parent


WHERE = {
    "frames_per_s": {"call", "call_eval"},
    "delivery_ms_p50": {"call", "call_eval"}, "pssim_geometry": {"call", "call_eval"},
    "pssim_color": {"call", "call_eval"}, "req_ms_p50": {"service_churn"},
    "req_ms_p95": {"service_churn"},
}


def test_smoke_document_has_every_declared_name(smoke_document):
    document, directory = smoke_document
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert {"cpu_model", "nproc", "python", "numpy", "scipy"} <= set(document["host"])
    for key in ("git_sha", "seed", "seconds", "repeats"):
        assert key in document
    everywhere = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name, entry in document["workloads"].items():
        expected = everywhere | {m for m, where in WHERE.items() if name in where}
        assert set(entry["metrics"]) == expected
        for row in entry["metrics"].values():
            assert row["n"] == 2 and row["min"] <= row["median"] <= row["max"]
            assert row["median"] > 0 and row["unit"] and "spread" in row
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1
        assert len(entry["digests"]) == 1
        # Every per-layer value the run produced is declared, and the
        # layers it exercises are among the declared ones.
        assert set(entry["layers"]) <= per_layer
        assert entry["layers"]["trace.unresolved_targets"] == 0
        assert (directory / f"layers_{name}.json").exists()
        assert (directory / f"spans_{name}.jsonl").stat().st_size > 0
    layers = document["workloads"]
    for name in ("call", "call_eval", "fleet"):
        assert layers[name]["layers"]["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert layers["call"]["layers"]["metrics.pointssim.calls_per_op"] < 0.1
    assert layers["call_eval"]["layers"]["metrics.pointssim.self_ms_per_op"] > 1.0
    assert layers["fleet"]["layers"]["runtime.batchplane.mean_bucket_size"] > 2.0
    assert layers["fleet"]["layers"]["sfu.fleet.unicast_control.self_ms_per_op"] > 0
    assert layers["service_churn"]["layers"]["service.app.handle.calls_per_op"] > 0
    assert layers["service_churn"]["info"]["requests"] > 100


def test_aa_compare_accepts_a_document_against_itself(smoke_document, capsys):
    document, _ = smoke_document
    rows, problems = compare.compare(document, document, bench.metric_table(SPEC))
    assert not problems
    assert len(rows) == sum(len(e["metrics"]) for e in document["workloads"].values())
    assert {row["verdict"] for row in rows} <= {"ok", "unresolved"}


def test_compare_flags_regressions_failures_and_unresolved(smoke_document):
    document, _ = smoke_document
    table = bench.metric_table(SPEC)

    def altered(workload, metric=None, factor=1.0, **fields):
        copy = json.loads(json.dumps(document))
        entry = copy["workloads"][workload]
        if metric:
            row = entry["metrics"][metric]
            for key in ("median", "min", "max"):
                row[key] *= factor
            row["values"] = [v * factor for v in row["values"]]
        entry.update(fields)
        return copy

    def verdicts(doc_b):
        rows, problems = compare.compare(document, doc_b, table)
        return {(r["workload"], r["metric"]): r["verdict"] for r in rows}, problems

    rows, problems = verdicts(altered("fleet", "session_frames_per_s", 0.70))
    assert rows[("fleet", "session_frames_per_s")] == "regressed" and problems
    rows, problems = verdicts(altered("fleet", "tick_ms_p50", 1.40))
    assert rows[("fleet", "tick_ms_p50")] == "regressed" and problems
    rows, problems = verdicts(altered("fleet", "session_frames_per_s", 1.50))
    assert rows[("fleet", "session_frames_per_s")] == "ok" and not problems
    # A sim-clock metric may not move at all on the same seed and size.
    rows, problems = verdicts(altered("call", "delivery_ms_p50", 1.0001))
    assert rows[("call", "delivery_ms_p50")] == "regressed" and problems
    # More failures per attempt fail the comparison whatever the timings say.
    _, problems = verdicts(altered("service_churn", failed=3))
    assert any("failed share" in p for p in problems)
    # Wide scatter with overlapping runs is "unresolved", not "ok".
    wide = altered("call")
    wide["workloads"]["call"]["metrics"]["frames_per_s"]["spread"] = 0.5
    rows, problems = verdicts(wide)
    assert rows[("call", "frames_per_s")] == "unresolved"


def test_single_workload_ends_with_the_contract_line():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run("--workload", "fleet", "--seed", "1", "--seconds", "20",
                    "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            value = result["metrics"][metric["name"]]
            assert set(value) == {"value", "unit"} and value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"))
    done = _run("--workload", "call", "--seed", "0", "--seconds", "20", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout
