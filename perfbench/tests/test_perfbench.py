"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Each test runs ``perfbench/run.py`` at the smoke size in a copy of the
benchmark and the program sources, the way the benchmark runs from a source
checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
PRINTED = ("setup_s", "wall_norm_s", "wall_s", "host_speed",
           "replications_per_s", "analysis_s", "resume_s", "peak_rss_mb",
           "failed_frac")
IGNORED = shutil.ignore_patterns("__pycache__", ".perfbench_out", "tests")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(BENCH, root / "perfbench", ignore=IGNORED)
    shutil.copytree(ROOT / "src", root / "src", ignore=IGNORED)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run_bench(root, workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.startswith("record "))
    record = json.loads(Path(record_line.split(" ", 1)[1]).read_text())
    return json.loads(lines[-1]), record, lines


def declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_and_emits_end_to_end_metrics(checkout, workload, seed):
    result, record, lines = run_bench(checkout, workload, trace=0, seed=seed)
    failed = [c for c in record["checks"] if not c["ok"]]
    assert result["correct"] and result["failed"] == 0, failed
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in PRINTED:
        assert any(line.startswith(name + " ") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_nested_spans(checkout, workload):
    result, record, _ = run_bench(checkout, workload, trace=1)
    failed = [c for c in record["checks"] if not c["ok"]]
    assert result["correct"] and result["failed"] == 0, failed
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_units("per_layer")
    trace = record["trace"]
    assert trace["spans"]
    assert spans.nesting_errors(trace["spans"]) == []
    assert all(self_s >= 0 for _, _, self_s in trace["stats"].values())


def test_wrong_pinned_digest_is_a_failure(checkout, tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(checkout, copy, ignore=IGNORED)
    pins_path = copy / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    for entry in pins["smoke"]["sample"].values():
        entry["sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    result, record, _ = run_bench(copy, "sample", trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(c["name"] == "sample.pinned_payoffs" and not c["ok"]
               for c in record["checks"])


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=IGNORED)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorder_self_time_excludes_children():
    import time
    import types

    module = types.ModuleType("fake")

    def inner():
        time.sleep(0.01)

    def outer():
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules["fake"] = module
    try:
        rec = spans.Recorder()
        rec.install({"fake.outer": (["fake:outer"], "span"),
                     "fake.inner": (["fake:inner"], "hot")})
        module.outer()
        rec.uninstall()
    finally:
        del sys.modules["fake"]
    calls, total, self_s = rec.stats["fake.outer"]
    assert calls == 1 and rec.calls("fake.inner") == 2
    assert 0 <= self_s < total - 0.015
    assert module.outer is outer and module.inner is inner


def test_probe_speed_is_the_mean_over_bursts_in_the_window(tmp_path):
    host = probe.HostProbe([], tmp_path)
    nominal = probe.NOMINAL_S
    host.samples = [[0.0, nominal], [1.0, 1.0 + 2 * nominal],
                    [5.0, 5.0 + nominal / 2]]
    speed, bursts = host.speed(0.0, 1.01)
    assert bursts == 2 and speed == pytest.approx(0.75)
    with pytest.raises(RuntimeError):
        host.speed(2.0, 3.0)
