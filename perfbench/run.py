"""Outside-in benchmark for duogame.

    python3 perfbench/run.py --workload sample|analyze|gsa_loop --seed N \
        --seconds T --trace 0|1 [--size full|smoke]

Run from the root of a source checkout; the program is imported from
``src/``. Each run spawns fresh worker processes (``workloads.py``): a few
that only set up, to time set-up, and one that sets up and then runs the
workload's units for about ``--seconds`` seconds (never fewer than one unit)
beside a host speed probe (``probe.py``) and checks every output. With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.

Standard output: a provenance line, one line per metric with its unit, and,
as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The full record, spans
included, goes to ``.perfbench_out/results/``. Exit code 2 means the
benchmark could not run (no program to measure, bad arguments, a worker
that crashed); failed output checks are reported in the result instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2            # set-up-only processes besides the measured one
WORKER_TIMEOUT_S = 600

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}

# figures printed beside the end-to-end metrics, with the reason a workload
# lacks one; the result line carries only metrics that every workload
# produces. Rates and times other than wall_s are at nominal host speed.
REPORTED = {
    "wall_s": ("s", ""),
    "host_speed": ("ratio", ""),
    "replications_per_s": ("1/s", "no simulation on this workload"),
    "analysis_s": ("s", "no analysis sequence on this workload"),
    "resume_s": ("s", "no resumable run on this workload"),
    "failed_frac": ("ratio", ""),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance():
    """Host and source record written with every result. A checkout that is
    not a git repository is identified by the digest of its sources."""
    sources = sorted((ROOT / "src" / "duogame").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "loadavg_1m_before": os.getloadavg()[0],
    }


def spawn(args, work, tag, setup_only=False):
    """Run one worker; returns its result and its set-up time."""
    result_path = work / f"result-{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--config", str(work / "config.json"), "--work", str(work),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # its own process group, so that a timeout also ends the CLI processes
    # and pool workers the worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {tag} timed out") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - spawned


def end_to_end(args, result, setups):
    """Set-up time as measured; unit times scaled to nominal host speed by
    the probe's mean speed over each unit's window (``probe.py``)."""
    units = result["units"]
    walls = [u["wall_s"] for u in units]
    norm_walls = [u["wall_s"] * u["speed"] for u in units]
    if args.workload == "gsa_loop":
        rss_kb = result["children_maxrss_kb"]
    else:
        rss_kb = result["maxrss_kb"]
    metrics = {"setup_s": statistics.median(setups),
               "wall_norm_s": statistics.median(norm_walls),
               "peak_rss_mb": rss_kb / 1024.0}
    reported = {"wall_s": statistics.median(walls),
                "host_speed": statistics.median(u["speed"] for u in units)}
    replications = sum(u["replications"] for u in units)
    if replications:
        reported["replications_per_s"] = replications / sum(norm_walls)
    if args.workload == "analyze":
        reported["analysis_s"] = metrics["wall_norm_s"]
    if args.workload == "gsa_loop":
        reported["resume_s"] = statistics.median(
            u["resume_s"] * u["resume_speed"] for u in units)
    return metrics, reported


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Outside-in benchmark for duogame.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=inputs.SIZES, default="full",
                        help="smoke shrinks every unit for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "duogame" / "__init__.py").is_file():
        print(f"perfbench: no duogame sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    host = provenance()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        (work / "config.json").write_text(
            json.dumps(inputs.CONFIGS[args.workload](args.size)))
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, work, f"setup{i}", setup_only=True)[1]
                  for i in range(probes)]
        result, setup_s = spawn(args, work, "run")
        setups.append(setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_1m_after"] = os.getloadavg()[0]

    checks = [c for u in result["units"] for c in u["checks"]] + result["checks"]
    failed = sum(not c["ok"] for c in checks)
    attempted = sum(u["operations"] for u in result["units"]) + len(checks)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "host": host, "setup_s_samples": setups, "units": result["units"],
              "checks": checks}
    lines = [f"host {json.dumps(host, sort_keys=True)}"]
    if args.trace:
        metrics = result["layers"]
        record.update(notes=result["notes"], trace=result["trace"])
        lines += [f"{name} n/a here ({reason}); reads 0"
                  for name, reason in result["notes"]["not_exercised"].items()]
    else:
        metrics, reported = end_to_end(args, result, setups)
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        reported["failed_frac"] = failed / attempted
        for name, (unit, reason) in REPORTED.items():
            if name in reported:
                lines.append(f"{name} {reported[name]!r} {unit}")
            else:
                lines.append(f"{name} n/a ({reason})")
        record["reported"] = reported
    lines[1:1] = [f"{name} {value!r} {unit}"
                  for name, (value, unit) in metrics.items()]
    lines.append(f"checks {len(checks) - failed} of {len(checks)} passed")
    lines += [f"check FAILED {c['name']}: {c['detail']}"
              for c in checks if not c["ok"]]
    record["metrics"] = metrics

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                             f"-{args.size}.json")
    record_path.write_text(json.dumps(record, indent=1))
    lines.append(f"record {record_path}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
