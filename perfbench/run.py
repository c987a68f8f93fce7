#!/usr/bin/env python3
"""One-command benchmark of the MBQC-QAOA stack.

    python3 perfbench/run.py                       # everything: build, own
                                                   # tests, every workload
                                                   # untraced and traced
    python3 perfbench/run.py --workload mbqc-sample --seed 3 --seconds 10 \\
        --trace 0                                  # one measured run

Builds the library from the repository's own CMakeLists.txt (Release,
into .bench_build/ at the repository root) together with the measuring
program perfbench/mbq_perf.cpp, runs it with every MBQ_* variable unset,
and prints each metric with its unit.  A single-workload run ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  Any failed correctness check makes the exit code non-zero.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170

# The end-to-end metrics of BENCHMARK.json are common to all workloads;
# throughput_per_s is each workload's own unit of work per second.
THROUGHPUT = {
    "mbqc-sample": "shots_per_s",
    "variational": "evals_per_s",
    "served": "sat_rps",
    "large-n": "shots_per_s",
    "large-n-f32": "f32.shots_per_s",
}

# Workloads the one command also runs but BENCHMARK.json does not guard:
# their wide registers make their throughput follow the host's memory
# traffic, a quartile spread of 0.09-0.22 over ten seeds (README.md,
# "Steadiness").
UNGUARDED = ["large-n-f32", "large-n"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def knob_env():
    """The environment the benchmark runs in (MBQ_* knobs unset), and the
    MBQ_* / OMP_* variables that were set when it was called."""
    seen = {k: v for k, v in os.environ.items()
            if k.startswith("MBQ_") or k.startswith("OMP_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("MBQ_")}
    return env, seen


def build(env, targets):
    """Configure (once) and build; returns the build type, or exits."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: no library sources next to perfbench/ "
            "(expected CMakeLists.txt and src/ at", str(ROOT) + ")")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        sys.exit(2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build step failed:", " ".join(cmd))
            sys.exit(2)
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        log(f"run.py: refusing to measure a '{build_type}' build of libmbq; "
            f"remove {BUILD} or configure it with CMAKE_BUILD_TYPE=Release")
        sys.exit(2)
    return build_type


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_workload(env, workload, seed, seconds, trace):
    """Runs mbq_perf once; returns (report dict, exit code)."""
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    report = reports / f"{stem}.json"
    if report.exists():
        report.unlink()
    cmd = [str(BUILD / "mbq_perf"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--worker", str(BUILD / "mbq" / "mbq_worker"),
           "--report", str(report)]
    if trace:
        cmd += ["--spans", str(reports / f"{stem}.spans.json")]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the daemon's workers.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, 124
    except BaseException:  # interrupted or terminated: stop the group too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if not report.is_file():
        log(f"run.py: {workload} wrote no report (exit {code})")
        return None, code or 1
    return json.loads(report.read_text()), code


def with_aliases(workload, metrics):
    out = dict(metrics)
    if THROUGHPUT[workload] in metrics:
        out["throughput_per_s"] = metrics[THROUGHPUT[workload]]
    return out


def print_context(report, build_type, seen):
    ctx = dict(report["context"])
    ctx["build_type"] = build_type
    ctx["commit"] = commit()
    ctx["env_set"] = (", ".join(f"{k}={v}" for k, v in sorted(seen.items()))
                      or "none")
    ctx["env_note"] = "MBQ_* variables are unset for the run"
    print("context: " + "; ".join(f"{k}={v}" for k, v in ctx.items()))


def select(spec_metrics, metrics):
    """The BENCHMARK.json metrics, as measured; None if any is missing."""
    out = {}
    for m in spec_metrics:
        got = metrics.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            log(f"run.py: metric {m['name']} missing or not a number")
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def one(args, env, seen, spec):
    build_type = build(env, ["mbq_perf", "mbq_worker"])
    report, code = run_workload(env, args.workload, args.seed, args.seconds,
                                args.trace)
    if report is None:
        sys.exit(code or 1)
    metrics = with_aliases(args.workload, report["metrics"])
    print_context(report, build_type, seen)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in spec["end_to_end"] if not args.trace else []:
        v = metrics.get(m["name"], {}).get("value")
        print(f"{args.workload} {m['name']} {v} {m['unit']}")
    chosen = select(wanted, metrics)
    if chosen is None:
        sys.exit(1)
    correct = report["failed"] == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": chosen}))
    sys.exit(0 if correct else 1)


def everything(args, env, seen, spec):
    build_type = build(env, ["mbq_perf", "mbq_worker", "perf_tests"])
    ok = True
    tests = BUILD / "perf_tests"
    if tests.is_file():
        ok &= subprocess.run([str(tests)], env=env).returncode == 0
    else:
        log("run.py: GTest not found; the benchmark's own tests were skipped")
    rows = []
    for name in [w["name"] for w in spec["workloads"]] + UNGUARDED:
        for trace in (False, True):
            report, code = run_workload(env, name, args.seed, args.seconds,
                                        trace)
            if report is None:
                ok = False
                continue
            if not trace:
                print_context(report, build_type, seen)
            ok &= code == 0 and report["failed"] == 0
            kind = ("trace" if trace else "e2e") + \
                ("*" if name in UNGUARDED else "")
            metrics = with_aliases(name, report["metrics"])
            for metric, m in sorted(metrics.items()):
                rows.append(f"{name:12} {kind:6} {metric:28} "
                            f"{m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    print("(* = a workload BENCHMARK.json does not guard)")
    print("benchmark " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + UNGUARDED
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # SIGTERM unwinds like Ctrl-C, so a running mbq_perf is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env, seen = knob_env()
    if args.workload is None:
        everything(args, env, seen, spec)
    else:
        one(args, env, seen, spec)


if __name__ == "__main__":
    main()
