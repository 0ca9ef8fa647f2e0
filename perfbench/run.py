#!/usr/bin/env python3
"""End-to-end benchmark of the Green BSP runtime.

Builds the benchmark driver from the checkout it sits in, runs one workload
for a fixed window, checks every program output and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": <jobs>, "failed": <jobs>, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). The full result - host
fingerprint, capacity probe, per-app detail - and, for --trace 1, a Chrome
trace-event file go to .bench_build/perfbench-results/.

    python3 perfbench/run.py --workload apps_deferred_p4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
RANKS = 4
# name -> runs as one OS process per rank under bsp_launch
WORKLOADS = {
    "apps_deferred_p4": False,
    "exchange_socket_p4": False,
    "exchange_shm_p4": True,
}
# Set-up, references and the capacity probe take well under this; the
# window itself adds --seconds.
SLACK_S = 60


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    def nonneg_int(raw):
        try:
            v = int(raw, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
        if v < 0 or v >= 2**63:
            raise argparse.ArgumentTypeError(f"expected an integer in [0, 2^63), got {raw!r}")
        return v

    def seconds(raw):
        v = nonneg_int(raw)
        if not 1 <= v <= 600:
            raise argparse.ArgumentTypeError(f"expected 1..600 seconds, got {raw!r}")
        return v

    ap = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.",
        allow_abbrev=False)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=nonneg_int)
    ap.add_argument("--seconds", type=seconds)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build, then feed every output checker a corrupted output")
    a = ap.parse_args(argv)
    run_flags = [a.workload, a.seed, a.seconds, a.trace]
    if a.self_test:
        if any(f is not None for f in run_flags):
            ap.error("--self-test takes no other arguments")
    elif any(f is None for f in run_flags):
        ap.error("--workload, --seed, --seconds and --trace are required")
    return a


def build():
    if not (ROOT / "src" / "core" / "runtime.hpp").is_file():
        raise BenchError(f"no repository sources at {ROOT / 'src'}: perfbench/ must sit "
                         "in a checkout of the repository")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found on PATH")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "bsp_launch",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        if r.returncode != 0:
            raise BenchError(f"build step failed (exit {r.returncode}): {' '.join(cmd)}")


def run_proc(cmd, timeout, what):
    """Runs cmd in its own session; returns (exit code, stdout). Kills the
    whole session and raises if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{what} did not finish within {timeout} s; killed it")
        raise
    return proc.returncode, out.decode(errors="replace")


def capacity():
    rc, out = run_proc([str(BUILD / "perfbench"), "--capacity"], 60, "capacity probe")
    if rc != 0:
        raise BenchError(f"capacity probe failed (exit {rc})")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(a, out_dir):
    exe = str(BUILD / "perfbench")
    driver = [exe, "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", str(out_dir)]
    limit = a.seconds + SLACK_S
    if WORKLOADS[a.workload]:
        # bsp_launch's watchdog SIGKILLs every rank's process group at the
        # deadline and exits 124, so a rank that cannot bootstrap or wedges
        # ends the run instead of hanging it.
        cmd = [str(BUILD / "bsp_launch"), "-p", str(RANKS), "--transport", "shm",
               "--timeout", str(limit), "--"] + driver
    else:
        cmd = driver
    t0 = time.monotonic_ns()
    rc, out = run_proc(cmd + ["--launch-t0-ns", str(t0)], limit + 15, a.workload)
    if rc != 0:
        if WORKLOADS[a.workload] and rc == 124:
            raise BenchError(f"{a.workload}: the rank processes outlived bsp_launch "
                             f"--timeout {limit}; they were killed (see stderr above)")
        if WORKLOADS[a.workload]:
            raise BenchError(f"{a.workload}: bsp_launch -p {RANKS} --transport shm exited "
                             f"{rc}: a rank failed to launch, bootstrap or verify "
                             "(its message is above)")
        raise BenchError(f"{a.workload}: driver exited {rc} (its message is above)")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{a.workload}: driver printed no result")
    for ln in lines[:-1]:
        print(ln, file=sys.stderr)
    return json.loads(lines[-1])


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint(a, detail):
    cpu = "unknown"
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        sha = r.stdout.strip() if r.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": detail.get("compiler"),
        "build_type": detail.get("build_type"),
        "git_sha": sha,  # None: the checkout is not a git repository
        "source_sha256": source_digest(),
        "workload_seed": a.seed,
    }


def merge_traces(out_dir):
    """Joins the per-rank trace files into one trace.json, time-shifted so
    the first span starts at 0."""
    parts = sorted(out_dir.glob("trace-rank*.json"))
    events = []
    for p in parts:
        events += json.loads(p.read_text())["traceEvents"]
    starts = [e["ts"] for e in events if e.get("ph") == "X"]
    t0 = min(starts) if starts else 0.0
    for e in events:
        if "ts" in e:
            e["ts"] = round(e["ts"] - t0, 3)
    path = out_dir / "trace.json"
    path.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))
    for p in parts:
        p.unlink()
    return path, len(starts)


def main(argv):
    a = parse_args(argv)
    build()
    if a.self_test:
        rc, out = run_proc([str(BUILD / "perfbench"), "--self-test"], 300, "self-test")
        sys.stdout.write(out)
        return rc

    out_dir = RESULTS / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    cap_before = capacity()
    res = run_workload(a, out_dir)
    cap_after = capacity()

    metrics = res["metrics"]
    if a.trace:
        trace_path, spans = merge_traces(out_dir)
        res["detail"]["trace_file"] = str(trace_path.relative_to(ROOT))
        res["detail"]["trace_spans"] = spans
        metrics["host.parallel_capacity_before"] = {
            "value": cap_before["parallel_capacity"], "unit": "cores"}
        metrics["host.parallel_capacity_after"] = {
            "value": cap_after["parallel_capacity"], "unit": "cores"}
    correct = bool(res["correct"])
    want = expected_metrics(a.trace)
    if want is not None and set(metrics) != want:
        log(f"metric names differ from BENCHMARK.json: missing {sorted(want - set(metrics))}, "
            f"extra {sorted(set(metrics) - want)}")
        correct = False
    bad = [k for k, v in metrics.items() if not isinstance(v["value"], (int, float))]
    if bad:
        log(f"metrics without a finite value: {bad}")
        correct = False

    full = {
        "result": {"correct": correct, "attempted": res["attempted"],
                   "failed": res["failed"], "metrics": metrics},
        "detail": res["detail"],
        "host": fingerprint(a, res["detail"]),
        "capacity_before": cap_before,
        "capacity_after": cap_after,
    }
    (out_dir / "result.json").write_text(json.dumps(full, indent=1) + "\n")

    d = res["detail"]
    print(f"{a.workload} seed={a.seed} trace={a.trace}: {res['attempted']} jobs, "
          f"{res['failed']} failed (fail_ratio {d['fail_ratio']:.4g}), "
          f"host capacity {cap_before['parallel_capacity']:.2f} -> "
          f"{cap_after['parallel_capacity']:.2f} of {cap_before['nproc']} cores")
    if not a.trace:
        print(f"  job tail = median over {d['job_tail_blocks']} blocks of {d['jobs']} jobs "
              f"of each block's p{d['job_tail_percentile']:.2f} "
              f"({d['job_tail_samples_beyond']} beyond it)")
    else:
        print(f"  trace: {d['trace_file']} ({d['trace_spans']} spans)")
        print("  paper column (traced medians): wall vs W + gH + LS, ms")
        for app, c in d["paper_column"].items():
            pred = c["W_ms"] + c["gH_ms"] + c["LS_ms"]
            print(f"    {app:7s} wall {c['wall_ms']:9.3f}  pred {pred:9.3f} = "
                  f"{c['W_ms']:.3f} + {c['gH_ms']:.3f} + {c['LS_ms']:.3f}")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")
    print(f"  full result: {(out_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps(full["result"]))
    return 0


def on_sigterm(signum, frame):
    # Unwinds through run_proc, which kills the child session on the way out.
    raise KeyboardInterrupt


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(str(e))
        sys.exit(1)
    except KeyboardInterrupt:
        log("interrupted")
        sys.exit(130)
    except Exception as e:  # anything else is a benchmark defect: say what
        log(f"unexpected {type(e).__name__}: {e}")
        sys.exit(1)
