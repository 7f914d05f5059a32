#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload,
check its outputs and print the result as one JSON line.

    python3 perfbench/run.py --workload photo_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest        # the benchmark's own tests
    python3 perfbench/run.py --probe           # service_mix capacity probe

Run from the repository root. The build goes to .bench_build/perfbench.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. setup_s is the median cold set-up of
this run and of extra --setup-only processes (setup_processes in
perfbench/workloads.json counts them all), each timed from its own
process start. A fingerprinted record of every run is kept under
.bench_build/perfbench/records/<revision>-<binary sha>/ for
perfbench/compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import fingerprint  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally; build output goes to stderr only on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if res.returncode != 0:
                log(res.stdout[-4000:])
                raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def workload_params(name):
    """Flatten perfbench/workloads.json's entry into --param key=value pairs."""
    spec = load_json(os.path.join(HERE, "workloads.json"))["workloads"][name]
    params = {}

    def walk(prefix, node):
        for key, value in node.items():
            full = f"{prefix}{key}"
            if isinstance(value, dict):
                walk(full + ".", value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                params[full] = value

    walk("", spec.get("params", {}))
    args = []
    for key, value in sorted(params.items()):
        args += ["--param", f"{key}={value!r}"]
    return args


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run a built binary, echo its report to stderr, return (stdout, code)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {' '.join(args[:3])} timed out after {timeout} s")
    if err:
        log(err.rstrip())
    return out, proc.returncode


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def compare_hashes(workload, seed, hashes, binary):
    """Same binary, same seed: every output hash must match earlier runs.

    Returns the number of mismatching outputs.
    """
    store_dir = os.path.join(BUILD, "hashes", file_sha(binary))
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, f"{workload}-seed{seed}.json")
    known = load_json(path) if os.path.exists(path) else {}
    mismatches = [k for k, v in hashes.items() if k in known and known[k] != v]
    for key in mismatches[:5]:
        print(f"CHECK FAILED [same_seed_same_hash] {key}: {hashes[key]} != earlier {known[key]}")
    print(f"  same_seed_same_hash          compared {sum(k in known for k in hashes):6d}  "
        f"failed {len(mismatches):6d}")
    known.update({k: v for k, v in hashes.items() if k not in known})
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return len(mismatches)


def cold_setups(binary, opts, count):
    """Set-up seconds of `count` extra processes, each from its own start."""
    times = []
    for _ in range(count):
        out, code = run_binary([binary, "--workload", opts.workload, "--seed", str(opts.seed),
                                "--seconds", str(opts.seconds), "--trace", "0",
                                "--setup-only", "1"] + workload_params(opts.workload))
        lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_SETUP ")]
        if code != 0 or not lines:
            raise SystemExit(f"perfbench: --setup-only {opts.workload} exited with code {code}")
        times.append(float(lines[-1].split()[1]))
    return times


def run_workload(opts):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if opts.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {opts.workload}")
    build()
    binary = os.path.join(BUILD, "perfbench")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"{opts.workload}-seed{opts.seed}.json")]
    cmd += workload_params(opts.workload)
    setups = []
    if not opts.trace:
        extra = load_json(os.path.join(HERE, "workloads.json"))["setup_processes"] - 1
        setups = cold_setups(binary, opts, extra)
    out, code = run_binary(cmd)
    lines = out.splitlines()
    result_lines = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    for line in lines:
        if not line.startswith("PERFBENCH_RESULT "):
            print(line)
    if code != 0 or not result_lines:
        raise SystemExit(f"perfbench: {opts.workload} exited with code {code}")
    raw = json.loads(result_lines[-1][len("PERFBENCH_RESULT "):])

    mismatches = compare_hashes(opts.workload, opts.seed, raw["hashes"], binary)
    failed = raw["failed"] + mismatches
    correct = raw["correct"] and mismatches == 0
    if setups:
        setups.insert(0, raw["metrics"]["setup_s"]["value"])
        raw["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s: median of cold set-ups " + " ".join(f"{t:.4f}" for t in setups) + " s")

    wanted = bench["per_layer"] if opts.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            raise SystemExit(f"perfbench: metric {m['name']} missing from {opts.workload}")
        got = raw["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fingerprint": fingerprint.collect(ROOT, raw["simd"]),
        "correct": correct, "attempted": raw["attempted"], "failed": failed,
        "metrics": raw["metrics"], "hashes": raw["hashes"],
    }
    # One directory per source revision and binary, so a parent's and a
    # change's runs with the same seeds never overwrite each other.
    rec_dir = os.path.join(BUILD, "records",
                           f"{record['fingerprint']['revision']}-{file_sha(binary)[:8]}")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print("record: " + os.path.relpath(rec_path, ROOT))

    print(json.dumps({"correct": correct, "attempted": raw["attempted"], "failed": failed,
                      "metrics": metrics}), flush=True)


def run_selftest():
    build()
    out, code = run_binary([os.path.join(BUILD, "perfbench_selftest")])
    print(out, end="")
    tests = subprocess.run([sys.executable, "-m", "unittest", "-v", "test_compare"], cwd=HERE)
    return 0 if code == 0 and tests.returncode == 0 else 1


def run_probe():
    build()
    out, code = run_binary([os.path.join(BUILD, "perfbench"), "--workload", "service_probe",
                            "--seed", "1", "--seconds", "1", "--trace", "0"]
                           + workload_params("service_mix"))
    print(out, end="")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--probe", action="store_true")
    opts = ap.parse_args()
    if opts.selftest:
        return run_selftest()
    if opts.probe:
        return run_probe()
    if not opts.workload:
        ap.error("--workload is required")
    if opts.seed < 0 or opts.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    run_workload(opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
