#!/usr/bin/env python3
"""End-to-end switch benchmark.

Builds the perfbench binary (and the switch library from src/) into the
build directory, runs one workload and prints the result as one JSON line:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; a result lacking any of them is refused (exit
4, no result line).  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout, result documents and
span traces next to it.  --selftest plants each fault the benchmark must
catch and checks that its own check trips.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


class SchemaError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the binary; returns its path or exits 2."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no switch sources (src/CMakeLists.txt) in this checkout")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 and p.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace, fault=None):
    """Runs one measurement; returns the result document or exits."""
    out = build_dir()
    (out / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}" + (f"-{fault}" if fault else "")
    result_path = out / "results" / f"{tag}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", str(result_path), "--git-sha", git_sha()]
    if trace:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(out / "traces" / f"{tag}.json")]
    if fault:
        cmd += ["--fault", fault]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(5)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    if p.returncode != 0:
        log(f"perfbench: binary exited with {p.returncode}")
        sys.exit(p.returncode)
    return json.loads(result_path.read_text())


def select(result, spec, trace):
    """The result line for `spec`'s metric set; SchemaError if anything is off."""
    for key, kind in (("correct", bool), ("attempted", (int, float)), ("failed", (int, float))):
        if not isinstance(result.get(key), kind):
            raise SchemaError(f"result field '{key}' missing or mistyped")
    if result["attempted"] < 1 or result["failed"] < 0:
        raise SchemaError("attempted must be >= 1 and failed >= 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result.get("metrics", {}).get(m["name"])
        if got is None:
            raise SchemaError(f"result lacks metric '{m['name']}'")
        if got.get("unit") != m["unit"]:
            raise SchemaError(f"metric '{m['name']}' has unit {got.get('unit')!r}, "
                              f"expected {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise SchemaError(f"metric '{m['name']}' has no finite value")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def selftest(binary, spec):
    """Each planted fault must trip its own check; a clean run trips none."""
    seconds = 2
    ok = True

    def check(name, cond, detail):
        nonlocal ok
        ok = ok and cond
        log(f"selftest {'PASS' if cond else 'FAIL'} {name}: {detail}")

    clean = run_binary(binary, "l2_churn", 1, seconds, 0)
    check("clean run", clean["correct"] and clean["failed"] == 0 and not clean["invalid"],
          f"failed={clean['failed']} invalid={clean['invalid']}")
    for fault, workload, needle in (("wrong_port", "gateway", "wrong port"),
                                    ("withhold", "gateway", "never drained"),
                                    ("refuse_mod", "l2_churn", "FLOW_MOD refused")):
        r = run_binary(binary, workload, 1, seconds, 0, fault)
        tripped = r["failed"] > 0 and r["metrics"]["fail_ratio"]["value"] > 0 and any(
            needle in f for f in r["failures"])
        check(fault, tripped and not r["correct"], f"failures={r['failures']}")
    r = run_binary(binary, "gateway", 1, seconds, 0, "late_gen")
    check("late_gen", not r["correct"] and any("generator" in i for i in r["invalid"]),
          f"gen_lag_p99_us={r['metrics']['bench.gen_lag_p99_us']['value']:.1f} "
          f"invalid={r['invalid']}")
    try:
        select(clean, spec, 0)
        broken = json.loads(json.dumps(clean))
        del broken["metrics"][spec["end_to_end"][0]["name"]]
        select(broken, spec, 0)
        check("schema", False, "a result missing a metric was accepted")
    except SchemaError as e:
        check("schema", True, str(e))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    binary = build()
    if args.selftest:
        return selftest(binary, spec)
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or spec["run_seconds"]
    result = run_binary(binary, args.workload, args.seed, seconds, args.trace)
    try:
        line = select(result, spec, args.trace)
    except SchemaError as e:
        log(f"perfbench: result refused: {e}")
        return 4
    print("env " + json.dumps(result.get("env", {}), sort_keys=True))
    print(f"fail_ratio {result['metrics']['fail_ratio']['value']:.6g} "
          f"(failed {line['failed']} of {line['attempted']})")
    print(json.dumps(line, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
