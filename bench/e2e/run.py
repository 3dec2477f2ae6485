#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md).

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints one line per metric, then, as the last
      line, {"correct", "attempted", "failed", "metrics"} with the
      BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
      (--trace 1).

  run.py [--seed N] [--traced] [--smoke] [--sets K] [--seconds S] [--out FILE]
      A full set: every workload in its own process (K times, interleaved),
      plus a traced run of each with --traced. Prints
      `workload metric value unit n` lines and writes every run to --out.

  run.py compare A.json B.json
      Median and quartiles of each (workload, metric) on both sides and a
      verdict: within bound, worse, unresolved (spread wider than the bound)
      or missing.

Builds bench_e2e first (cmake into build-e2e/ at the repo root). Every
output is checked: each iteration against the first, traced chaos replicas
against Engine::run, and at the golden seed against golden.json. Any
mismatch makes the run incorrect and the exit code non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["paper_pass", "chaos_cascade", "chaos_linkflap", "serve_refresh"]
WARMUP_S = 3.0
RUN_TIMEOUT_S = 170

# Metrics the full set reports and compares beyond BENCHMARK.json's
# end_to_end list, with their bounds (0 = any increase is worse).
EXTRA_BOUNDS = {"fail_frac": 0.0, "refresh_ms_p50": 0.25, "query_us_p99": 0.25}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def threads_for(workload):
    # serve_refresh adds two generator threads and a refresher to the pool,
    # so its pool is halved to keep four busy threads on four cores.
    return 2 if workload == "serve_refresh" else 4


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no ranycast sources to build")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                            "-j", "4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_bench(workload, seed, seconds, traced=False, smoke=False):
    """One bench_e2e process; returns its result with run.py's checks folded
    into result["errors"]."""
    cmd = [str(BINARY), "--workload", workload, "--root", str(ROOT), "--seed", str(seed),
           "--threads", str(threads_for(workload)), "--seconds", str(seconds)]
    if smoke:
        cmd += ["--preset", "tiny", "--warmup", "0", "--iterations", "1"]
    else:
        cmd += ["--warmup", str(WARMUP_S)]
    trace = BUILD / "trace" / f"{workload}.json"
    if traced:
        trace.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: bench_e2e exceeded {RUN_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: bench_e2e exited {done.returncode}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    if traced:
        check = subprocess.run([sys.executable, str(ROOT / "tools" / "check_trace.py"),
                                str(trace)], stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, check=False)
        if check.returncode != 0:
            result["errors"].append(check.stdout.strip())
    golden = load_json(HERE / "golden.json")
    if not smoke and result["seed"] == str(golden["seed"]) and result["preset"] == golden["preset"]:
        want = golden["digests"].get(workload)
        if result["digest"] != want:
            result["errors"].append(f"digest {result['digest']} differs from golden {want}")
    result["correct"] = not result["errors"]
    return result


def metric_lines(result):
    yield f"{result['workload']} digest {result['digest']}"
    for name, m in sorted(result["metrics"].items()):
        tail = f" {m['tail']}={m['tail_value']:.6g}" if "tail" in m else ""
        yield f"{result['workload']} {name} {m['value']:.6g} {m['unit']} {m['n']}{tail}"


def report_errors(result):
    for e in result["errors"]:
        log(f"{result['workload']}: INCORRECT: {e}")
    if any(result["breakdown"].values()):
        log(f"{result['workload']}: not served by status: {result['breakdown']}")


# ------------------------------------------------------------------ one run

def contract_run(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()
    result = run_bench(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    for line in metric_lines(result):
        print(line)
    report_errors(result)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            result["correct"] = False
            log(f"{args.workload}: metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------------ full set

def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "build_type": "RelWithDebInfo",
            "threads": {w: threads_for(w) for w in WORKLOADS}}


def full_set(args):
    build()
    runs = []
    for k in range(args.sets):
        for workload in WORKLOADS:
            passes = [False, True] if args.traced or args.smoke else [False]
            for traced in passes:
                seconds = 1 if args.smoke else (args.seconds / 2 if traced else args.seconds)
                result = run_bench(workload, args.seed, seconds, traced, args.smoke)
                result["set"] = k
                runs.append(result)
                for line in metric_lines(result):
                    print(("traced " if traced else "") + line, flush=True)
                report_errors(result)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"machine": machine(), "runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    bad = [r["workload"] for r in runs if not r["correct"]]
    print(f"{len(runs)} runs, {len(bad)} incorrect; results in {out}")
    return 1 if bad else 0


# ------------------------------------------------------------------ compare

def bounds():
    spec = load_json(ROOT / "BENCHMARK.json")
    out = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out.update(EXTRA_BOUNDS)
    return out


def summarize(values):
    """(median, first quartile, third quartile) as statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summarize(values)
    return 0.0 if med == 0 else (q3 - q1) / med


def verdict(a, b, bound):
    """Compare B against A for a lower-is-better metric."""
    if not a or not b:
        return "missing"
    med_a, med_b = summarize(a)[0], summarize(b)[0]
    if bound == 0:
        return "worse" if med_b > med_a else "within bound"
    if max(b) < min(a):
        return "within bound"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if med_b > med_a * (1 + bound):
        return "worse"
    return "within bound"


def samples(doc):
    out = {}
    for run in doc["runs"]:
        if run.get("traced"):
            continue
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def compare(path_a, path_b):
    limits = bounds()
    a, b = samples(load_json(path_a)), samples(load_json(path_b))
    keys = sorted(k for k in set(a) | set(b) if k[1] in limits)
    print(f"{'workload':15} {'metric':14} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    failing = 0
    for key in keys:
        va, vb = a.get(key, []), b.get(key, [])
        v = verdict(va, vb, limits[key[1]])
        failing += v != "within bound"

        def fmt(values):
            if not values:
                return "-"
            med, q1, q3 = summarize(values)
            return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

        change = "-"
        if va and vb and summarize(va)[0] != 0:
            change = f"{summarize(vb)[0] / summarize(va)[0] - 1:+.1%}"
        print(f"{key[0]:15} {key[1]:14} {fmt(va):>32} {fmt(vb):>32} {change:>8}  {v}")
    return 1 if failing else 0


def main(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=str(BUILD / "results.json"))
    args = parser.parse_args(argv)
    try:
        return contract_run(args) if args.workload else full_set(args)
    except (BenchError, OSError, ValueError) as exc:
        log(f"run.py: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
