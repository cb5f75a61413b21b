#!/usr/bin/env python3
"""Build and run the FEATHER repo benchmark (see benchmark/README.md).

One workload:
    python3 benchmark/run.py --workload model_search --seed 1 --seconds 30 --trace 0
All four workloads once (the default), or K seeds each with quartiles:
    python3 benchmark/run.py [--runs K] [--out results.json]
Compare two result files written by --out:
    python3 benchmark/run.py --compare before.json after.json

Every metric is printed by name with its unit. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The
command exits 1 when any correctness check fails and 2 when the benchmark
cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
EXE = BUILD / "feather_benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]
DEFAULT_SEED = 1
# Values that are the same on every run and every seed; any change is a
# change to the modelled hardware, not noise.
DETERMINISTIC = {"sim_cycles"}
# Printed beside the end-to-end metrics, deterministic too, but not declared.
SHOWN_DETERMINISTIC = {"fig12_speedup", "p99_vus", "rejected_frac"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no FEATHER source tree at {ROOT} (CMakeLists.txt and src/ needed)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "feather_benchmark", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_file = None
    if trace:
        trace_file = BUILD / f"trace-{workload}-{seed}.json"
        cmd += ["--trace", str(trace_file)]
    # A run measures for @p seconds; set-up, the traced run's layer probes
    # and whole rounds past the deadline come on top.
    timeout = 2 * seconds + 90
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} seed {seed} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["trace_file"] = str(trace_file) if trace_file else None
    return result


def select(result, declared):
    """The declared metrics, in BENCHMARK.json order; a missing metric or
    a unit that disagrees with the declaration fails the run."""
    out = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            result["correct"] = False
            result["violations"].append(f"metric {m['name']} missing or "
                                        f"not in {m['unit']}")
            continue
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def samples(result, name):
    """How many measurements stand behind an end-to-end metric."""
    metrics = result["metrics"]
    rounds = int(metrics["rounds"]["value"])
    if name == "ops_per_s":
        return f"{rounds} rounds"
    if name.startswith("op_ms_"):
        per_round = int(metrics["op_samples"]["value"]) // rounds
        return f"{per_round} ops x {rounds} rounds"
    if name == "setup_s":
        return f"{int(metrics['setups']['value'])} set-ups"
    if name == "peak_rss_mb":
        return "1 process"
    return "deterministic"


def print_run(result, declared, trace):
    print(f"== {result['workload']} seed={result['seed']} "
          f"inputs_sha256={result['inputs_sha256']}")
    attempted = max(1, result["attempted"])
    print(f"   correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / attempted:.6g}")
    for v in result["violations"]:
        print(f"   VIOLATION {v}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        n = "" if trace else f"  (n = {samples(result, m['name'])})"
        print(f"   {m['name']:<48} {got['value']:>16.6g} {got['unit']}{n}")
    if not trace:
        names = {m["name"] for m in declared} | {"rounds", "op_samples",
                                                 "setups"}
        for name, got in result["metrics"].items():
            if name not in names:
                kind = "deterministic" if name in SHOWN_DETERMINISTIC else "not gated"
                print(f"   {name:<48} {got['value']:>16.6g} {got['unit']}  ({kind})")
    else:
        print(f"   trace written to {result['trace_file']}; self time per span:")
        for name, s in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"     {name:<30} {s * 1e3:12.3f} ms")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarize(workload, runs):
    """Median and quartiles per end-to-end metric over @p runs; the
    deterministic metrics must be identical across them."""
    ok = True
    print(f"== {workload}: {len(runs)} run(s), seeds "
          f"{runs[0]['seed']}..{runs[-1]['seed']}")
    print(f"   {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'IQR/med':>8} {'bound':>6}")
    for m in END_TO_END:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        s = spread(vals)
        flag = ""
        if m["name"] in DETERMINISTIC and len(set(vals)) > 1:
            flag = "  NOT IDENTICAL"
            ok = False
        elif s > m["bound"]:
            flag = "  spread > bound"
        print(f"   {m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{s:>8.4f} {m['bound']:>6} {m['unit']}{flag}")
    return ok


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    regressions = 0
    print(f"{'workload':<18} {'metric':<12} {'A median':>13} {'B median':>13} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for m in END_TO_END:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            if m["name"] in DETERMINISTIC:
                verdict = "identical" if set(va) == set(vb) else "CHANGED"
            elif max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved (IQR > bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif -worse > max(spread(va), spread(vb)):
                verdict = "better"
            else:
                verdict = "within bound"
            if verdict in ("REGRESSION", "CHANGED"):
                regressions += 1
            print(f"{workload:<18} {m['name']:<12} {ma:>13.6g} {mb:>13.6g} "
                  f"{worse:>+8.4f} {m['bound']:>6}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, seeds seed..seed+runs-1")
    p.add_argument("--out", help="write every run's result to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))

    build()
    declared = PER_LAYER if args.trace else END_TO_END
    workloads = args.workload or WORKLOADS
    results = {w: [] for w in workloads}
    correct = True
    for w in workloads:
        for k in range(args.runs):
            r = run_once(w, args.seed + k, args.seconds, args.trace)
            r["selected"] = select(r, declared)
            print_run(r, declared, args.trace)
            results[w].append(r)
            correct = correct and r["correct"]
        if args.runs > 1 and not args.trace:
            correct = summarize(w, results[w]) and correct
    runs = [r for w in workloads for r in results[w]]
    if len(runs) == 1:
        metrics = runs[0]["selected"]
    else:
        # Several runs: each workload's median, named <workload>.<metric>.
        metrics = {}
        for w in workloads:
            for m in declared:
                vals = [r["selected"][m["name"]]["value"] for r in results[w]
                        if m["name"] in r["selected"]]
                if vals:
                    metrics[f"{w}.{m['name']}"] = {
                        "value": statistics.median(vals), "unit": m["unit"]}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"nproc": os.cpu_count(), "seconds": args.seconds,
             "trace": args.trace, "runs": results}, indent=1) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
