"""Run every workload over sets of seeds and summarize, as JSON on stdout.

    python3 perfbench/baseline.py > perfbench/baseline.json

Each run measures for the `run_seconds` of BENCHMARK.json.  For each
workload it runs `run.py --trace 0` once per seed of two sets of ten seeds,
as a later change is measured against the parent.  Then it runs
`run.py --trace 1` twice with the first seed.  It reports:

- per set of seeds and end-to-end metric, the median, the quartiles and the
  spread, which is (q3 - q1) / median as `statistics.quantiles(values, n=4)`
  gives them;
- the same for the unadjusted pass times `wall_s` and `cpu_s` and for the
  reference loop `host.calib_s`, whose ratio the end-to-end times are;
- how far the second set's median lies from the first's, as a share of the
  first's (`median_shift`);
- the exact counts of both traced runs, and whether they are identical;
- per-op latency quartiles over the first set's untraced passes, for the
  ops that the hand-timed ROADMAP baselines name, and span quartiles from
  the traced runs for the calls that no op makes alone.  Two of those
  baselines take over 10 s each and are in no workload; they are timed
  three times apiece, each in a fresh interpreter.  A figure whose ROADMAP
  value lies further from the median than the quartile distance is flagged.

Runs are sequential; run nothing else on the machine meanwhile.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES  # noqa: E402
from spans import COUNT_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]

SEED_SETS = [list(range(1, 11)), list(range(11, 21))]

# (workload, op name, ROADMAP item 1 hand timing in seconds)
ROADMAP_OPS = [
    ("tower-scripts", "stdlib(4)", 0.07),
    ("tower-scripts", "stdlib(6)", 0.16),
    ("strict-models", "build_strict KG1:S3", 0.23),
    ("strict-models", "build_strict KG1:Z8", 0.72),
    ("strict-models", "check KG1:S3", 0.23),
    ("strict-models", "check KG1:Z8", 0.72),
    ("strict-models", "weak_equiv collapse S3->point", 0.013),
]

# ROADMAP gives these two as a ceiling ("at most 13 ms"), not as a value
AT_MOST = {"weak_equiv collapse S3->point", "homotopy.pi_groupoid"}

# (workload, span name, ROADMAP item 1 hand timing in seconds), from traced runs
ROADMAP_SPANS = [
    ("strict-models", "homotopy.pi_groupoid", 0.013),
]

# (name, ROADMAP item 1 hand timing in seconds, program printing its seconds)
_S3_GROUPOID = ("import sys, time; sys.path.insert(0, 'src'); "
                "from globkit import coherator, gpd, groups; "
                "X = gpd.connected_groupoid(2, groups.by_name('S3')); ")
ROADMAP_ONE_OFF = [
    ("path_object connected(2,S3), 24 arrows", 14.0, _S3_GROUPOID
     + "t = time.perf_counter(); gpd.path_object(X); print(time.perf_counter() - t)"),
    ("compare connected(2,S3)", 14.0, _S3_GROUPOID
     + "tower, bundle = coherator.stdlib(4); "
     "interp = gpd.TowerGpdInterp(tower).interpret_all(); "
     "t = time.perf_counter(); gpd.compare(X, tower, bundle, interp); "
     "print(time.perf_counter() - t)"),
]
ONE_OFF_REPEATS = 3


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed: %s" % (" ".join(cmd), proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(HERE, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(record_path) as fh:
        return result, json.load(fh)


def against_roadmap(samples, hand, at_most=False):
    q = quartiles(samples)
    q["roadmap_s"] = hand
    off = q["median"] - hand if at_most else abs(hand - q["median"])
    q["disagrees"] = off > q["q3"] - q["q1"]
    return q


def one_off(program):
    proc = subprocess.run([sys.executable, "-c", program], cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    return float(proc.stdout.split()[-1])


def measure_set(w, seeds, op_times):
    """Untraced runs of one workload, one per seed, summarized."""
    metrics, correct = {}, True
    host = {"host.calib_s": [], "wall_s": [], "cpu_s": []}
    for seed in seeds:
        result, record = run_once(w, seed, SECONDS, 0)
        correct = correct and result["correct"]
        host["host.calib_s"].append(record["host"]["ref_s"])
        for name in ("wall_s", "cpu_s"):
            host[name].append(statistics.fmean(s[name] for s in record["summaries"]))
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        if op_times is not None:
            for p in record["passes"]:
                for name, seconds, _, _ in p["ops"]:
                    op_times.setdefault(name, []).append(seconds)
    return correct, {"seeds": seeds,
                     "end_to_end": {k: quartiles(v) for k, v in metrics.items()},
                     "unadjusted": {k: quartiles(v) for k, v in host.items()}}


def main():
    out = {"host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
           "seconds": SECONDS, "workloads": {}}
    for w in WORKLOAD_NAMES:
        op_times, sets, correct = {}, [], True
        for i, seeds in enumerate(SEED_SETS):
            ok, summary = measure_set(w, seeds, op_times if i == 0 else None)
            correct = correct and ok
            sets.append(summary)
        first = sets[0]["end_to_end"]
        shift = {k: (q["median"] - first[k]["median"]) / first[k]["median"]
                 for k, q in sets[1]["end_to_end"].items()}
        traced = [run_once(w, SEED_SETS[0][0], SECONDS, 1) for _ in range(2)]
        counts = [{k: t["metrics"][k]["value"] for k in COUNT_METRICS} for t, _ in traced]
        span_times = {}
        for _, record in traced:
            for p in record["passes"]:
                for name, start, end, _, _ in p.get("spans", ()):
                    span_times.setdefault(name, []).append(end - start)
        out["workloads"][w] = {
            "correct": correct and all(t["correct"] for t, _ in traced),
            "sets": sets,
            "median_shift": shift,
            "exact_counts": counts[0],
            "exact_counts_repeat": counts[0] == counts[1],
            "roadmap_ops": {},
        }
        roadmap = out["workloads"][w]["roadmap_ops"]
        for wl, name, hand in ROADMAP_OPS:
            if wl == w and name in op_times:
                roadmap[name] = against_roadmap(op_times[name], hand, name in AT_MOST)
        for wl, name, hand in ROADMAP_SPANS:
            if wl == w and name in span_times:
                roadmap[name] = against_roadmap(span_times[name], hand, name in AT_MOST)
    out["roadmap_one_off"] = {
        name: against_roadmap([one_off(program) for _ in range(ONE_OFF_REPEATS)], hand)
        for name, hand, program in ROADMAP_ONE_OFF}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
