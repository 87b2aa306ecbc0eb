"""globkit's benchmark: closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--self-test]

Run from the root of a checkout.  One client issues one operation, waits
for its answer, and issues the next.  A run repeats passes of the workload
until `--seconds` is used up; every pass starts a fresh interpreter
(`worker.py`) with inputs drawn from the seed and the pass number, so no
cache outlives a pass and no input repeats within one.  Every answer is
checked against an oracle outside the timed region.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones: `setup_s` as a median scaled to a nominal host speed, and the others
as means over the run's passes, times relative to the host's speed.  With
`--trace 1` traced and untraced passes alternate and the metrics are
the per-layer ones of the first traced pass, plus the tracing overhead.
They also include two latencies of the run's untraced passes, which are
too noisy to bound: `op_p50_s`, the median of every op, and `op_max_s`, the
median over passes of the slowest op.  A readable summary goes to standard
error, and the full record (every op, every span) to `perfbench/out/`.
`--self-test` makes one expected answer wrong in each pass, to show that a
wrong answer is caught.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import CLI_VERB_NAMES, WORKLOADS  # noqa: E402

WORKLOAD_NAMES = list(WORKLOADS) + ["cli-cold"]

END_TO_END = [("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"), ("peak_rss_mb", "MB")]

PER_LAYER = (
    [(m, "s") for m in spans.SELF_METRICS]
    + [(m, "count") for m in spans.COUNT_METRICS]
    + [("cli.%s_s" % v, "s") for v in CLI_VERB_NAMES]
    + [("cli.import_s", "s"), ("cli.python_s", "s"), ("host.calib_s", "s"),
       ("host.nproc", "count"), ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
       ("trace.overhead", "ratio"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_s", "s"),
       ("op_max_s", "s")]
)

SETUP_SAMPLES = 9       # set-up is timed at least this often per run
NOMINAL_REF_S = 0.09    # the reference loop's wall time on the baseline host
WORKER_TIMEOUT_S = 75   # a pass that takes longer has hung


def run_worker(workload, args, pass_index, trace, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--pass", str(pass_index), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.self_test:
        cmd.append("--self-test")
    # The worker leads its own process group, so that a hung pass is stopped
    # together with any `globkit` verb it started.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d): %s"
                           % (proc.returncode, err.strip()[-2000:]))
    return json.loads(out.strip().splitlines()[-1])


def pass_summary(res):
    lat = [op[1] for op in res["ops"]]
    slowest = max(res["ops"], key=lambda op: op[1])
    return {"wall_s": sum(lat), "cpu_s": sum(op[2] for op in res["ops"]),
            "op_max_s": slowest[1],
            "op_max_name": slowest[0], "peak_rss_mb": res["peak_rss_mb"],
            "ops": len(lat)}


def timings(untraced):
    """Mean wall and CPU seconds of a pass and of the reference loop, and the
    loop's median wall time."""
    summaries = [pass_summary(r) for r in untraced]
    ref_wall = [x for r in untraced for x in r["ref_s"]]
    return {"wall_s": statistics.fmean(s["wall_s"] for s in summaries),
            "cpu_s": statistics.fmean(s["cpu_s"] for s in summaries),
            "ref_s": statistics.median(ref_wall),
            "ref_wall_s": statistics.fmean(ref_wall),
            "ref_cpu_s": statistics.fmean(x for r in untraced for x in r["ref_cpu_s"])}


def per_layer_metrics(args, traced, untraced, times, imports, python_s):
    first = traced[0]
    wall = sum(op[1] for op in first["ops"])
    values = dict(first["self_time"])
    values.update(first["counts"])
    for verb in CLI_VERB_NAMES:
        values["cli.%s_s" % verb] = 0.0
    if args.workload == "cli-cold":
        for name, seconds, _, _ in first["ops"]:
            values["cli.%s_s" % name] = seconds
    values.update({
        "cli.import_s": statistics.median(s["setup_s"] for s in imports),
        "cli.python_s": python_s,
        "host.calib_s": times["ref_s"],
        "host.nproc": os.cpu_count(),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(first["self_time"].values()),
        "trace.overhead": (statistics.median(pass_summary(r)["wall_s"] for r in traced)
                           / statistics.median(pass_summary(r)["wall_s"] for r in untraced)),
        "wall_s": times["wall_s"],
        "cpu_s": times["cpu_s"],
        "op_p50_s": statistics.median(op[1] for r in untraced for op in r["ops"]),
        "op_max_s": statistics.median(pass_summary(r)["op_max_s"] for r in untraced),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def scaled_setup_s(setups):
    """Median set-up time, each sample scaled by the reference loop timed just
    before it, to a host on which the loop takes `NOMINAL_REF_S`."""
    return NOMINAL_REF_S * statistics.median(s["setup_s"] / s["setup_ref_s"]
                                              for s in setups)


def cold_starts(args):
    """Cold `import globkit.cli` and bare interpreter start, for the cli floor."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    imports, starts = [], []
    for _ in range(SETUP_SAMPLES):
        imports.append(run_worker("cli-cold", args, 0, 0, setup_only=True))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    return imports, statistics.median(starts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "globkit", "__init__.py")):
        print("error: no globkit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    passes, errors = [], []     # passes: (traced, worker result)
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        try:
            passes.append((traced, run_worker(args.workload, args, len(passes) + len(errors),
                                              int(traced))))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            errors.append(str(e))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        need_traced = args.trace and not any(t for t, _ in passes)
        out_of_time = elapsed + last > args.seconds
        if len(errors) > 1 or (out_of_time and (errors or (passes and not need_traced))):
            break

    untraced = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    attempted = sum(len(r["ops"]) for _, r in passes) + len(errors)
    failed = sum(1 for _, r in passes for op in r["ops"] if not op[3]) + len(errors)
    for msg in errors + [f for _, r in passes for f in r["failures"]][:20]:
        print("FAILED %s" % msg, file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    imports, python_s = cold_starts(args) if args.workload == "cli-cold" or args.trace \
        else (None, None)
    if args.workload == "cli-cold":
        setups = imports
    else:
        setups = [{k: r[k] for k in ("setup_s", "setup_ref_s")} for r in untraced + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(args.workload, args, 0, 0, setup_only=True))

    summaries = [pass_summary(r) for r in untraced]
    times = timings(untraced)
    if args.trace:
        metrics = per_layer_metrics(args, traced, untraced, times, imports, python_s)
    else:
        # The host's speed drifts by tens of percent over minutes, and at
        # times other work holds the CPU; either moves a run more than any
        # bound allows.  Pass times, averaged over every pass, are therefore
        # divided by the mean time of the reference loop timed beside them:
        # wall time by its wall time, which waits as the ops wait, and CPU
        # time by its CPU time.  A median of the loop would drop the samples
        # that waited.  Set-up is scaled by the loop timed just before it.
        values = {"setup_s": scaled_setup_s(setups),
                  "wall_ref": times["wall_s"] / times["ref_wall_s"],
                  "cpu_ref": times["cpu_s"] / times["ref_cpu_s"],
                  "peak_rss_mb": statistics.fmean(s["peak_rss_mb"] for s in summaries)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    host = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "ref_s": times["ref_s"], "platform": platform.platform()}
    slowest = max(summaries, key=lambda s: s["op_max_s"])
    print("workload %s seed %d: %d passes (%d traced), %d ops per pass, slowest op %r"
          % (args.workload, args.seed, len(passes), len(traced), summaries[0]["ops"],
             slowest["op_max_name"]), file=sys.stderr)
    print("host: python %s, nproc %d, reference loop %.4f s; untraced pass %.4f s wall,"
          " %.4f s CPU" % (host["python"], host["nproc"], times["ref_s"], times["wall_s"],
                           times["cpu_s"]), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-32s %14.6f %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print("  %-32s %14.6f (%d of %d ops)" % ("error_rate", failed / attempted, failed,
                                             attempted), file=sys.stderr)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"args": vars(args), "host": host, "metrics": metrics, "setups": setups,
              "passes": [dict(r, traced=t) for t, r in passes], "errors": errors,
              "summaries": summaries}
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                              args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
