"""One pass of one workload, in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --pass P --trace 0|1
                                [--setup-only] [--self-test]

`run.py` starts one of these per pass, so every pass pays its own imports
and fills its own caches.  In-process workloads time each call into globkit
and check its answer afterwards; `cli-cold` times each `globkit` verb from
spawn to exit.  Between ops, outside the timed region, it times a fixed
reference loop (`Reference`), so that `run.py` can divide out the host's
speed.  It also times the loop just before set-up, so that `run.py` can
scale set-up time too.  With `--setup-only` the
worker times the loop and the set-up and stops.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS, cli_cold_verbs  # noqa: E402

SELF_TEST_WANT = "self-test: a deliberately wrong expected answer"

REF_EVERY_S = 1.0  # time the reference loop again once this much has passed


def reference_s():
    """Wall and CPU seconds for a fixed pure-Python loop: the host's speed now.

    The loop never changes, so a change to globkit leaves it alone, while the
    host's drift slows it as it slows the ops, and its wall time waits
    whenever other work holds the CPU, as theirs does.  It allocates nothing
    that outlives an iteration: a job that filled a dict of tuples was tried
    first, and its time depended on the state of the worker's heap, so that
    its median moved by 29% between runs of groupoid-compare.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(800000):
        acc += i * i % 7
    return time.perf_counter() - t0, time.process_time() - c0


class Reference:
    """Samples `reference_s()` at the start of a pass, between ops about every
    `REF_EVERY_S`, and at the end, never inside a timed op."""

    def __init__(self):
        self.wall, self.cpu = [], []
        self.sample()

    def sample(self):
        wall, cpu = reference_s()
        self.wall.append(wall)
        self.cpu.append(cpu)
        self._last = time.perf_counter()

    def between_ops(self):
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()


def _judge(got, want, index, self_test):
    if self_test and index == 0:
        want = (SELF_TEST_WANT, want)
    if got == want:
        return None
    return "got %.200r, want %.200r" % (got, want)


def globkit_namespace():
    """globkit's modules, as attributes and as the dict `modules`."""
    sys.path.insert(0, SRC)
    mods = spans.globkit_modules()
    return types.SimpleNamespace(modules=mods, **mods)


def in_process_pass(args):
    ref = Reference()  # its first sample, just before set-up, scales set-up
    t0 = time.perf_counter()
    g = globkit_namespace()
    setup, make_ops = WORKLOADS[args.workload]
    ctx = setup(g)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s, "setup_ref_s": ref.wall[0]}

    tracer = spans.Tracer()
    missing = spans.install(tracer) if args.trace else []
    before = spans.cache_counts()
    ops, failures = [], []
    for i, op in enumerate(make_ops(g, ctx, args.seed, args.pass_index)):
        ref.between_ops()
        tracer.op = i
        tracer.active = bool(args.trace)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as e:  # a failed operation is counted, not fatal
            result, error = None, "raised %r" % (e,)
        t1, c1 = time.perf_counter(), time.process_time()
        tracer.active = False
        if error is None:
            try:
                got, want = op.verdict(result)
                error = _judge(got, want, i, args.self_test)
            except Exception as e:
                error = "verdict raised %r" % (e,)
        ops.append([op.name, t1 - t0, c1 - c0, error is None])
        if error:
            failures.append("%s: %s" % (op.name, error))
    ref.sample()
    after = spans.cache_counts()
    counts = dict(tracer.counts)
    counts.update({k: after[k] - before[k] for k in after})
    out = {
        "setup_s": setup_s,
        "setup_ref_s": ref.wall[0],
        "ops": ops,
        "failures": failures,
        "ref_s": ref.wall,
        "ref_cpu_s": ref.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out.update(self_time=tracer.self_time, counts=counts, spans=tracer.spans,
                   missing=missing)
    return out


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cli_pass(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if args.setup_only:
        ref_s, _ = reference_s()
        code = ("import time; t = time.perf_counter(); import globkit.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return {"setup_s": float(proc.stdout.split()[-1]), "setup_ref_s": ref_s}

    workdir = os.path.join(HERE, "out", "cli-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    ops, failures = [], []
    self_time = {m: 0.0 for m in spans.SELF_METRICS}
    counts = {m: 0 for m in spans.COUNT_METRICS}
    span_list, missing = [], set()
    ref = Reference()
    try:
        verbs = cli_cold_verbs(globkit_namespace(), workdir, args.seed, args.pass_index)
        for i, (name, argv, want) in enumerate(verbs):
            ref.between_ops()
            dump = os.path.join(workdir, "trace-%d.json" % i)
            if args.trace:
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), dump] + argv
            else:
                cmd = [sys.executable, "-m", "globkit.cli"] + argv
            c0, t0 = _child_cpu(), time.perf_counter()
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                                  text=True, timeout=120)
            t1, c1 = time.perf_counter(), _child_cpu()
            error = _judge((proc.returncode, proc.stdout.strip()), (0, want), i,
                           args.self_test)
            ops.append([name, t1 - t0, c1 - c0, error is None])
            if error:
                failures.append("%s: %s; stderr %.200r" % (name, error, proc.stderr))
            if args.trace and os.path.exists(dump):
                with open(dump) as fh:
                    child = json.load(fh)
                for k, v in child["self_time"].items():
                    self_time[k] += v
                for k, v in child["counts"].items():
                    counts[k] += v
                span_list.extend([s[0], s[1], s[2], s[3], i] for s in child["spans"])
                missing.update(child["missing"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref.sample()
    out = {"ops": ops, "failures": failures, "ref_s": ref.wall, "ref_cpu_s": ref.cpu,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if args.trace:
        out.update(self_time=self_time, counts=counts, spans=span_list,
                   missing=sorted(missing))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    result = cli_pass(args) if args.workload == "cli-cold" else in_process_pass(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
