"""adaptnn benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload iris-plus-cv --seed 7 --seconds 40 --trace 0

BLAS is pinned to one thread. The workload is built from the seed (see
``workloads.py``) and identical passes repeat for about ``--seconds``
seconds, with the outputs of every pass checked. The last line of standard
output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: median over fresh processes of the time from process start
  to exit after importing adaptnn and building the workload's inputs;
- ``run_ratio``: the program's median CPU seconds per untraced pass over
  the frozen baseline's, both measured at the same time (see below);
- ``accuracy_mean``: the record's mean best-K test accuracy (CV workloads)
  or the best-K held-out accuracy (``fit-n1500``);
- ``peak_rss_mb``: ``ru_maxrss`` of the process that runs the program.

Why a ratio and not seconds: the machine this benchmark was built on
(2 cores of a shared host) switches each core between a fast and a slow
state, for stretches from under a second to minutes, and in the slow state
the same pass takes up to 1.7 times as long. Hardware counters are not
available there, and a run's seconds say mostly how much of it fell in
slow stretches. So ``--trace 0`` starts two worker processes pinned to the
same core: one runs passes of the program, the other the same passes of
``baseline/adaptnn_base``, a frozen copy of ``src/adaptnn`` as of the
commit that defined this benchmark. The kernel time-slices the two every
few milliseconds, so both see the same mix of fast and slow stretches, and
each times its passes in its own CPU seconds. The ratio of their medians
cancels the machine's state: it is 1 at that commit, and below 1 when the
program is faster than it was. Each side's median CPU seconds per pass are
printed on the summary line.

``error_rate`` (failed over attempted passes) is carried by ``failed`` and
``attempted`` and printed on the summary line; it is 0 on a correct
program, so it has no relative bound. With ``--trace 1`` one process runs
the program alone, untraced and traced passes alternate, and the metrics
are the per-layer ones from ``tracer.py``, the tracing overhead and the
span accounting; the spans are written to ``.perfbench_out/`` at exit.

``--write-reference --seed 7`` stores one pass's outputs as the reference
that later runs at the default seed must match; use it only for a change
that is meant to alter results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before numpy is first imported, here and in the set-up processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracer  # noqa: E402  (stdlib only; this script's directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BASELINE_DIR = HERE / "baseline"
WORKERS = ("program", "baseline")
SETUP_SAMPLES = 7
MAX_PASSES = 1000
MIN_COVERAGE = 0.95


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", choices=WORKERS, help=argparse.SUPPRESS)
    p.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def _import_workloads():
    """Import adaptnn from this checkout's src/ and the workloads built on
    it; exit nonzero when the checkout has no program to measure."""
    if not (SRC / "adaptnn" / "__init__.py").is_file():
        sys.exit("perfbench: no adaptnn package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import adaptnn
    if Path(adaptnn.__file__).resolve().parent != SRC / "adaptnn":
        sys.exit("perfbench: imported adaptnn from %s, not from %s"
                 % (adaptnn.__file__, SRC))
    import workloads
    return workloads


def _setup_seconds(args):
    """Median wall time of fresh processes that import adaptnn and build the
    workload's inputs, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _git_sha():
    """HEAD's commit read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "adaptnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16]}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _quantile(values, q):
    """Linearly interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _capture(reports):
    """Wrapper factory for train() that keeps every report it returns."""
    def make(train):
        def captured(*args, **kwargs):
            report = train(*args, **kwargs)
            reports.append(report)
            return report
        return captured
    return make


class Runner:
    """Runs one workload's passes, untraced or traced, and checks each."""

    def __init__(self, workloads, workload, clock=time.perf_counter):
        self.workloads = workloads
        self.workload = workload
        self.clock = clock
        self.tracer = tracer.Tracer()
        self.first_summary = None
        self.accuracy = 0.0
        self.attempted = self.failed = 0

    def run_pass(self, traced):
        """One pass; returns (seconds by self.clock, passed). The checks
        run after the clock stops, on the train() reports the pass produced."""
        reports = []
        if traced:
            self.tracer.begin_pass(reports.append)
            self.tracer.install()
            undo = self.tracer.uninstall
        else:
            undo = tracer.patch("adaptnn.optimizer", "train", _capture(reports))
        self.attempted += 1
        out, raised = None, None
        t0 = self.clock()
        try:
            out = self.workload.run_pass()
        except Exception:
            raised = traceback.format_exc()
        seconds = self.clock() - t0
        if undo is not None:
            undo()
        if raised is not None:
            self.fail(["pass raised:\n" + raised])
            return seconds, False
        errors = self.workload.check(out, reports)
        summary = self.workload.summary(out)
        if self.first_summary is None:
            self.first_summary = summary
            self.accuracy = self.workload.accuracy(out)
            errors += self.workloads.reference_errors(self.workload, summary)
        elif summary != self.first_summary:
            errors.append("outputs differ from the first pass of this run")
        if errors:
            self.fail(errors)
        return seconds, not errors

    def fail(self, errors):
        self.failed += 1
        for e in errors:
            print("check failed: %s" % e, file=sys.stderr)

    def _more(self, started, seconds, durations):
        """Start another pass only if it should end within the run time."""
        if len(durations) >= MAX_PASSES:
            return False
        elapsed = time.perf_counter() - started
        return elapsed + statistics.median(durations) <= seconds

    def run_traced(self, seconds):
        """Alternate untraced and traced passes, at least one of each."""
        untraced, traced, stats = [], [], []
        started = time.perf_counter()
        while not traced or self._more(started, seconds, untraced + traced):
            is_traced = len(traced) < len(untraced)
            elapsed, ok = self.run_pass(traced=is_traced)
            if not is_traced:
                untraced.append(elapsed)
                continue
            traced.append(elapsed)
            stats.append(self.tracer.pass_stats(elapsed))
            errors = accounting_errors(stats[-1])
            if errors and ok:
                self.fail(errors)
        return untraced, traced, stats


def _timed_loop(run_one, started, seconds):
    """Call run_one, which returns the CPU seconds of one pass, until the
    next call would end more than ``seconds`` of wall time after
    ``started``; at least once."""
    cpu, wall = [], []
    while len(cpu) < MAX_PASSES and (
            not cpu or time.perf_counter() - started + statistics.median(wall) <= seconds):
        t0 = time.perf_counter()
        cpu.append(run_one())
        wall.append(time.perf_counter() - t0)
    return cpu


def run_worker(args, workloads):
    """One side of the paired run, pinned to ``args.cpu``: set-up, a
    warm-up pass, then timed passes, within ``args.seconds`` of its start;
    prints one JSON line."""
    started = time.perf_counter()
    os.sched_setaffinity(0, {args.cpu})
    if args.worker == "program":
        runner = Runner(workloads, workloads.build(args.workload, ROOT, args.seed),
                        clock=time.process_time)

        def run_one():
            return runner.run_pass(traced=False)[0]
    else:
        sys.path.insert(0, str(BASELINE_DIR))
        import adaptnn_base
        baseline = workloads.build(args.workload, ROOT, args.seed, lib=adaptnn_base)

        def run_one():
            t0 = time.process_time()
            baseline.run_pass()
            return time.process_time() - t0
    run_one()  # warm-up; the program's is checked like every other pass
    out = {"cpu_s": _timed_loop(run_one, started, args.seconds)}
    if args.worker == "program":
        out.update(attempted=runner.attempted, failed=runner.failed,
                   accuracy=runner.accuracy,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


def run_paired(args):
    """Run the program and baseline workers side by side on one core and
    return their results, program first. Exits if either fails."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--cpu", str(min(os.sched_getaffinity(0)))]
    procs = []
    try:
        for side in WORKERS:
            procs.append(subprocess.Popen(cmd + ["--worker", side], cwd=ROOT,
                                          stdout=subprocess.PIPE, text=True))
        outs = [p.communicate()[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for side, p in zip(WORKERS, procs):
        if p.returncode != 0:
            sys.exit("perfbench: the %s worker exited with %d" % (side, p.returncode))
    return [json.loads(o.strip().splitlines()[-1]) for o in outs]


def accounting_errors(stat):
    """The top-level spans of a traced pass must cover its wall time, and
    the layers' self times must add up to the top-level time."""
    errors = []
    if not MIN_COVERAGE <= stat["coverage"] <= 1.0 + 1e-9:
        errors.append("top-level layer spans cover %.3f of the traced run_s"
                      % stat["coverage"])
    if abs(stat["self_sum_s"] - stat["top_level_s"]) > 1e-6 * max(1.0, stat["top_level_s"]):
        errors.append("layer self times sum to %.6f s, top-level spans to %.6f s"
                      % (stat["self_sum_s"], stat["top_level_s"]))
    return errors


def layer_metrics(tr, untraced, traced, stats):
    """Per-layer metrics: times are medians over the traced passes, counts
    come from the last one. A hook with nothing to wrap reports nothing."""
    med = statistics.median
    metrics = {}

    def put(hook, name, value, unit):
        if hook not in tr.absent:
            metrics[name] = _metric(value, unit)

    last = stats[-1]
    for hook in tr.names:
        put(hook, hook + ".calls", last["calls"][hook], "count")
        put(hook, hook + ".s", med(s["s"][hook] for s in stats), "s")
    for hook in ("metric.psd_project", "optimizer.train"):
        put(hook, hook + ".self_s", med(s["self_s"][hook] for s in stats), "s")
    put("bench.run_experiment", "bench.self_s",
        med(s["self_s"]["bench.run_experiment"] for s in stats), "s")
    train_ms = last["train_ms"] or [0.0]
    put("optimizer.train", "optimizer.train.ms_p50", med(train_ms), "ms")
    put("optimizer.train", "optimizer.train.ms_p90", _quantile(train_ms, 0.9), "ms")
    counts = last["counts"]
    put("optimizer.train", "objective.pairs",
        counts["pairs"] / max(counts["fits"], 1), "count")
    put("optimizer.train", "optimizer.iterations", counts["iterations"], "count")
    put("optimizer.train", "optimizer.accept_ratio",
        counts["accepted"] / max(counts["iterations"], 1), "ratio")
    put("classifier.accuracy", "classifier.queries", counts["queries"], "count")
    metrics["trace.run_s"] = _metric(med(traced), "s")
    metrics["trace.untraced_run_s"] = _metric(med(untraced), "s")
    metrics["trace.overhead_s"] = _metric(med(traced) - med(untraced), "s")
    metrics["trace.coverage"] = _metric(med(s["coverage"] for s in stats), "ratio")
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.NAMES:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.NAMES)))
    if args.write_reference:
        workloads.write_reference(workloads.build(args.workload, ROOT, args.seed))
        print("reference for %s written to %s" % (args.workload, workloads.REFERENCE_PATH))
        return 0
    if args.setup_only:
        workloads.build(args.workload, ROOT, args.seed)
        return 0
    if args.worker:
        return run_worker(args, workloads)

    print("env: " + json.dumps(_environment(), sort_keys=True))
    if args.trace:
        runner = Runner(workloads, workloads.build(args.workload, ROOT, args.seed))
        runner.run_pass(traced=False)  # warm-up, checked like every other pass
        untraced, traced, stats = runner.run_traced(args.seconds)
        metrics = layer_metrics(runner.tracer, untraced, traced, stats)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
        runner.tracer.write_spans(spans)
        print("absent hooks: %s" % (", ".join(runner.tracer.absent) or "none"))
        print("spans written to %s" % spans.relative_to(ROOT))
        durations = untraced + traced
        print("passes: %d, seconds per pass: %s"
              % (len(durations), " ".join("%.3f" % d for d in durations)))
        attempted, failed = runner.attempted, runner.failed
    else:
        setup_s = _setup_seconds(args)
        program, baseline = run_paired(args)
        mine, base = (statistics.median(r["cpu_s"]) for r in (program, baseline))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_ratio": _metric(mine / base, "ratio"),
            "accuracy_mean": _metric(program["accuracy"], "fraction"),
            "peak_rss_mb": _metric(program["peak_rss_mb"], "MB"),
        }
        for side, r in zip(WORKERS, (program, baseline)):
            print("%s: %d passes, median %.4f CPU s, CPU seconds per pass: %s"
                  % (side, len(r["cpu_s"]), statistics.median(r["cpu_s"]),
                     " ".join("%.3f" % d for d in r["cpu_s"])))
        attempted, failed = program["attempted"], program["failed"]
    print("%s seed=%d: %s error_rate=%.4f (%d/%d passes failed)"
          % (args.workload, args.seed,
             " ".join("%s=%.6g%s" % (k, v["value"], v["unit"]) for k, v in metrics.items()),
             failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
