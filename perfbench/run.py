"""Benchmark of the repower package, run from the root of a source tree.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 15 --trace 0

Each workload runs in one process with a single closed-loop caller: the
next operation starts when the previous one returns.  The package is
imported from ``src/`` in place.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every public function of the package is wrapped, spans
are recorded, and the per-layer metrics are printed instead.  See
README.md in this directory for the workloads and the metrics.
"""
import argparse
import compileall
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time

from workloads import OUT_DIR, ROOT, SRC, child_env

SETUP_SAMPLES = 3
WORKLOADS = ("plan", "monitor", "verify", "cli")


def time_fresh_interpreter(code, samples=SETUP_SAMPLES):
    """Median wall time, in seconds, of a fresh interpreter running code."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q):
    """Linear-interpolated q-th percentile of values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Runs a workload's operations in whole rounds and checks each round.

    Outputs are checked when their round ends, outside the timed calls,
    and then dropped, so the benchmark holds no outputs that would slow
    the program's garbage collection.
    """

    def __init__(self, workload, ops, runner):
        self.workload = workload
        self.ops = ops
        self.runner = runner
        self.next = 0
        self.seen = {}      # for the checks that compare repeated runs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def next_round(self):
        n = self.workload.ROUND
        batch = [self.ops[(self.next + i) % len(self.ops)] for i in range(n)]
        self.next = (self.next + n) % len(self.ops)
        return batch

    def run_round(self, batch, on_op=None):
        """Latencies in ms of one round's operations."""
        latencies, outputs = [], []
        for op in batch:
            if on_op is not None:
                on_op()
            t0 = time.perf_counter()
            try:
                out = self.runner(op)
            except Exception as exc:  # counted as a failed operation
                out = exc
            latencies.append((time.perf_counter() - t0) * 1e3)
            outputs.append(out)
        for op, out in zip(batch, outputs):
            self._check(op, out)
        return latencies

    def _check(self, op, out):
        self.attempted += 1
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            problem = self.workload.check(op, out, self.seen)
            self.wrong += problem is not None
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {self.workload.describe(op)}: {problem}",
                      file=sys.stderr)

    def run(self, seconds, min_ops=0):
        """Whole rounds until `seconds` have passed and `min_ops` ran.

        Returns the latencies in ms and the operations, in order.
        """
        latencies, done = [], []
        start = time.perf_counter()
        while True:
            batch = self.next_round()
            latencies += self.run_round(batch)
            done += batch
            if time.perf_counter() - start >= seconds and \
                    len(done) >= min_ops:
                return latencies, done

    def run_paired(self, seconds, tracer):
        """Each round untraced and traced, alternating which goes first.

        Returns (traced time / untraced time, traced operations).
        Running the same operations both ways measures the tracing
        overhead free of the machine's drift.
        """
        plain_ms = traced_ms = 0.0
        traced_ops = 0
        start = time.perf_counter()
        rounds = 0
        while rounds % 2 or time.perf_counter() - start < seconds:
            batch = self.next_round()
            for traced in ((False, True) if rounds % 2 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        traced_ms += sum(self.run_round(batch,
                                                        tracer.next_op))
                    finally:
                        tracer.uninstall()
                    traced_ops += len(batch)
                else:
                    plain_ms += sum(self.run_round(batch))
            rounds += 1
        return traced_ms / plain_ms, traced_ops


def print_costs(workload, latencies, done):
    """Operation-cost histogram by kind, and where the percentiles fall."""
    by_kind = {}
    for ms, op in zip(latencies, done):
        by_kind.setdefault(workload.kind(op), []).append(ms)
    print(f"{'kind':<32}{'ops':>7}{'share':>7}{'p10 ms':>10}{'p50 ms':>10}"
          f"{'p90 ms':>10}")
    for name, values in sorted(by_kind.items(),
                               key=lambda kv: statistics.median(kv[1])):
        print(f"{name:<32}{len(values):>7}{len(values) / len(latencies):>7.1%}"
              + "".join(f"{percentile(values, q):>10.3f}"
                        for q in (10, 50, 90)))
    for q in (50, workload.TAIL):
        lo, hi = max(q - 2, 0), min(q + 2, 100)
        print(f"p{q}: {percentile(latencies, q):.3f} ms; p{lo} to p{hi} "
              f"spans {percentile(latencies, lo):.3f} to "
              f"{percentile(latencies, hi):.3f} ms")


def run_all(args):
    """Run every workload in a process of its own and list its metrics."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<32}{m['value']:>16.6g} {m['unit']}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repower" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repower'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workload = importlib.import_module(f"workloads.{args.workload}")
    ops = workload.make_ops(random.Random(args.seed))
    compileall.compile_dir(str(SRC / "repower"), quiet=1)

    if args.trace:
        import spans
        import_s = time_fresh_interpreter("import repower")
        tracer = spans.Tracer()
        loop = Loop(workload, ops, workload.in_process_runner())
        loop.run(0.0)   # one warm-up round
        overhead, n_traced = loop.run_paired(args.seconds, tracer)
        metrics = tracer.metrics(n_traced, import_s, overhead)
        n_spans = tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        for name in tracer.missing:
            print(f"trace: expected function {name} does not exist; "
                  f"the metrics that use it read 0")
        print(f"trace: {n_spans} spans over {n_traced} operations; "
              f"tracing overhead {100.0 * (overhead - 1.0):.1f}% against "
              f"the same operations untraced")
    else:
        setup_s = time_fresh_interpreter(workload.SETUP)
        runner = workload.runner()
        loop = Loop(workload, ops, runner)
        if workload.IN_PROCESS:
            loop.run(0.0)   # one warm-up round; a fresh process has none
        warm_up = loop.attempted
        # enough operations that ten lie beyond the tail percentile
        min_ops = math.ceil(1000.0 / (100.0 - workload.TAIL))
        latencies, done = loop.run(args.seconds, min_ops=min_ops)
        if workload.IN_PROCESS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = runner.peak_rss_kb
        metrics = {
            # wall time inside the calls; the checks between rounds are
            # the benchmark's own work
            "ops_per_s": (len(done) / (sum(latencies) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(latencies), "ms"),
            "op_ms_tail": (percentile(latencies, workload.TAIL), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        print_costs(workload, latencies, done)
        print(f"{args.workload}: {len(done)} timed operations after "
              f"{warm_up} warm-up operations, in {sum(latencies) / 1e3:.2f} "
              f"s; op_ms_tail is p{workload.TAIL}")
    result = {"correct": loop.wrong == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    suffix = "trace" if args.trace else "result"
    (OUT_DIR / f"{suffix}-{args.workload}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
