"""End-to-end benchmark of the algval command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a single closed-loop client: it calls
``algval.cli.run(argv)`` in-process on generated problem files and
starts the next op (one CLI command on one input) only after the
previous one returns.  The workload's ops form a pass; after the
first instance's ops have run once untimed as a warm-up, passes repeat,
each with fresh ``--cache`` directories, until at least S seconds of
ops have run and at least the workload's minimum number of passes is
done.
Each op's output is checked after the op, outside the timed region.
Op times are scaled to a reference speed of the host by probes run
before, during and after each op (see speed.py); setup_s likewise.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from
a run that alternates traced and untraced passes (see tracing.py).  The
exit code is 0 when every op succeeded and passed its check, 1
otherwise, and 2 for a bad command line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 11

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import algval from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "algval", "cli.py")):
        sys.exit(f"error: no algval sources under {SRC}")
    sys.path.insert(0, SRC)
    import algval.cli

    if not os.path.abspath(algval.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported algval from {algval.cli.__file__}, not {SRC}")
    return algval.cli


def input_paths(workload, directory):
    return {i.name: os.path.join(directory, f"{i.name}.json") for i in workload.instances}


def write_inputs(workload, directory):
    os.makedirs(directory, exist_ok=True)
    paths = input_paths(workload, directory)
    for inst in workload.instances:
        with open(paths[inst.name], "w", encoding="utf-8") as fh:
            json.dump(inst.problem, fh)
    return paths


def run_op(cli, argv):
    """Run one CLI command; returns (seconds, exit code or None if it
    raised, stdout, stderr or the exception)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def measure_setup(args, directory):
    """Median time, at the reference speed, of fresh processes that start
    the interpreter, import algval, generate the inputs and write them;
    the last one's files are the ones the ops run on."""
    times = []
    after = speed.probe()
    for k in range(SETUP_REPEATS):
        target = os.path.join(directory, f"setup{k}")
        before = after
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-into", target],
            check=True,
        )
        seconds = time.perf_counter() - start
        after = speed.probe()
        times.append(seconds * speed.scale(before + after))
    return statistics.median(times), target


class Runner:
    def __init__(self, cli, workload, paths, directory):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.directory = directory
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.op_id = 0
        self.passes = 0
        self.wall = []           # unscaled wall time of each pass's ops
        self.pass_scale = 1.0    # reference-speed factor of the last pass

    def reference_run(self, problem, op):
        path = os.path.join(self.directory, "reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        _, code, out, err = run_op(self.cli, [op[0], path, "--format", "json"] + op[1:])
        if code != 0:
            raise workloads.CheckFailed(f"matrix route failed: {code} {err}")
        return json.loads(out)

    def run_pass(self, tracer=None, instances=None):
        """One pass over every op, or over those of ``instances``; returns
        the summed op latency at the reference speed."""
        self.passes += 1
        cache_root = os.path.join(self.directory, f"cache{self.passes}")
        total = wall = 0.0
        after = speed.probe()
        probes = list(after)
        for inst in instances or self.workload.instances:
            for op in inst.ops:
                argv = [op[0], self.paths[inst.name], "--format", "json"]
                if inst.cached:
                    argv += ["--cache", os.path.join(cache_root, inst.name)]
                argv += op[1:]
                self.op_id += 1
                # traced passes are not sampled, so that no probe
                # lands inside a span
                sampler = speed.Sampler()
                if tracer is None:
                    with sampler:
                        seconds, code, out, err = run_op(self.cli, argv)
                else:
                    tracer.op = self.op_id
                    with tracer.installed():
                        seconds, code, out, err = run_op(self.cli, argv)
                seconds -= sampler.pause
                before, after = after, speed.probe()
                probes += sampler.times + after
                wall += seconds
                seconds *= speed.scale(before + sampler.times + after)
                total += seconds
                self.latencies.append(seconds)
                self.attempted += 1
                try:
                    if code is None:
                        raise workloads.CheckFailed(f"raised {err}")
                    workloads.check_output(self.workload.name, inst, op, code, out,
                                           self.reference_run)
                except workloads.CheckFailed as exc:
                    self.failures.append(f"{inst.name} {' '.join(op)}: {exc}")
        shutil.rmtree(cache_root, ignore_errors=True)
        self.wall.append(wall)
        self.pass_scale = speed.scale(probes)
        return total


def end_to_end(args, runner, setup_s):
    w = runner.workload
    # the first instance's ops warm the process up (lazy imports, first
    # calls); they are checked but not timed
    runner.run_pass(instances=w.instances[:1])
    runner.latencies.clear()
    runner.wall.clear()
    pass_times = []
    while len(pass_times) < w.passes_min or sum(runner.wall) < args.seconds:
        pass_times.append(runner.run_pass())
    lat = sorted(runner.latencies)
    print(f"{w.name} seed {args.seed}: {len(pass_times)} timed passes "
          f"x {w.ops_per_pass} ops, "
          f"{len(lat)} latency samples, op_tail_s is p{w.tail_percentile}, "
          f"error_rate {len(runner.failures)}/{runner.attempted}; unscaled wall "
          f"ops_per_s {w.ops_per_pass / statistics.median(runner.wall):.4g}, "
          f"host at {statistics.median(pass_times) / statistics.median(runner.wall):.3g}"
          f"x the reference speed")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (w.ops_per_pass / statistics.median(pass_times), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (workloads.percentile(lat, w.tail_percentile), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, runner, problems):
    """Alternate traced and untraced passes; check that the counts repeat
    and that the workload bypasses what it claims to."""
    w = runner.workload
    tracer = tracing.Tracer()
    plain, traced, totals, counts = [], [], [], []

    def traced_pass():
        lo, first_op = len(tracer.spans), runner.op_id + 1
        seconds = runner.run_pass(tracer)
        hi = len(tracer.spans)
        by_op = tracing.op_counts(tracer.spans, lo, hi)
        counts.append([by_op.get(op) for op in range(first_op, runner.op_id + 1)])
        return seconds, tracing.pass_totals(tracer.spans, lo, hi, runner.pass_scale)

    # The first pass is traced, so that its counts are those of a fresh
    # process and state kept by the program between ops shows as a change.
    # Like the warm-up pass of an untraced run, it is left out of the times.
    traced_pass()
    runner.wall.clear()
    while len(traced) < 2 or sum(runner.wall) < args.seconds:
        plain.append(runner.run_pass())
        seconds, pass_totals = traced_pass()
        traced.append(seconds)
        totals.append(pass_totals)
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{w.name}-seed{args.seed}.jsonl"))
    if any(c != counts[0] for c in counts[1:]):
        problems.append("op counts differ between passes: state leaked between ops")
    metrics = tracing.layer_metrics(totals, w.ops_per_pass)
    for name in w.expect_zero:
        if metrics[name]:
            problems.append(f"{name} is {metrics[name]}, expected 0 on {w.name}")
    overhead = (statistics.median(traced) - statistics.median(plain)) / w.ops_per_pass
    metrics["trace.overhead_s"] = overhead
    print(f"{w.name} seed {args.seed}: {len(plain)} untraced and {len(traced) + 1} traced "
          f"passes, {len(tracer.spans)} spans, counts per pass "
          + json.dumps({k: totals[0][k] for k in tracing.DETERMINISTIC}))
    return {name: (value, tracing.UNITS[name]) for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_into:
        import_program()
        write_inputs(workloads.WORKLOADS[args.workload](args.seed), args.setup_into)
        return 0

    cli = import_program()
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, inputs = measure_setup(args, directory)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        runner = Runner(cli, workload, input_paths(workload, inputs), directory)
        problems = []
        if args.trace:
            metrics = per_layer(args, runner, problems)
        else:
            metrics = end_to_end(args, runner, setup_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    problems += runner.failures
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
