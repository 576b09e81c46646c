"""bergbal benchmark: drives bergbal.cli.main in-process over seeded workloads.

    python3 bench/run.py --workload solve-newton --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  A pass runs the workload's configs back to
back through the CLI, report and CSV writing included.  With --trace 0 the
run measures end-to-end metrics with tracing off, pass times also relative to
a reference loop that times the host (reference.py); with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""
import os

# pin BLAS to one thread before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = ("import time; t0 = time.perf_counter(); import bergbal.cli; "
              "print(time.perf_counter() - t0)")
# the metrics of the JSON line with --trace 0; pass_s.* are printed too
END_TO_END_UNITS = {"setup_s": "s", "pass_rel.p50": "1", "pass_rel.tail": "1",
                    "peak_rss_mb": "MiB"}


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def measure_setup(repeats):
    """Import time of bergbal.cli in fresh interpreters, after one import
    that compiles the bytecode."""
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout))
    return times[1:]


def _blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    import ctypes
    import glob
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    found[os.path.basename(path)] = getattr(lib, sym)()
                    break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unknown (not a git checkout)"


def provenance(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "blas_threads_read_back": _blas_threads(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "git_commit": _git_commit(), "seed": seed}


def prepare(workload, seed, size, index):
    """Write the configs of pass `index` under .bench_out/<workload>;
    returns (name, config, path, out_dir) per config."""
    import yaml
    base = os.path.join(OUT, workload)
    jobs = []
    for name, cfg in workloads.configs(workload, seed, size, index):
        path = os.path.join(base, name + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        jobs.append((name, cfg, path, os.path.join(base, name)))
    return jobs


class Runner:
    """Runs passes and keeps the command counts and failed checks."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []

    def run_pass(self, jobs):
        """Wall time of one pass: the sum of the CLI calls; the correctness
        checks run outside the timed region."""
        total = 0.0
        for name, cfg, path, out_dir in jobs:
            report_path = os.path.join(out_dir, "report.json")
            if os.path.exists(report_path):
                os.remove(report_path)
            sink = io.StringIO()
            argv = [cfg["command"], "--config", path, "--out", out_dir]
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                total += time.perf_counter() - t0
            report = None
            if os.path.exists(report_path):
                with open(report_path) as fh:
                    report = json.load(fh)
            self.attempted += 1
            failed = workloads.check(cfg, code, report)
            if failed:
                self.failures.append((name, failed, sink.getvalue()))
        return total


def out_bytes(jobs):
    return sum(os.path.getsize(os.path.join(d, f))
               for _, _, _, d in jobs if os.path.isdir(d)
               for f in os.listdir(d))


def tail(times):
    """(value, percentile) of the slowest pass worth reporting.

    With n >= 100 passes this is the highest percentile that has at least
    ten passes beyond it.  With fewer passes that percentile lies below p90,
    at or below the median for n <= 20 and undefined for n <= 10, so the
    maximum is reported instead.
    """
    xs = sorted(times)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def run(args):
    size = "tiny" if args.tiny else "full"
    prov = provenance(args.seed)
    if not args.trace:
        setup = measure_setup(1 if args.tiny else SETUP_REPEATS)

    sys.path.insert(0, SRC)
    import bergbal.cli
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    os.makedirs(os.path.join(OUT, args.workload))
    runner = Runner(bergbal.cli)
    # one untimed pass first: lazy imports, first-call costs and the
    # allocator's growth to the workload's array sizes are paid before timing
    runner.run_pass(prepare(args.workload, args.seed, size, 0))

    lines = ["workload %s  seed %d  seconds %g  trace %d  levels %s"
             % (args.workload, args.seed, args.seconds, args.trace, size),
             "provenance " + json.dumps(prov, sort_keys=True)]
    if not args.trace:
        from reference import Reference
        ref = Reference()
        passes, refs = [], [ref.seconds()]
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            jobs = prepare(args.workload, args.seed, size, len(passes) + 1)
            passes.append(runner.run_pass(jobs))
            refs.append(ref.seconds())
        # each pass relative to the host's speed around it: over the mean of
        # the reference loops timed just before and just after it
        rel = [2.0 * p / (a + b) for p, a, b in zip(passes, refs, refs[1:])]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_s, pct = tail(passes)
        tail_rel, _ = tail(rel)
        n = "%d passes" % len(passes)
        metrics = {"setup_s": statistics.median(setup),
                   "pass_s.p50": statistics.median(passes),
                   "pass_s.tail": tail_s,
                   "pass_rel.p50": statistics.median(rel),
                   "pass_rel.tail": tail_rel,
                   "reference_s": statistics.median(refs),
                   "peak_rss_mb": rss}
        notes = {"setup_s": "median of %d fresh-interpreter imports"
                            % len(setup),
                 "pass_s.p50": "median of " + n,
                 "pass_s.tail": "p%.1f of %s" % (pct, n),
                 "pass_rel.p50": "median of %s, each over its own "
                                 "reference loops" % n,
                 "pass_rel.tail": "p%.1f of the same" % pct,
                 "reference_s": "median over %d pass boundaries"
                                % len(refs),
                 "peak_rss_mb": "max RSS of this process"}
        units = dict(END_TO_END_UNITS, **{"pass_s.p50": "s", "pass_s.tail": "s",
                                          "reference_s": "s"})
        lines.append("pass times (s): " + " ".join("%.4f" % t for t in passes))
        lines.append("reference loops (s): " + " ".join("%.4f" % t for t in refs))
    else:
        metrics, notes, units, extra = run_traced(args, runner, size)
        lines += extra

    failed_cmds = len(runner.failures)
    lines.append("%-32s %14s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, value in metrics.items():
        lines.append("%-32s %14.6g %-6s %s" % (name, value, units[name],
                                               notes.get(name, "")))
    if not args.trace:
        lines.append("%-32s %14.6g %-6s %d of %d commands failed" % (
            "failed_frac", failed_cmds / runner.attempted, "1", failed_cmds,
            runner.attempted))
    for name, failed, output in runner.failures:
        lines.append("check failed: %s: %s" % (name, "; ".join(failed)))
        lines.append("  " + output.strip().replace("\n", "\n  ")[-2000:])
    print("\n".join(lines))
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": failed_cmds,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()
                          if args.trace or k in END_TO_END_UNITS}}
    print(json.dumps(result), flush=True)


def run_traced(args, runner, size):
    import direct_calls
    import tracing

    repeats = 1 if args.tiny else 3
    direct = direct_calls.measure(repeats)
    tracer = tracing.Tracer()
    untraced, traced, pass_ids, sizes = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        # the same inputs untraced and traced, so their difference is the
        # tracing overhead
        jobs = prepare(args.workload, args.seed, size, len(traced) + 1)
        untraced.append(runner.run_pass(jobs))
        tracer.pass_id = len(traced)
        with tracer:
            traced.append(runner.run_pass(jobs))
        pass_ids.append(tracer.pass_id)
        sizes.append(out_bytes(jobs))
    tracer.write(os.path.join(OUT, args.workload, "spans.json"))

    selfs = tracing.self_times(tracer.spans)
    profiles = [tracing.pass_profile(tracer.spans, selfs, i) for i in pass_ids]
    per_pass = [tracing.layer_metrics(p) for p in profiles]
    units = tracing.metric_units()
    units.update({"report.bytes": "bytes", "trace.overhead_s": "s"})
    units.update((k, "s") for k in direct)
    metrics = {k: (statistics.median if units[k] == "s" else
                   statistics.median_low)(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["report.bytes"] = statistics.median_low(sizes)
    metrics["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)
    metrics.update(direct)

    notes = {k: "median of %d traced passes" % len(traced) for k in metrics}
    notes["trace.overhead_s"] = "traced p50 %.4g s - untraced p50 %.4g s" % (
        statistics.median(traced), statistics.median(untraced))
    for k in direct:
        notes[k] = "direct call, median of %d" % repeats

    extra = ["layer shares of the traced pass (self time / pass time):"]
    duration = statistics.median(p["duration"] for p in profiles)
    shares = {}
    for layer in tracing.LAYERS:
        share = statistics.median(tracing.layer_self(p, layer) / p["duration"]
                                  for p in profiles)
        shares[layer] = share
        extra.append("  %-8s %6.1f %%" % (layer, 100.0 * share))
    extra.append("  traced pass %.4g s" % duration)
    extra += prediction_lines(args.workload, shares)
    return metrics, notes, units, extra


# which layer should dominate each workload, and which should stay small
PREDICTION = {"solve-newton": ("solvers", {"bergman": 0.05}),
              "solve-fixedpoint": ("solvers", {"bergman": 0.05}),
              "kernels": ("bergman", {"solvers": 0.0})}


def prediction_lines(workload, shares):
    dominant, small = PREDICTION[workload]
    top = max(shares, key=shares.get)
    ok = top == dominant and shares[dominant] > 0.5
    lines = ["prediction: %s does most of the work (%.1f %%): %s"
             % (dominant, 100.0 * shares[dominant],
                "holds" if ok else "DOES NOT HOLD, largest is %s" % top)]
    for layer, limit in small.items():
        holds = shares[layer] <= limit
        lines.append("prediction: %s share <= %.0f %% (%.1f %%): %s"
                     % (layer, 100.0 * limit, 100.0 * shares[layer],
                        "holds" if holds else "DOES NOT HOLD"))
    return lines


def smoke():
    """Runs every workload at tiny levels, traced and untraced, and checks
    that each metric of BENCHMARK.json prints with its unit and that no
    command failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                problems.append("%s trace %d: exit %d\n%s" % (
                    workload, trace, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s trace %d: metrics differ from "
                                "BENCHMARK.json: missing %s, extra %s" % (
                                    workload, trace,
                                    sorted(set(want.items()) - set(got.items())),
                                    sorted(set(got.items()) - set(want.items()))))
            if "failed_frac" not in proc.stdout and trace == 0:
                problems.append("%s: failed_frac not printed" % workload)
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s trace %d: %d of %d commands failed\n%s" % (
                    workload, trace, result["failed"], result["attempted"],
                    proc.stdout[-2000:]))
            print("smoke %-16s trace %d: %d commands, %d metrics" % (
                workload, trace, result["attempted"], len(got)))
    for p in problems:
        print("smoke FAILED: " + p)
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny levels (for the smoke check)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny levels and check the "
                        "output against BENCHMARK.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bergbal", "cli.py")):
        print("bergbal sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
