"""Single public calls timed directly, to re-measure the scratch table of
ROADMAP item 1 on the machine that runs the benchmark.

The inputs are fixed (the off-center bump of the test suite), so the numbers
compare across seeds, workloads and commits.  Each call is timed untraced and
the median of a few repeats is reported; building the potentials is outside
the timed region.
"""
import statistics
import time

OFF_CENTER = {"type": "gaussian-bump", "amplitude": 0.1, "width": 1.0,
              "center": 0.5}


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(repeats):
    """Median seconds of each call, keyed by per-layer metric name."""
    from bergbal.model import make_perturbed_potential, default_window
    from bergbal.bergman import section_norms, bergman_kernel, expansion_fit
    from bergbal.solvers import newton_balance

    # the CLI's choices: window for the largest level, grid 512 unless set
    p768 = make_perturbed_potential(OFF_CENTER, default_window(200), 768)
    p120 = make_perturbed_potential(OFF_CENTER, default_window(120), 512)
    p80 = make_perturbed_potential(OFF_CENTER, default_window(80), 512)
    out = {
        "direct.section_norms_s.m200": _median_time(
            lambda: section_norms(200, p768), repeats),
        "direct.bergman_kernel_s.m200": _median_time(
            lambda: bergman_kernel(200, p768), repeats),
    }
    for m in (8, 40, 120):
        out["direct.newton_balance_s.m%d" % m] = _median_time(
            lambda: newton_balance(m, p120), repeats)
    out["direct.expansion_fit_s"] = _median_time(
        lambda: expansion_fit(p80, [10, 20, 40, 80]), repeats)
    return out
