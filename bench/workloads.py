"""Benchmark workloads: seeded lists of CLI configs and their correctness checks.

A workload is a fixed list of named YAML configs that one pass runs back to
back through the CLI.  The seed draws only the Gaussian-bump parameters
(amplitude, width, center) and the Fourier sample; the commands and levels
are fixed.
"""
import random

WORKLOADS = ("solve-newton", "solve-fixedpoint", "kernels")

# amplitude / width^2 <= 0.08 / 1.44 = 0.056 stays well below the round
# density Phi_fs''(0.6) = 0.228 at every admissible center, so Phi'' > 0.
# Undamped Newton at m = 200 breaks down near amplitude / width^2 = 0.11
# with |center| = 1 (a non-convex iterate; see bench/README.md), and in this
# box Newton takes 4 steps at m = 120 and 200 for nearly every draw, so the
# work of a pass hardly depends on the seed.  Centers are off zero so the
# torus direction is exercised.
AMPLITUDE = (0.05, 0.08)
WIDTH = (1.2, 1.4)
CENTER = (0.3, 0.6)

# Newton's residual floor at m = 120..200 reaches 9e-11, so 1e-10 would make
# convergence a coin toss on rounding; 1e-9 is still one quadratic step short
# of the floor.
NEWTON_TOLERANCE = 1e-9
FIXED_POINT_TOLERANCE = 1e-8

# "full" is what the benchmark measures; "tiny" keeps every command and
# every layer but shrinks the levels, for the harness's own smoke check.
LEVELS = {
    "full": {"newton": [8, 40, 120], "newton_top": [200], "tbalance": [8, 40],
             "probe": [40], "balance": [5, 8, 12],
             "expand": [25, 50, 100, 200], "expand_grid": 768,
             "beta": [8, 40, 200], "weighted": [40, 120], "m_max": 60},
    "tiny": {"newton": [2, 4], "newton_top": [6], "tbalance": [2, 3],
             "probe": [4], "balance": [2, 3],
             "expand": [4, 6, 8], "expand_grid": 128,
             "beta": [2, 4], "weighted": [4, 6], "m_max": 4},
}

FS = {"type": "fubini-study"}

# Weyl sequences frac(x0 + k sqrt(p)), one prime p per coordinate: each
# coordinate is evenly spread from the first few passes on, and coordinates
# step by different irrationals, so they do not move in lockstep
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89)
_STEPS = [p ** 0.5 % 1.0 for p in _PRIMES]


class _Draw:
    """Point `index` of a low-discrepancy sequence in [0, 1)^24, shifted by
    an offset drawn from the seed.  Consecutive passes of one run spread
    evenly over the parameter box, so runs of different seeds see nearly the
    same mix of easy and hard bumps.  uniform() consumes one coordinate; a
    pass uses at most 18 (six bumps)."""

    def __init__(self, workload, seed, index):
        rng = random.Random("%s/%d" % (workload, seed))
        self._coords = iter([(rng.random() + index * a) % 1.0
                             for a in _STEPS])

    def uniform(self, lo, hi):
        return lo + (hi - lo) * next(self._coords)


def _bump(draw):
    # one coordinate covers both signs of the center: |center| in CENTER
    lo, hi = CENTER
    c = draw.uniform(lo - hi, hi - lo)
    center = c + lo if c >= 0.0 else c - lo
    return {"type": "gaussian-bump", "amplitude": draw.uniform(*AMPLITUDE),
            "width": draw.uniform(*WIDTH), "center": center}


def _solve_newton(draw, lv):
    solver = {"tolerance": NEWTON_TOLERANCE}
    return [
        ("newton", {"command": "newton", "potential": _bump(draw),
                    "levels": lv["newton"], "solver": solver}),
        ("newton-top", {"command": "newton", "potential": _bump(draw),
                        "levels": lv["newton_top"], "solver": solver}),
        ("tbalance", {"command": "tbalance", "potential": _bump(draw),
                      "levels": lv["tbalance"], "solver": solver}),
        ("probe", {"command": "probe", "levels": lv["probe"],
                   "seeds": [_bump(draw) for _ in range(3)], "solver": solver}),
    ]


def _solve_fixedpoint(draw, lv):
    return [("balance", {"command": "balance", "potential": _bump(draw),
                         "levels": lv["balance"],
                         "solver": {"tolerance": FIXED_POINT_TOLERANCE}})]


def _kernels(draw, lv):
    sample = {"cos": [1.0] + [draw.uniform(-0.5, 0.5) for _ in range(3)],
              "sin": [0.0] + [draw.uniform(-0.5, 0.5) for _ in range(3)]}
    return [
        ("expand", {"command": "expand", "potential": _bump(draw),
                    "levels": lv["expand"],
                    "quadrature": {"grid": lv["expand_grid"]}}),
        ("beta-bump", {"command": "beta", "potential": _bump(draw),
                       "levels": lv["beta"]}),
        ("beta-fs", {"command": "beta", "potential": FS,
                     "levels": lv["beta"]}),
        ("beta-weighted", {"command": "beta", "potential": _bump(draw),
                           "levels": lv["weighted"], "weight": 2.0}),
        ("fourier", {"command": "fourier", "sample": sample,
                     "profiles": [0.15, 0.3], "m_max": lv["m_max"]}),
    ]


_BUILDERS = {"solve-newton": _solve_newton,
             "solve-fixedpoint": _solve_fixedpoint,
             "kernels": _kernels}


def configs(workload, seed, size="full", index=0):
    """The (name, config mapping) list of pass `index` of one workload.

    Every pass draws fresh bump parameters, so that a run measures the
    workload rather than one draw.  The same seed gives the same sequence
    of lists.
    """
    return _BUILDERS[workload](_Draw(workload, seed, index), LEVELS[size])


def check(cfg, code, report):
    """Names of the correctness checks one command failed.

    Exit codes 2 (config error) and 3 (internal error) and a non-null error
    block are failures; exit code 1 (a verdict failed) is not by itself.
    The other checks are known answers that hold for every seed.
    """
    failed = []
    if code in (2, 3):
        failed.append("exit code %d" % code)
    if report is None:
        return failed + ["report.json written"]
    if report["error"] is not None:
        failed.append("error block: %s" % report["error"]["type"])
        return failed
    out = report["outputs"]
    verdicts = report["verdicts"]
    command = cfg["command"]
    if command in ("newton", "tbalance", "balance"):
        tol = cfg["solver"]["tolerance"]
        for m in cfg["levels"]:
            entry = out["levels"][str(m)]
            if not (entry["converged"] and entry["final_residual"] <= tol):
                failed.append("m%d converged to tolerance %g" % (m, tol))
    elif command == "probe":
        for i in range(len(cfg["seeds"])):
            if not verdicts["seed%d_converged" % i]:
                failed.append("seed%d converged" % i)
        if not out["max_distance"] <= 1e-6:
            failed.append("probe max_distance <= 1e-6")
    elif command == "beta":
        if cfg["potential"] == FS:
            # the round metric is balanced, its Gram diagonal is the Beta
            # function, so beta vanishes up to quadrature rounding
            for m in cfg["levels"]:
                if not out["sup_abs_beta"][str(m)] <= 1e-8 * m:
                    failed.append("fubini-study m%d sup|beta| <= 1e-8 m" % m)
        if not verdicts["outputs_finite"]:
            failed.append("beta outputs_finite")
    elif command == "expand":
        if not verdicts["outputs_finite"]:
            failed.append("expand outputs_finite")
    elif command == "fourier":
        if not out["max_integer_discrepancy"] <= 1e-10:
            failed.append("fourier integer discrepancy <= 1e-10")
    return failed
