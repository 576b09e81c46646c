"""Balanced and T-balanced metric solvers, continuation family, uniqueness probe.

Both solvers work in the exact finite-dimensional reduction x = log D, where
D is the Gram diagonal: every candidate metric is

    Phi_x(t) = (1/m) log sum_j e^{jt - x_j},

and balance is the fixed-point condition x = log((m+1) G(Phi_x)) up to the
neutral scale and translation directions.  The (m+1) factor pins the scale
gauge so the Fubini-Study diagonal is an exact fixed point; every iterate,
the seed included, moves along the torus direction to moment center 0.
Solving in x rather than in spline space keeps the problem exactly finite
dimensional, so Newton can reach residuals at the floating-point floor.

Each evaluation at x, _DSpace.evaluate, makes one exponential pass over an
(m+1) x n array, n the number of nodes: the softmax p_jt = e^{jt - x_j -
m Phi_x(t)}, shifted by its column maximum, from j t at the nodes held by
_DSpace.  Everything else follows from p without another exponential: the
section rows are e^{jt - m Phi_x} = p_jt e^{x_j} and the volume density is
the softmax variance over m.  The moment center needs no pass at all: it is
(x_m - x_0)/m (see _DSpace.moment_center).  evaluate forms the Gram diagonal
from p with the row scale e^x and hands both to the kernel engine of
bergman.py, so the rows themselves are never formed, and returns one
_Evaluation record; the Jacobian, the moment pairing, the volume integral
and every solver step read that record by name.

The nodes are one Gauss-Legendre rule in u = expit(t), m + 64 of them (see
_DSpace): in u the Gram integrand is smooth on [0, 1], so a solve needs no
window, no tails and no second node set.  The seed is the Gram diagonal of
the input potential on the same rule, by the kernel commands' Gram function
(_seed, bergman._gram_rows).  The residual is the sup of
the kernel deviation over the nodes and t = -oo, +oo; sigma, from exact
cumulants, is read on the nodes too, and so are a family's d_m, the floors
of both and the probe's distances.  A solve's answer is its x: the
BalanceResult reads phi and the density of Phi_x exactly at any points
(_DSpace.read), with no spline, and a family level is seeded from the
previous level's Phi_x the same way.

Newton's Jacobian A - I, the derivative of x -> log((m+1) G(Phi_x)) - x,
is one product of the softmax with its integrands, (m+1) x n by n x (m+1),
and a row scale (see _DSpace.jacobian).  diag(e^{-x} G)(I - A) is the
Hessian of Donaldson's convex balancing energy, so it is symmetric, and its
null directions 1 and j (scale and torus) make w = e^{-x} G and j w left
null vectors of A - I: they span the complement of its range.  So Newton's
step is one square solve, with columns 0 and m of A - I replaced by w and
j w, in the gauge dx_0 = dx_m = 0 (see _newton_step).
"""
import collections
import dataclasses
import functools
import time

import numpy as np

from .model import fs_derivative, log_factorials, _from_knot_values
from .bergman import c_of_m, _exp_floor, _gram_rows, _kernel, _u_rule

# nodes of the u-rule beyond the level: n = m + EXTRA_NODES (see _DSpace)
EXTRA_NODES = 64
# entries of p below this are zero in the Jacobian (see _DSpace.jacobian)
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """tolerance on sup|B - C| and max_iterations, the most steps a solve
    takes: the config's `solver` keys, which config.py derives from here."""

    tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class BalanceResult:
    """A solve's answer: the diagonal x = log D of Phi_x at level m, on its
    seed's quadrature quad, with the history and diagnostics of the solve.

    read(t) gives phi and the density of Phi_x exactly at any points (see
    _DSpace.read).  It is what a solve reads of its seed, as of a
    RadialPotential, so a result seeds the next level of a family in one
    read.  potential is the SplinePotential of Phi_x, built on first use,
    for callers that pass a solution to the kernel functions: the quintic
    through the ungauged knot values S/m - log(1 + e^t) on quad."""

    def __init__(self, level, x, quad, torus_weight, residual_history,
                 converged, iterations, wall_time, mode, diagnostics=None):
        self.level = level
        self.x = x
        self.quad = quad
        self.torus_weight = torus_weight
        self.residual_history = np.asarray(residual_history, dtype=float)
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.wall_time = float(wall_time)
        self.mode = mode
        self.diagnostics = diagnostics or {}
        if self.residual_history.size == 0:
            raise ValueError("residual history must be non-empty")
        if not np.all(np.isfinite(self.residual_history)):
            raise ValueError("residual history contains non-finite entries")

    @property
    def final_residual(self):
        return float(self.residual_history[-1])

    def read(self, t):
        return _DSpace(self.level).read(self.x, t)

    @functools.cached_property
    def potential(self):
        vals = _DSpace(self.level)._phi(self.x, self.quad.knots)[0]
        return _from_knot_values(vals, self.quad)


# a family's levels, results, curves and floors (arrays), verdicts, failure
FamilyReport = collections.namedtuple(
    "FamilyReport", "levels results d_sup sigma_sup d_floor sigma_floor "
    "verdicts failure_index")
UniquenessReport = collections.namedtuple(
    "UniquenessReport", "results distances max_distance passed excluded")


# one iterate's evaluation, read by field name (see _DSpace.evaluate)
_Evaluation = collections.namedtuple("_Evaluation",
                                     "x p mu d2 k2 dens G dev sup")


class _DSpace:
    """Shared arrays for one solve at level m, on the u-rule.

    The nodes t and dt-weights w are _u_rule(m + EXTRA_NODES).  With
    u = expit(t), G_j = e^{x_j} int_0^1 p_j k2 / (m u (1 - u)) du has an
    integrand smooth on [0, 1] for every x, and on the round diagonal a
    Bernstein polynomial of degree m (Zelditch, "Bernstein polynomials,
    Bergman kernels and toric Kahler varieties", J. Symplectic Geom. 7,
    2009): no window, no tails.  Against n = 4m + 160 over every Newton and
    fixed-point iterate, m + 64 nodes are within 6e-15 on strong bumps at
    m = 5, 8 and 12 (m + 16: 3e-6) and within 3e-14 on the benchmark's bumps.
    At m >= 40 far trial iterates of strong bumps are inexact: their G is off
    by 2e-1 to 6e-1 against a window-40, 4,096-knot reference (1e-2 to 3e-1
    on the t-window nodes this rule replaced), with the same iteration
    counts, histories to two digits and outputs to 3e-14.

    evaluate is the one exponential pass of an iterate.  The Jacobian (one
    product of p with its integrands), the moment pairing, the volume
    integral and sigma read its _Evaluation, and moment_center reads x
    alone.  An evaluation's terms that depend on the nodes alone are held:
    j t, (m + 1) x n, so a node softmax starts from one subtraction; low =
    min(0, m t), the node part of _exp_floor's column bound; and C = C_m.
    At m <= 12 an array holds under 1,000 entries, a NumPy call costs about
    as much as its arithmetic, and an evaluation costs its call count.
    read, a solve's answer at other points, takes its own softmax there.
    """

    def __init__(self, m):
        self.m = int(m)
        self.t, self.w = _u_rule(self.m + EXTRA_NODES)
        self.j = np.arange(self.m + 1, dtype=float)
        self.jt = np.multiply.outer(self.j, self.t)
        self.low = np.minimum(0.0, self.m * self.t)
        self.C = c_of_m(self.m)

    def softmax(self, x, t=None):
        """p_jt = e^{jt - x_j} / sum_l e^{lt - x_l} at the points t (the
        nodes if None), in one exponential pass, with a and s: z = jt - x is
        shifted by its column maximum a, exponentiated in place by
        bergman._exp_floor, with the column bound min(0, m t) - max(x) - a
        (its first term held at the nodes), and divided by its column sums
        s.  m Phi_x(t) = a + log s, which _phi forms."""
        if t is None:
            low, p = self.low, self.jt - x[:, None]
        else:
            low, p = np.minimum(0.0, self.m * t), np.multiply.outer(self.j, t)
            p -= x[:, None]
        a = p.max(axis=0)
        p -= a
        _exp_floor(p, low - x.max() - a)
        s = p.sum(axis=0)
        p /= s
        return p, a, s

    def _phi(self, x, t):
        """S/m - log(1 + e^t), with S = m Phi_x = a + log s, and the softmax
        p at the points t."""
        p, a, s = self.softmax(x, t)
        return (a + np.log(s)) / self.m - fs_derivative(t, 0), p

    def read(self, x, t):
        """phi = Phi_x - log(1 + e^t) and the density Phi_x'' = k2/m at the
        points t, exact: one softmax at the nodes and t, no spline.  phi is
        gauged to Fubini-Study mean zero, as RadialPotential gauges a spline:
        the mean is int phi du on the u-rule, exact to rounding because phi
        is analytic in u, (1/m) log sum_j e^{-x_j} u^j (1 - u)^{m-j}."""
        n = self.t.size
        phi, p = self._phi(x, np.concatenate((self.t, t)))
        phi = phi[n:] - self._fs_mean(phi[:n])
        return phi, self._moments(p[:, n:])[2] / self.m

    def node_phi(self, x):
        """read's phi at the nodes, from one softmax there and no density:
        the softmax works column by column, so this is read(x, self.t)[0]
        bit for bit."""
        phi = self._phi(x, self.t)[0]
        return phi - self._fs_mean(phi)

    def _fs_mean(self, phi):
        """int phi dmu_fs on the u-rule, from phi at the nodes."""
        return (self.w * fs_derivative(self.t, 2)) @ phi

    def _moments(self, p):
        """The softmax mean mu, the squared deviations d2 = (j - mu)^2 and
        the variance k2."""
        mu = self.j @ p
        d2 = np.subtract.outer(self.j, mu)
        d2 *= d2
        return mu, d2, np.einsum("jt,jt->t", p, d2)

    def evaluate(self, x):
        """The _Evaluation of x at the nodes: the softmax p, its mean mu, the
        squared deviations d2 = (j - mu)^2, the variance k2, the density
        Phi_x'' = k2 / m, the Gram diagonal G of the rows e^{jt - m Phi_x} =
        p_jt e^{x_j}, read with the row scale e^x so that the rows are never
        formed, the deviation dev = B_m - C_m and its sup, which takes t = -oo
        and +oo too: there p is e_0 and e_m, and dev is e^{x_0}/(m G_0) - C_m
        and e^{x_m}/(m G_m) - C_m, two scalars formed as such."""
        m, C = self.m, self.C
        p = self.softmax(x)[0]
        mu, d2, k2 = self._moments(p)
        dens = k2 / m
        ex = np.exp(x)
        G = ex * (p @ (self.w * dens))
        dev = _kernel(m, p, G, ex) - C
        sup = max(np.abs(dev).max(), abs(ex[0] / G[0] / m - C),
                  abs(ex[-1] / G[-1] / m - C))
        return _Evaluation(x, p, mu, d2, k2, dens, G, dev, float(sup))

    def _integral(self, vals, ev):
        """Volume integral of vals, sampled at the nodes, against Phi_x."""
        return float(self.w @ (vals * ev.dens))

    def moment_center(self, x):
        """int t dmu_x over the line, (x_m - x_0)/m: by parts it is the limit
        of R - Phi_x(R) + Phi_x(-R) as R -> oo, and Phi_x tends to -x_0/m at
        -oo and to t - x_m/m at +oo.  Linear in x: no pass."""
        return (x[-1] - x[0]) / self.m

    def jacobian(self, ev):
        """A_il = dG_i[psi_l]/G_i for the potential directions psi_l = dPhi/dx_l
        = -p_l/m.  The integrand -m psi_l Phi'' + psi_l'' is p_l (2 k2 -
        d2_l) / m, since p_l'' = p_l (d2_l - k2), and the row i is p_i e^{x_i}.

        So A is one (m+1) x n by n x (m+1) product, p M^T with the integrands
        M = p (2 k2 - d2) w / m, after which row i is scaled by e^{x_i}/G_i.
        Both factors read a copy of p with its entries below sqrt(DBL_MIN)
        set to zero: at m >= 120 many entries of p are tiny normals whose
        pairwise products underflow, and the product ran 4-5 times slower
        on them (1.3 ms against 0.5 ms at m = 200).  A dropped term is below
        sqrt(DBL_MIN) |(2 k2 - d2) w / m|, under the rounding of every entry
        of A, so A is unchanged, bit for bit on the seeds up to m = 200.
        The product costs O(m^2 n), but on the u-rule n = m + 64: it is
        faster than a Hankel gather from 2m + 1 row sums, O(m n), up to
        m = 200, so the gather's index arrays and exponentials do not pay.
        """
        p = np.where(ev.p < _SQRT_TINY, 0.0, ev.p)
        M = np.subtract(2.0 * ev.k2, ev.d2)
        M *= p
        M *= self.w / self.m
        A = p @ M.T
        A *= (np.exp(ev.x) / ev.G)[:, None]
        return A

    def _cumulants(self, ev):
        """d = j - mu and the cumulants k3, k4 of ev's softmax, no pass.
        Sigma needs points, not quadrature.  The nodes span |t| <= 8.1, 8.9
        and 10.8 at m = 5, 40 and 200, where the rows put their mass, and
        none lies in the far tails, where the density is ~e^{-|t|} and
        sigma would divide rounding noise by it."""
        d = np.subtract.outer(self.j, ev.mu)
        k3 = np.einsum("jt,jt->t", ev.p, ev.d2 * d)
        k4 = np.einsum("jt,jt->t", ev.p, ev.d2 * ev.d2) - 3.0 * ev.k2 ** 2
        return d, k3, k4

    def round_floors(self, residual):
        """Floors of the family curves d_m and sup|sigma_m - 2| at this level.

        Each floor starts from what the closed-form round diagonal x_j =
        -log C(m, j), the exact balanced solution, reads on the nodes, where
        a solve is read: d from node_phi, as d_m is, and sigma from _cumulants
        of its one evaluation, as sigma_core_err is.  Two allowances widen
        it:

        * the final residual r = sup|B_m - C_m|.  Along an eigenvector v of
          the Jacobian A of the Gram map, x -> x + e v leaves the residual
          R = (A - 1) e v; the kernel reads B/C - 1 = -sum_j p_j R_j and the
          potential moves by -(e/m) sum_j p_j v_j.  So, to first order, a
          residual r leaves Phi up to r / ((m+1)(1 - lambda_2)) off its root
          in the sup norm, lambda_2 the largest eigenvalue of A off the
          scale and torus directions (which have eigenvalue 1).  At the round
          diagonal it is lambda_2 = 1 - 12/((m+2)(m+3)), with eigenvector
          v_j = (j - m/2)^2 - m(m+2)/12, in closed form (jacobian's to
          rounding, see the tests), and max_t |sum_j p_j v_j| = v_0 = v_m =
          m(m - 1)/6, reached at t = -oo and +oo.  The sigma floor gets the
          largest first-order change of sigma over all moves of x no larger,
          entry by entry, than that displacement of x.
        * rounding.  A diagonal displaced by more than an ulp rounds
          differently, so the solved diagonal shows a fresh sample of each
          evaluation's rounding rather than the round diagonal's.  With u
          the unit roundoff: the values S/m - log(1 + e^t) that read forms
          carry an absolute error up to u (|Phi| + log(1 + e^t)), about 2 u
          times the largest log(1 + e^t).  Sigma of a round metric is pure
          rounding noise that grows with m; its allowance is the first-order
          bound sum_l |d sigma / d p_l| p_l eps_l, with eps_l a bound on the
          relative error of the softmax p_l = e^{z_l - a} / s (see softmax).
          Forming z_l = l t - x_l rounds by u (|l t| + |z_l|) and z_l - a by
          u |z_l - a|; the exponential and the division add u each, and the
          sum s of m + 1 positive terms is off by at most m u relative.  The
          rounding of the shift a is common to every l and cancels in p, so
          eps_l = u (|l t| + |z_l| + |z_l - a| + m + 2).

        d_m reads phi after its mean is removed, which can double a sup, so
        the d floor gets twice its allowances.

        Returns (d_floor, sigma_floor).
        """
        m = self.m
        j = self.j
        lf = log_factorials(m)
        x = lf + lf[::-1] - lf[-1]
        d_round = float(np.max(np.abs(self.node_phi(x))))
        if m == 1:
            # both entries of x are gauge directions: every diagonal is
            # round, and v = 0
            dphi = dx = 0.0
        else:
            # r / ((m+1)(1 - lambda_2)), with 1 - lambda_2 = 12/((m+2)(m+3))
            dphi = residual * (m + 2) * (m + 3) / (12.0 * (m + 1))
            v = (j - 0.5 * m) ** 2 - m * (m + 2) / 12.0
            # x displacement that moves Phi by dphi along the slow mode:
            # dphi m max|v| / max_t |v . p(t)|
            dx = 6.0 * dphi * np.max(np.abs(v)) / (m - 1)

        ev = self.evaluate(x)
        p, d2, k2 = ev.p, ev.d2, ev.k2
        d, k3, k4 = self._cumulants(ev)
        # d sigma / d p_l, the p_l varied independently at sum_l p_l = 1
        jj = j[:, None]
        dk3 = d2 * d - 3.0 * jj * k2
        dk4 = d2 * d2 - 4.0 * jj * k3 - 6.0 * k2 * d2
        N = k4 * k2 - k3 * k3
        g = -m * ((dk4 * k2 + k4 * d2 - 2.0 * k3 * dk3) / k2 ** 3
                  - 3.0 * N * d2 / k2 ** 4)
        z = self.jt - x[:, None]
        eps = 0.5 * np.finfo(float).eps * (
            np.abs(self.jt) + np.abs(z) + (z.max(axis=0) - z) + m + 2.0)
        rounding = np.sum(np.abs(g) * p * eps, axis=0)
        # sum_l |d sigma / d x_l|, with d sigma / d x_l = -p_l (g_l - <g>)
        slope = np.sum(p * np.abs(g - np.sum(p * g, axis=0)), axis=0)
        sigma_floor = _sigma_err(m, k2, k3, k4) \
            + float(np.max(dx * slope + rounding))
        # the largest log(1 + e^t) at the nodes is at the last, the largest t
        phi_rounding = np.finfo(float).eps * fs_derivative(self.t[-1], 0)
        return d_round + 2.0 * (dphi + phi_rounding), sigma_floor


def _sigma_err(m, k2, k3, k4):
    """sup |sigma - 2| from the cumulants k2, k3, k4 of a level-m softmax."""
    sigma = -m * (k4 * k2 - k3 * k3) / k2 ** 3
    return float(np.max(np.abs(sigma - 2.0)))


def _seed(m, P0):
    """The _DSpace of a solve at level m and its seed x0 = log((m+1) G), G
    the Gram diagonal of P0, a RadialPotential or the BalanceResult of a
    lower level, on the solve's own u-rule (bergman._gram_rows)."""
    G = _gram_rows(m, P0, int(m) + EXTRA_NODES)[0]
    return _DSpace(G.level), np.log((G.level + 1) * G.entries)


def _centered(ds, x):
    """ds.evaluate of x moved along the torus to moment center 0."""
    return ds.evaluate(x - ds.j * ds.moment_center(x))


def _iterate(ds, x, opts, step):
    """The balancing loop of tk_iterate and _gauss_newton: it steps while
    the sup is above the tolerance and fewer than opts.max_iterations steps
    were taken.  The seed x goes to moment center 0 like every iterate
    (_centered), so a seed that meets the tolerance returns in that gauge.
    Each step(ev) returns the evaluation of the next iterate, or None to
    decline, which stops the loop; ev.sup is the last entry of the history.
    So a solve ends at the tolerance, at max_iterations or at a declined
    step, and nowhere else.  Returns the last iterate's evaluation and the
    history of sups: len(hist) - 1 steps were taken."""
    ev = _centered(ds, x)
    hist = [ev.sup]
    while hist[-1] > opts.tolerance and len(hist) <= opts.max_iterations:
        nxt = step(ev)
        if nxt is None:
            break
        ev = nxt
        hist.append(ev.sup)
    return ev, hist


def _result(ds, ev, hist, quad, y, opts, t0, mode, **diagnostics):
    """BalanceResult of the evaluation and history _iterate returned, on the
    seed's quadrature quad; the diagnostics gain the moment center, the
    solve's node count and sup |sigma - 2| over the solve's nodes from the
    exact cumulants of Phi_x in that evaluation (_DSpace._cumulants)."""
    wall_time = time.perf_counter() - t0
    k3, k4 = ds._cumulants(ev)[1:]
    diagnostics.update(moment_center=ds.moment_center(ev.x),
                       sigma_core_err=_sigma_err(ds.m, ev.k2, k3, k4),
                       solve_nodes=ds.t.size)
    return BalanceResult(ds.m, ev.x, quad, y, hist, hist[-1] <= opts.tolerance,
                         len(hist) - 1, wall_time, mode, diagnostics)


def tk_iterate(m, P0, opts=SolverOptions()):
    """Fixed-point iteration on the Gram diagonal (the classical self-map).

    Starting from the Gram diagonal of P0, iterate x -> log((m+1) G(Phi_x)),
    each iterate moment-centered; the step is the full map, undamped.  The
    residual history records sup|B_m - C_m| of every iterate, the seed's
    included.  Non-convergence within max_iterations steps returns
    converged = False with the full history; the returned x is always the
    last evaluated iterate.
    """
    t0 = time.perf_counter()
    ds, x0 = _seed(m, P0)

    def step(ev):
        return _centered(ds, np.log((m + 1) * ev.G))

    ev, hist = _iterate(ds, x0, opts, step)
    return _result(ds, ev, hist, P0.quad, None, opts, t0, "fixed-point")


def _newton_step(ds, ev):
    """Newton's step dx for R(x) = log((m+1) G(Phi_x)) - x at ev, from one
    square solve; None if that system is singular.

    J = A - I has the null directions 1 and j: R does not see the scale,
    and _centered removes the torus.  So dx is fixed in the gauge dx_0 =
    dx_m = 0, as no nonzero a + b j vanishes at 0 and m.  Since diag(w)(I -
    A), w = e^{-x} G, is symmetric and annihilates 1 and j, w and j w are
    left null vectors of J and span the complement of its range.  With them
    in columns 0 and m the system is square and regular; its entries 0 and
    m, the coefficients of R's part off the range, are dropped.  What is
    left is the least-squares step up to span{1, j}.
    """
    m = ds.m
    J = ds.jacobian(ev)
    J[np.diag_indices(m + 1)] -= 1.0
    w = np.exp(-ev.x) * ev.G
    J[:, 0] = w
    J[:, m] = ds.j * w
    try:
        dx = np.linalg.solve(J, ev.x - np.log((m + 1) * ev.G))
    except np.linalg.LinAlgError:
        return None
    dx[[0, m]] = 0.0
    return dx


def _gauss_newton(ds, x0, opts):
    """Newton (exact Jacobian) on R(x) = log((m+1) G(Phi_x)) - x.

    Each step solves one square system (_newton_step), in the gauge
    dx_0 = dx_m = 0 for the scale and torus null directions 1 and j;
    _centered then moves each trial to moment center 0.  A singular system
    declines the step.  The roots are exactly the balanced diagonals.  The
    step length is measured, not set: the trials x + a dx, a = 1, 1/2, ...,
    1/64, are moment-centered and evaluated in turn, and the first whose
    residual is below (1 - 1e-4 a) times the last one is taken (Dennis &
    Schnabel 1983, ch. 6); if none is, the step declines.  So the history
    falls strictly, and a solve held on its rounding floor ends at a
    declined step, after its 7 trials.  Returns _iterate's (evaluation,
    history).
    """

    def step(ev):
        dx = _newton_step(ds, ev)
        if dx is None:
            return None
        for a in 0.5 ** np.arange(7):
            trial = _centered(ds, ev.x + a * dx)
            if trial.sup < (1.0 - 1e-4 * a) * ev.sup:
                return trial
            del trial   # free a declined trial before the next is evaluated
        return None

    return _iterate(ds, x0, opts, step)


def _newton_orders(hist, floor=1e-13):
    """Local convergence orders from the residual history.

    Entries at the evaluation floor are excluded: once the residual sits on
    rounding noise the ratios stop reflecting the iteration.
    """
    rs = [r for r in hist if r > floor]
    orders = []
    for i in range(1, len(rs) - 1):
        den = np.log(rs[i] / rs[i - 1])
        if rs[i] < rs[i - 1] and rs[i + 1] < rs[i] and abs(den) > 1e-3:
            orders.append(float(np.log(rs[i + 1] / rs[i]) / den))
    return orders


def newton_balance(m, P0, opts=SolverOptions()):
    """Newton's method for the balanced equation at level m.

    Assembles the exact Jacobian of the Gram self-map and shows quadratic
    convergence; the result's mode is "newton-exact".
    """
    t0 = time.perf_counter()
    ds, x0 = _seed(m, P0)
    ev, hist = _gauss_newton(ds, x0, opts)
    return _result(ds, ev, hist, P0.quad, None, opts, t0, "newton-exact",
                   orders=_newton_orders(hist))


def t_balance(m, P0, opts=SolverOptions()):
    """The T-balanced metric at level m: the balanced solve at torus weight
    y = 0, with the moment pairing M(0) = int (K - C_m) f_moment dmu of its
    last evaluation as diagnostics["moment_pairing"], f_moment = mu/m - 1/2:
    it reads dev and mu of that _Evaluation (see _DSpace.evaluate), no pass.

    The torus weight is the root of M(y), and in this model that root is
    y = 0 for every seed: the moment-centered solution is the round metric,
    and M(y) changes sign only there (about -0.75 y at m = 8).  At a fixed
    y != 0 the term j y lies in the torus direction that moment-centering
    removes, so a solve there stalls at a residual of about (m + 1) |y| / 2
    (4.5 |y| at m = 8, 20.5 |y| at m = 40); so no other weight is tried.
    """
    t0 = time.perf_counter()
    ds, x0 = _seed(m, P0)
    ev, hist = _gauss_newton(ds, x0, opts)
    return _result(ds, ev, hist, P0.quad, 0.0, opts, t0, "t-balance",
                   orders=_newton_orders(hist),
                   moment_pairing=ds._integral(ev.dev * (ev.mu / m - 0.5), ev))


def _family_verdicts(d, s, d_floor, s_floor, all_converged):
    """Verdicts on the curves d_m and sup|sigma_m - 2| (see balanced_family).

    A value at or below its level's floor counts as converged; a value above
    it must fall as the curve is required to.
    """
    d_at = d <= d_floor
    s_at = s <= s_floor
    return {
        "all_converged": all_converged,
        "d_non_increasing": bool(np.all(d_at[1:] | (d[1:] <= 1.1 * d[:-1]))),
        "d_last_below_first": bool(d.size < 2 or d_at[-1] or d[-1] < d[0]),
        "sigma_decreasing": bool(np.all(s_at[1:] | (s[1:] < s[:-1]))),
    }


def balanced_family(m_range, P_seed, opts=SolverOptions()):
    """Continuation over increasing levels, warm-started from the previous
    solution; reports the distance curve d_m = sup|phi_m| to the constant
    scalar curvature reference (phi = 0) and the curve sup|sigma_m - 2|.

    The seed's window must accommodate the largest level.  A level that fails
    to converge truncates the report at its index.  Each level after the
    first is seeded from the previous level's result, the Gram diagonal of
    its Phi_x on the level's own u-rule (_seed), where Phi_x is analytic in
    u.  Phi_x is round, and so balanced at every level: the level takes 0
    Newton steps, at a residual below 1e-13 (Fubini-Study and bump families
    at levels 5 to 40).  d_m reads phi exactly on the level's u-rule, where
    its residual and sigma are read.

    In this model every balanced metric is the round one, so both curves
    measure the evaluation's own floor, which grows with m.  Each level
    therefore gets a floor per curve (d_floor, sigma_floor), computed by
    _DSpace.round_floors: the closed-form round diagonal's phi and sigma on
    the same nodes, widened by what the level's final residual allows
    through the closed-form slow eigenpair of the round Jacobian and, for
    sigma, by its rounding bound.  A value at or below its floor counts as
    converged.  The verdicts:

    * all_converged: every level converged;
    * d_non_increasing: each d_m is at its floor or at most 1.1 times the
      previous level's;
    * d_last_below_first: the last d_m is at its floor or below the first;
    * sigma_decreasing: each sup|sigma_m - 2| is at its floor or strictly
      below the previous level's.
    """
    levels = [int(m) for m in m_range]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    results = []
    rows = []   # d_m, sup|sigma_m - 2| and their floors, per solved level
    failure_index = None
    for i, m in enumerate(levels):
        res = newton_balance(m, results[-1] if results else P_seed, opts)
        results.append(res)
        if not res.converged:
            failure_index = i
            break
        ds = _DSpace(m)
        rows.append((float(np.max(np.abs(ds.node_phi(res.x)))),
                     res.diagnostics["sigma_core_err"])
                    + ds.round_floors(res.final_residual))
    d, s, d_floor, sigma_floor = np.array(rows).reshape(-1, 4).T
    verdicts = _family_verdicts(d, s, d_floor, sigma_floor,
                                failure_index is None)
    return FamilyReport(levels[:len(results)], results, d, s, d_floor,
                        sigma_floor, verdicts, failure_index)


def uniqueness_probe(m, seeds, opts=SolverOptions()):
    """Balanced solves from several seeds; pairwise sup-distances of the
    moment-centered solutions of those that converged, read exactly on the
    level's u-rule, where each solve was read.  Passes when all distances
    are <= 1e-6."""
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    results = [newton_balance(m, seed, opts) for seed in seeds]
    kept = [i for i, res in enumerate(results) if res.converged]
    excluded = [i for i, res in enumerate(results) if not res.converged]
    ds = _DSpace(m)
    phi = {i: ds.node_phi(results[i].x) for i in kept}
    dist = np.zeros((len(results), len(results)))
    for a in kept:
        for b in kept:
            dist[a, b] = np.max(np.abs(phi[a] - phi[b]))
    max_distance = float(dist.max())
    return UniquenessReport(results, dist, max_distance,
                            passed=bool(max_distance <= 1e-6 and kept),
                            excluded=excluded)
