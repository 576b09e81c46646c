"""Gram matrices, Bergman kernels, the expansion fit, and weighted variants.

The section basis of O(m) is z^j, j = 0..m, with pointwise norm
e^{jt - m Phi(t)} in the log coordinate.  Circle invariance makes the Gram
matrix diagonal:

    G_jj = int e^{jt - m Phi(t)} Phi''(t) dt,

and the kernel (with the dimension/level normalization of degree one) is

    B_m(t) = (1/m) sum_j e^{jt - m Phi(t)} / G_jj.

Torus reweighting scales each monomial line by e^{j y} (the lift is fixed so
z^j has weight j; a different lift multiplies everything by a global factor).

_rows forms the section rows e^{jt - m Phi} from samples of Phi, through
_exp_floor, and _kernel is one matrix-vector product of rows R with inverse
Gram weights and a row scale s; the x = log D solvers (solvers._DSpace)
pass their softmax with s = e^x, so their rows are never formed.  The one
Gram function, _gram_rows, is one P.read of phi and the density at the nodes
of _u_rule, a Gauss-Legendre rule in u = expit(t) where the integrand is
smooth on [0, 1], and the rows there against its weights: no window and no
tails.  A solve's seed takes m + 64 nodes, the kernel commands 4m + 256
(KERNEL_NODES).  Tabulated input, a quintic spline only C^4 at its knots,
keeps the composite t-rule with exact Beta tails (_norms_and_rows), chosen
by its type; so do gram_derivative and bergman_derivative.  A kernel report
holds the Gram weights alone: the kernel, its d2 (_kernel_d2) and beta are
read once, at the points asked for, the knots of the tables by default.
kernel_at and beta_at take Phi, Phi' and the density from the potential's
samples, which reads them at the knots once per potential however many
levels a command runs, and points passed explicitly afresh.
"""
import collections
import functools

import numpy as np

from .model import (GridFunction, SplinePotential, discretization_errors,
                    fs_derivative, grid_function, integrate, log_factorials,
                    scalar_curvature)

MAX_LEVEL = 200
# largest |y| m for the weights e^{jy}, j <= m (e^709 overflows float64)
MAX_EXPONENT = 700.0
# ln of the smallest normal double: e^z is normal exactly for z >= _LOG_TINY
_LOG_TINY = float(np.log(np.finfo(float).tiny))
# n = 4 m + 256 nodes for a kernel command's u-rule: on the bump (0.08, 1.3,
# 0.45) its G is within 3.3e-13, 6.9e-14, 2.1e-14 and 2.5e-14 of the
# t-rule's at m = 8, 40, 120 and 200, where m + 64 misses by up to 1.2e-7
KERNEL_NODES = (4, 256)


class WindowError(ValueError):
    """Truncation window too small for the requested level."""


class DegenerateFitError(ValueError):
    """Expansion fit with an (numerically) rank-deficient design."""


class GramDiagonal:
    """Diagonal Gram matrix of the monomial basis at level m.

    Off-diagonal entries vanish identically by circle invariance and are
    never stored.
    """

    def __init__(self, level, entries):
        self.level = int(level)
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.size != self.level + 1:
            raise ValueError("Gram diagonal must have m+1 entries")
        if np.any(self.entries <= 0.0) or not np.all(np.isfinite(self.entries)):
            raise ValueError("Gram entries must be positive and finite")


# a kernel report: the weights G_jj e^{jy} from which kernel_at reads the
# kernel at any points, and the size of the rule G was integrated on
BergmanReport = collections.namedtuple(
    "BergmanReport", "level expected_constant potential weights weight "
    "gram_nodes")


def _check_level(m):
    m = int(m)
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError("level m must be in [1, %d], got %d" % (MAX_LEVEL, m))
    return m


@functools.lru_cache(maxsize=None)
def _u_rule(n):
    """The n-point Gauss-Legendre rule in u = expit(t) on [0, 1] as nodes
    t = log u - log(1 - u) and dt-weights w_u / (u (1 - u)), cached and
    read-only.  The roots x = cos theta >= 0 of P_n come from Newton's
    method in theta from Tricomi's phi + cot(phi) / (8 v^2), phi = pi (k -
    1/4) / v, v = n + 1/2, the others mirrored, t -> -t; P_n and P_{n-1}
    from the recurrence on P_k and D_k = P_k - P_{k-1} in s = 1 - x,
    (k + 1) D_{k+1} = k D_k - (2k + 1) s P_k, which never forms x and keeps
    s's relative accuracy near x = 1.  t = 2 log cot(theta/2), and the
    dt-weight is 4 / ((1 - x^2) P_n')^2 = 4 / (n (P_{n-1} - x P_n))^2, which
    a node's rounding moves only to second order.  Against 40 digits at
    n = 65, 264 and 1,056 t is within 1.2e-15 and the weights 6.9e-15
    relative (the dense Golub-Welsch rule it replaced: 3.7e-11, 3.0e-11)."""
    phi = np.pi * (np.arange(1.0, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    theta = phi + 1.0 / (8.0 * (n + 0.5) ** 2 * np.tan(phi))
    done = False
    for _ in range(12):
        half = np.sin(0.5 * theta)
        s = 2.0 * half * half
        p, d = 1.0 - s, -s
        for k in range(1, n):
            d *= k / (k + 1.0)
            d -= ((2.0 * k + 1.0) / (k + 1.0)) * s * p
            p += d
        dp = n * (p - d - (1.0 - s) * p)    # (1 - x^2) P_n'(x)
        if done:
            break
        step = p * np.sin(theta) / dp
        theta += step
        # quadratic: the error left after this step is far below rounding
        done = np.max(np.abs(step) / theta) <= 1e-11
    t = 2.0 * (np.log(np.cos(0.5 * theta)) - np.log(half))
    if n % 2:
        t[-1] = 0.0
    t = np.concatenate((-t, t[:n // 2][::-1]))
    w = 4.0 / dp ** 2
    w = np.concatenate((w, w[:n // 2][::-1]))
    t.flags.writeable = w.flags.writeable = False
    return t, w


def fs_tails(m, window):
    """Exact Fubini-Study tail integrals of x^j (1-x)^{m-j} dx beyond the window.

    Left tail is over t < -T (x < expit(-T)), right over t > T.  Multiplied by
    e^{-m c} these are the exact Gram tails for any potential whose
    perturbation equals the constant c beyond the window.  With integer
    parameters the incomplete Beta function is a finite Bernstein sum:
    left_j = B(j+1, m-j+1) sum_{k > j} C(m+1, k) x^k (1-x)^{m+1-k} at x =
    expit(-T), each term formed in log space and the sum as a running
    logaddexp, so that no term underflows before it is scaled by the Beta
    function.  The right tail is the left one reflected, j -> m - j.
    """
    lf = log_factorials(m + 1)
    k = np.arange(m + 2.0)
    # log x = -log(1 + e^T) and log(1 - x) = -log(1 + e^{-T})
    terms = (lf[-1] - lf - lf[::-1]) - k * np.logaddexp(0.0, window) \
        - (m + 1 - k) * np.logaddexp(0.0, -window)
    tail_sums = np.logaddexp.accumulate(terms[::-1])[::-1]
    left = np.exp(lf[:-1] + lf[-2::-1] - lf[-1] + tail_sums[1:])
    return left, left[::-1]


def _exp_floor(z, low):
    """e^z in place, with the entries below _LOG_TINY set to +0.0.

    low bounds each column of z from below.  np.exp is many times slower on
    an entry whose result underflows or is subnormal than on a normal one,
    and such an entry is below the rounding of any sum that holds a normal
    term.  So where low can fall below _LOG_TINY, only the entries at or
    above it are exponentiated and the rest are set to +0.0; otherwise, as
    at every level m <= 30 on the default window, this is np.exp.  Every
    result that np.exp gives as a normal number is np.exp's, bit for bit.
    """
    if low.min() >= _LOG_TINY:
        return np.exp(z, out=z)
    drop = z < _LOG_TINY    # False at a NaN, which np.exp keeps
    np.exp(z, out=z, where=~drop)
    np.copyto(z, 0.0, where=drop)
    return z


def _rows(m, t, Phi):
    """Section rows e^{jt - m Phi(t)}, j = 0..m, from the samples Phi(t);
    each column's least exponent, min(0, m t) - m Phi(t), bounds it for
    _exp_floor."""
    mPhi = m * Phi
    z = np.multiply.outer(np.arange(m + 1.0), t)
    z -= mPhi
    return _exp_floor(z, np.minimum(0.0, m * t) - mPhi)


def _gram(m, quad, R, integrand, factors):
    """int e^{jt - m Phi} integrand dt, j = 0..m, from the rows R.

    The rows R are e^{jt - m Phi}, R and integrand sampled at the nodes of
    quad.  Beyond the window Phi must be log(1 + e^t) plus a constant c
    and the integrand a multiple of its density, so each tail is fs_tails
    times its factor, that multiple times e^{-m c}.
    """
    left, right = fs_tails(m, quad.window)
    G = R[:, 1:-1] @ (quad.inner_weights * integrand[1:-1])
    return G + factors[0] * left + factors[1] * right


def _kernel(m, R, weights, s=1.0):
    """(1/m) sum_j s_j R_j / weights_j, one matrix-vector product; R is
    left as it is."""
    return ((s / weights) @ R) / m


def _check_window(m, window):
    """m as an int: a ValueError unless it is a level in [1, MAX_LEVEL], and
    a WindowError unless the window is wide enough for it."""
    m = _check_level(m)
    for _, message in discretization_errors(window, None, None, m):
        raise WindowError("window " + message)
    return m


def _norms_and_rows(m, P):
    """P's Gram diagonal on its t-nodes at a level m its window carries, and
    the rows it integrates: for tabulated input and the Gram derivatives."""
    factors = (np.exp(-m * P.c_minus), np.exp(-m * P.c_plus))
    E = _rows(m, P.quad.nodes, P.node_values("Phi"))
    G = _gram(m, P.quad, E, P.node_values("dens"), factors)
    return GramDiagonal(m, G), E


def _gram_rows(m, P, n=None):
    """The Gram diagonal of P at level m, the rows E it integrates, their
    nodes t and the volume integral of samples there.  It is the one Gram
    function: on the n-point u-rule, from one P.read of phi and the density
    at its nodes, P a RadialPotential or a solve's BalanceResult; if n is
    None it is 4m + 256 (KERNEL_NODES), and a spline keeps its t-rule.
    Raises ValueError unless m is in [1, MAX_LEVEL] and WindowError unless
    P's window carries level m."""
    m = _check_window(m, P.quad.window)
    if n is None:
        if isinstance(P, SplinePotential):
            return _norms_and_rows(m, P) + (P.quad.nodes,
                                            functools.partial(integrate, P))
        n = KERNEL_NODES[0] * m + KERNEL_NODES[1]
    t, w = _u_rule(n)
    phi, dens = P.read(t)
    E = _rows(m, t, fs_derivative(t, 0) + phi)
    mass = w * dens
    return GramDiagonal(m, E @ mass), E, t, mass.__matmul__


def section_norms(m, P):
    """Squared L^2 norms of the monomial sections z^j, j = 0..m: on the
    round metric the Beta function j!(m-j)!/(m+1)! to rounding, the u-rule's
    integrand being a polynomial of degree m in u."""
    return _gram_rows(m, P)[0]


def _kernel_d2(m, R, Phi1, dens, weights):
    """The second derivative of _kernel(m, R, weights) at points where the
    rows are R, Phi' is Phi1 and the density Phi'' is dens: through a_j =
    j - m Phi', R_j'' = (a_j^2 - m Phi'') R_j.
    """
    # float: an int j is cast entry by entry below
    a = np.arange(m + 1.0)[:, None] - m * Phi1[None, :]
    # (a^2 - m Phi'') R built in place: one (m+1) x N array besides R
    a *= a
    a -= m * dens[None, :]
    a *= R
    return _kernel(m, a, weights)


def c_of_m(xi):
    """The expected kernel constant C_xi = (xi+1)/xi on the model.

    The Hilbert polynomial is P(xi) = xi + 1 and the polarization has degree
    one, so at integer xi = m this is N_m/m.
    """
    xi = float(xi)
    if xi <= 0.0:
        raise ValueError("C_xi has a pole at xi = 0; xi must be positive")
    return (xi + 1.0) / xi


def bergman_kernel(m, P):
    """Level-m Bergman kernel report; constant iff the metric is balanced."""
    return weighted_bergman(m, P, 0.0)


def beta(m, P):
    """Modified kernel beta = 2m (Id + (2/(3m)) Delta)(B_m - C_m) at the
    knots of P: vanishes exactly iff B_m is constant; tends to sigma - 2."""
    return beta_weighted(m, P, 0.0)


def weighted_bergman(m, P, y):
    """Torus-weighted kernel: the j-th monomial line is scaled by e^{j y}.

    y = 0 is the Bergman kernel, whose expected constant is c_of_m(m);
    otherwise it is c_weighted, int K_y(u + y) dmu(u) on the Gram
    diagonal's nodes, from its rows E formed once: K_y(u + y) = K_0(u)
    e^{m (Phi(u) - Phi(u + y))}, K_0 = (1/m) sum_j E_j / G_jj.
    """
    m = _check_level(m)
    y = float(y)
    if not abs(y) * m <= MAX_EXPONENT:
        raise ValueError("weight scaling exp(m y) exceeds floating range: "
                         "|y| m = %.3g" % (abs(y) * m))
    G, E, t, volume = _gram_rows(m, P)
    if y == 0.0:
        expected = c_of_m(m)
    else:
        K0 = _kernel(m, E, G.entries)
        expected = volume(K0 * np.exp(m * (P.Phi(t) - P.Phi(t + y))))
    return BergmanReport(m, expected, P,
                         G.entries * np.exp(np.arange(m + 1.0) * y), y, t.size)


def kernel_at(rep, t=None):
    """The kernel of rep and its d2 as a GridFunction at the points t (the
    knots if None): the potential's rows at t against rep's weights."""
    m, P = rep.level, rep.potential
    Phi, Phi1, dens = (P.samples(key, t) for key in ("Phi", "Phi1", "dens"))
    t = P.quad.knots if t is None else np.asarray(t, dtype=float)
    R = _rows(m, t, Phi)
    return GridFunction(_kernel(m, R, rep.weights), t,
                        name="B_%d%s" % (m, "_weighted" if rep.weight else ""),
                        d2=_kernel_d2(m, R, Phi1, dens, rep.weights))


def c_weighted(m, P, y):
    """Weighted constant: mean of the weighted kernel against the volume
    pulled back by the torus element (density Phi''(t - y)), equal to int
    K_y(u + y) dmu(u); see weighted_bergman."""
    return weighted_bergman(m, P, y).expected_constant


def beta_report(m, P, w):
    """The kernel report of beta_weighted(m, P, w): weighted_bergman at the
    level-m weight y = w / m^2 of the torus generator's coefficient w."""
    m = _check_level(m)
    return weighted_bergman(m, P, w / float(m) ** 2)


def beta_at(rep, t=None):
    """beta = 2m (B - C) + (4/3) Delta B of the kernel report rep, Delta =
    -(d/dt)^2 / Phi'', as a GridFunction at the points t, the knots of its
    potential if None (kernel_at)."""
    m, P = rep.level, rep.potential
    kern = kernel_at(rep, t)
    lap = -kern.d2 / P.samples("dens", t)
    return GridFunction(2.0 * m * (kern.values - rep.expected_constant)
                        + (4.0 / 3.0) * lap, kern.nodes,
                        name="beta_%d%s" % (m, "_weighted" if rep.weight
                                            else ""))


def beta_weighted(m, P, w):
    """Weighted modified kernel at the knots of P, at the coefficient w of
    the torus generator: the level-m weight is y = w / m^2 (see
    beta_report).  w = 0 is beta(m, P); beta_at(beta_report(m, P, w), t)
    reads it at other points t."""
    return beta_at(beta_report(m, P, w))


# the fit's a1 and a2 at the points of expansion_fit, the errors there and
# the scalar curvature sigma they were measured against
FitReport = collections.namedtuple(
    "FitReport", "a1 a2 levels residual_sup first_order_error sup_a1_error "
    "metadata sigma")


def expansion_fit(P, m_list, t=None):
    """Fit B_m(t) = 1 + a1 q + a2 q^2 (q = 1/m), the constant pinned at 1,
    over the levels at the points t, the knots of P if None: the kernel
    values there, with no d2, against each level's Gram diagonal, whose
    rule sizes are metadata["gram_nodes"].  Returns a1 and a2 as grid
    functions at t, the per-level sup residuals, the per-level first-order
    errors sup|B_m - 1 - sigma/(2m)| (decaying faster than 1/m),
    sup|a1 - sigma/2| and sigma itself, all read at t."""
    m_list = [_check_level(m) for m in m_list]
    if len(set(m_list)) != len(m_list):
        raise DegenerateFitError("duplicated levels in %r" % (m_list,))
    if len(m_list) < 3:
        raise ValueError("need at least 3 levels, got %r" % (m_list,))
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("levels must be strictly increasing")
    q = 1.0 / np.asarray(m_list, dtype=float)
    V = np.stack([q, q * q], axis=1)
    cond = np.linalg.cond(V)
    if cond > 1e12:
        raise DegenerateFitError("fit design condition number %.2e" % cond)

    t = P.quad.knots if t is None else np.asarray(t, dtype=float)
    Phi_t = P.Phi(t)
    kernels, nodes = [], []
    for m in m_list:
        G, _, tg, _ = _gram_rows(m, P)
        kernels.append(_kernel(m, _rows(m, t, Phi_t), G.entries))
        nodes.append(tg.size)
    kernels = np.stack(kernels)
    coef, *_ = np.linalg.lstsq(V, kernels - 1.0, rcond=None)
    residual_sup = np.max(np.abs(kernels - (1.0 + V @ coef)), axis=1)
    sigma = scalar_curvature(P, t)
    sig = sigma.values
    first_order = np.array([np.max(np.abs(kernels[i] - 1.0 - 0.5 * sig / m))
                            for i, m in enumerate(m_list)])
    sup_a1 = float(np.max(np.abs(coef[0] - 0.5 * sig)))
    meta = {"degree": 2, "constant_pinned": True, "levels": list(m_list),
            "condition_number": float(cond), "gram_nodes": nodes}
    return FitReport(GridFunction(coef[0], t, name="a1_fit"),
                     GridFunction(coef[1], t, name="a2_fit"), list(m_list),
                     residual_sup, first_order, sup_a1, meta, sigma)


def gram_derivative(m, P, psi):
    """Directional derivative of the Gram diagonal along the path
    h_eps = e^{-eps psi} h with its induced volume:

        d/deps G_jj = int e^{jt - m Phi} (-m psi Phi'' + psi'') dt.

    psi must be mean-zero against the volume (tolerance 1e-10).
    """
    m = _check_window(m, P.window)
    _check_mean_zero(P, psi)
    return _gram_derivative(m, P, psi, _norms_and_rows(m, P)[1])


def _check_mean_zero(P, psi):
    mean = integrate(P, psi)
    if abs(mean) > 1e-10:
        raise ValueError("psi must be mean-zero against the volume; "
                         "mean = %.3e" % mean)


def _gram_derivative(m, P, psi, E):
    """gram_derivative from the rows E of P."""
    vals = psi.values
    integrand = -m * vals * P.node_values("dens") + psi.derivative(2)
    # psi'' vanishes beyond the window; the -m psi term has constant psi there
    factors = ((-m * vals[0]) * np.exp(-m * P.c_minus),
               (-m * vals[-1]) * np.exp(-m * P.c_plus))
    return _gram(m, P.quad, E, integrand, factors)


def bergman_derivative(m, P, psi):
    """Full derivative of B_m along the same path:

        dB = -m psi B_m - (1/m) sum_j e^{jt - m Phi} dG_jj / G_jj^2.

    When dG vanishes (psi in the kernel of gram_derivative) this is the pure
    contraction term -m psi B_m.
    """
    m = _check_window(m, P.window)
    _check_mean_zero(P, psi)
    G, E = _norms_and_rows(m, P)
    dG = _gram_derivative(m, P, psi, E)
    corr = _kernel(m, E, G.entries ** 2, dG)
    B = _kernel(m, E, G.entries)
    return grid_function(P, -m * psi.values * B - corr,
                         name="dB_%d" % m)
