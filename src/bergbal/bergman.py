"""Gram matrices, Bergman kernels, the expansion fit, and weighted variants.

The section basis of O(m) is z^j, j = 0..m, with pointwise norm
e^{jt - m Phi(t)} in the log coordinate.  Circle invariance makes the Gram
matrix diagonal:

    G_jj = int e^{jt - m Phi(t)} Phi''(t) dt,

and the kernel (with the dimension/level normalization of degree one) is

    B_m(t) = (1/m) sum_j e^{jt - m Phi(t)} / G_jj.

Torus reweighting scales each monomial line by e^{j y} (the lift is fixed so
z^j has weight j; a different lift multiplies everything by a global factor).

The engine is three private functions on the section rows at the nodes of a
potential: _rows forms e^{jt - m Phi} from samples of Phi, _gram integrates
rows against a density with exact Beta tails, and _kernel is one
matrix-vector product of the rows with the inverse Gram weights.  _kernel
takes rows R with a per-row scale s, the row j being s_j R_j: the x = log D
solvers (solvers._DSpace) pass the softmax they hold with s = e^x, so the
rows are never formed there, and form their own Gram diagonal on nodes that
need no tails; a solve's seed is _rows of its input on those nodes.  Both
exponential passes go through _exp_floor, which skips the exponentials that
fall below the smallest normal double.  Volume integrals go through
model.integrate.

The Gram diagonal is integrated on the nodes only.  The kernel and its
second derivative (_kernel_d2, from the rows, Phi' and the density) take
rows at any points, so a kernel at other points, such as the knots of a
report's tables, is _rows there against the same Gram diagonal
(kernel_at, beta_at and expansion_fit's t).
"""
import numpy as np

from .model import (GridFunction, discretization_errors, grid_function,
                    integrate, log_factorials, scalar_curvature)

MAX_LEVEL = 200
# largest |y| m for the weights e^{jy}, j <= m (e^709 overflows float64)
MAX_EXPONENT = 700.0
# ln of the smallest normal double: e^z is normal exactly for z >= _LOG_TINY
_LOG_TINY = float(np.log(np.finfo(float).tiny))


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


class BergmanReport:
    """Kernel report at one level of the potential P.  `kernel` carries the
    values and the second derivative (d2, which beta reads) at the nodes;
    other derivatives fall back to spline differentiation of the values.
    `weights` are the kernel's G_jj e^{jy}, from which kernel_at samples it
    at other points."""

    def __init__(self, level, kernel, expected_constant, sup_deviation,
                 potential, weights, weight=0.0):
        self.level = level
        self.kernel = kernel
        self.expected_constant = expected_constant
        self.sup_deviation = sup_deviation
        self.potential = potential
        self.weights = weights
        self.weight = weight


def _check_level(m):
    m = int(m)
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError("level m must be in [1, %d], got %d" % (MAX_LEVEL, m))
    return m


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
    """section_norms(m, P) and the rows it integrates, at all nodes."""
    m = _check_window(m, P.window)
    factors = (np.exp(-m * P.c_minus), np.exp(-m * P.c_plus))
    E = _rows(m, P.quad.nodes, P.node_values("Phi"))
    G = _gram(m, P.quad, E, P.node_values("dens"), factors)
    return GramDiagonal(m, G), E


def section_norms(m, P):
    """Squared L^2 norms of the monomial sections z^j, j = 0..m.

    Interior panels are integrated by the potential's scheme; the two tails
    are closed-form incomplete Beta integrals (the perturbation is constant
    outside the window), so the Fubini-Study diagonal reproduces the Beta
    oracle j!(m-j)!/(m+1)! to machine precision.
    """
    return _norms_and_rows(m, P)[0]


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
    """Modified kernel beta = 2m (Id + (2/(3m)) Delta)(B_m - C_m).

    Vanishes exactly iff B_m is constant; tends to sigma - 2 as m grows.
    """
    return beta_weighted(m, P, 0.0)


def weighted_bergman(m, P, y):
    """Torus-weighted kernel: the j-th monomial line is scaled by e^{j y}.

    y = 0 is the Bergman kernel, whose expected constant is c_of_m(m);
    otherwise it is c_weighted, int K_y(u + y) dmu(u), read from the rows
    formed once: K_y(u + y) = K_0(u) e^{m (Phi(u) - Phi(u + y))}, and K_0 =
    (1/m) sum_j E_j / G_jj from the same rows E.
    """
    m = _check_level(m)
    y = float(y)
    if not abs(y) * m <= MAX_EXPONENT:
        raise ValueError("weight scaling exp(m y) exceeds floating range: "
                         "|y| m = %.3g" % (abs(y) * m))
    G, E = _norms_and_rows(m, P)
    w = G.entries * np.exp(np.arange(m + 1.0) * y)
    K = _kernel(m, E, w)
    kern = grid_function(P, K, name="B_%d%s" % (m, "_weighted" if y else ""),
                         d2=_kernel_d2(m, E, P.node_values("Phi1"),
                                       P.node_values("dens"), w))
    if y == 0.0:
        expected = c_of_m(m)
    else:
        K0 = _kernel(m, E, G.entries)
        shift = np.exp(m * (P.node_values("Phi") - P.Phi(P.quad.nodes + y)))
        expected = integrate(P, K0 * shift)
    return BergmanReport(m, kern, expected,
                         float(np.max(np.abs(K - expected))), P, w, weight=y)


def kernel_at(rep, t):
    """The kernel of rep and its d2 at the points t, a GridFunction there:
    the potential's rows at t against rep's weights, with no second Gram
    diagonal."""
    m, P = rep.level, rep.potential
    t = np.asarray(t, dtype=float)
    R = _rows(m, t, P.Phi(t))
    return GridFunction(_kernel(m, R, rep.weights), t, name=rep.kernel.name,
                        d2=_kernel_d2(m, R, P.Phi_d(t, 1), P.density(t),
                                      rep.weights))


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
    -(d/dt)^2 / Phi'', as a GridFunction at the nodes (t None) or at the
    points t (kernel_at)."""
    m, P = rep.level, rep.potential
    if t is None:
        kern, dens = rep.kernel, P.node_values("dens")
    else:
        kern = kernel_at(rep, t)
        dens = P.density(kern.nodes)
    dev = kern.values - rep.expected_constant
    lap = -kern.d2 / dens
    return GridFunction(2.0 * m * dev + (4.0 / 3.0) * lap, kern.nodes,
                        name="beta_%d%s" % (m, "_weighted" if rep.weight
                                            else ""))


def beta_weighted(m, P, w):
    """Weighted modified kernel at the coefficient w of the torus generator:
    the level-m weight is y = w / m^2 on the monomial z^j (weight j).

    w = 0 is beta(m, P).  beta_at(beta_report(m, P, w), t) samples the same
    beta at other points, from the same Gram diagonal.
    """
    return beta_at(beta_report(m, P, w))


class FitReport:
    """The fit's a1 and a2 at the nodes, and at the points of expansion_fit's
    t as the pair `at` (None without t)."""

    def __init__(self, a1, a2, levels, residual_sup, first_order_error,
                 sup_a1_error, metadata, at):
        self.a1 = a1
        self.a2 = a2
        self.at = at
        self.levels = levels
        self.residual_sup = residual_sup
        self.first_order_error = first_order_error
        self.sup_a1_error = sup_a1_error
        self.metadata = metadata


def expansion_fit(P, m_list, t=None):
    """Fit B_m(t) = 1 + a1 q + a2 q^2 (q = 1/m) per node over the levels.

    The constant term is pinned at 1.  Returns the fitted a1 as a grid
    function together with the per-level sup residuals, the per-level
    first-order errors sup|B_m - 1 - sigma/(2m)| (the sup of what is left
    after the first-order model; decays faster than 1/m), and
    sup|a1 - sigma/2|, all read at the nodes.  With points t the same fit
    is made at t too, from the kernel values there against the same Gram
    diagonals, and FitReport.at holds its (a1, a2) on t.
    """
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

    Phi_t = None if t is None else P.Phi(t)

    def values(m):
        # bergman_kernel's values bit for bit, without its d2 pass, and the
        # kernel at t from the same Gram diagonal
        G, E = _norms_and_rows(m, P)
        return (_kernel(m, E, G.entries), None if t is None
                else _kernel(m, _rows(m, t, Phi_t), G.entries))

    kernels, kernels_t = zip(*map(values, m_list))
    kernels = np.stack(kernels)
    coef, *_ = np.linalg.lstsq(V, kernels - 1.0, rcond=None)
    a1 = grid_function(P, coef[0], name="a1_fit")
    a2 = grid_function(P, coef[1], name="a2_fit")
    at = None
    if t is not None:
        c = np.linalg.lstsq(V, np.stack(kernels_t) - 1.0, rcond=None)[0]
        at = (GridFunction(c[0], t, name="a1_fit"),
              GridFunction(c[1], t, name="a2_fit"))
    model = 1.0 + V @ coef
    residual_sup = np.max(np.abs(kernels - model), axis=1)
    sig = scalar_curvature(P).values
    first_order = np.array([np.max(np.abs(kernels[i] - 1.0 - 0.5 * sig / m))
                            for i, m in enumerate(m_list)])
    sup_a1 = float(np.max(np.abs(coef[0] - 0.5 * sig)))
    meta = {"degree": 2, "constant_pinned": True, "levels": list(m_list),
            "condition_number": float(cond)}
    return FitReport(a1, a2, list(m_list), residual_sup, first_order,
                     sup_a1, meta, at)


def gram_derivative(m, P, psi):
    """Directional derivative of the Gram diagonal along the path
    h_eps = e^{-eps psi} h with its induced volume:

        d/deps G_jj = int e^{jt - m Phi} (-m psi Phi'' + psi'') dt.

    psi must be mean-zero against the volume (tolerance 1e-10).
    """
    m = _check_level(m)
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
    m = _check_level(m)
    _check_mean_zero(P, psi)
    G, E = _norms_and_rows(m, P)
    dG = _gram_derivative(m, P, psi, E)
    corr = _kernel(m, E, G.entries ** 2, dG)
    B = _kernel(m, E, G.entries)
    return grid_function(P, -m * psi.values * B - corr,
                         name="dB_%d" % m)
