"""Circle-invariant Kahler geometry on the projective line, degree-one polarization.

Everything is reduced to the log coordinate t = log|z|^2.  A metric is stored
as a perturbation phi of the Fubini-Study potential,

    Phi(t) = log(1 + e^t) + phi(t),

with phi given on a window [-T, T] and extended by its boundary constants
outside it: in closed form for the Fubini-Study potential (phi = 0) and the
Gaussian bump, and as a quintic spline on a uniform grid of knots over the
window for tabulated input and for potentials built from knot values (a
translate, the spline of a solve's output).  Only the spline needs scipy,
which it imports when it is built.  The volume density is Phi''(t) dt
(total mass 1, the degree), the scalar curvature is

    sigma = -(log Phi'')'' / Phi'',

normalized so that the Fubini-Study metric has sigma = 2 and the mean of
sigma is 2 for every metric in the class (Gauss-Bonnet).  A potential reads
its samples at the quadrature's nodes and at its knots once, on first use,
and keeps them read-only (node_values, samples).
"""
import functools
import math

import numpy as np

DECAY_TOL = 1e-10
# the bounds of discretization_errors: leggauss(order) diagonalizes an order
# x order matrix, and a run at top level m holds (m + 1) x n_nodes arrays
MIN_WINDOW = 10.0
MIN_GRID = 64
MAX_ORDER = 64
MAX_ARRAY_BYTES = 1 << 30
# the `quadrature` keys and their defaults: window None is default_window of
# the top level, and order counts Gauss-Legendre nodes per knot interval
QUADRATURE = {"window": None, "grid": 512, "order": 8}
# potential descriptor types: (required fields, optional fields)
POTENTIAL_FIELDS = {"fubini-study": ((), ()),
                    "gaussian-bump": (("amplitude", "width"), ("center",)),
                    "tabulated": (("t", "phi"), ())}
# the spline's second derivative carries ~1e-11 of rounding noise, so a far
# tail where the true density is ~e^{-T} can evaluate slightly below zero;
# only dips beyond this budget signal a genuine positivity violation
POSITIVITY_FLOOR = 1e-9


class PositivityError(ValueError):
    """Kahler positivity Phi'' > 0 fails somewhere."""

    def __init__(self, t, value):
        self.t = float(t)
        self.value = float(value)
        super().__init__(
            "Kahler positivity violated: Phi''(%.4f) = %.3e <= 0" % (t, value))


def default_window(m):
    """Default truncation half-width for Bergman computations at level m."""
    return 20.0 + np.log(m)


def min_window(m):
    """Least half-width at which the rows e^{jt - m Phi} of level m decay."""
    return 15.0 + np.log(m)


def discretization_errors(window, grid, order, top):
    """A (key, message) pair for each bound that the discretization (window,
    grid, order) breaks when it carries the levels up to top (0: no level).
    A None value is not checked; a None window is default_window(top)."""
    errors = []
    need = min_window(top) if top else MIN_WINDOW
    if window is not None and window < need:
        errors.append(("window", "%.2f too small for level %d: need at least "
                       "%.2f (default is %.2f)"
                       % (window, top, need, default_window(top)) if top
                       else "%.2f below the minimum %g" % (window, need)))
    if grid is not None and grid < MIN_GRID:
        errors.append(("grid", "%d below the minimum %d" % (grid, MIN_GRID)))
    if order is not None and not 2 <= order <= MAX_ORDER:
        errors.append(("order", "%d below the minimum 2" % order if order < 2
                       else "%d above the maximum %d" % (order, MAX_ORDER)))
    if grid is not None and order is not None:
        # n_nodes as Quadrature has it: order per knot interval, two ends
        size = 8 * (top + 1) * ((grid - 1) * order + 2)
        if size > MAX_ARRAY_BYTES:
            errors.append(("grid", "%d at order %d and level %d needs %d "
                           "bytes per array, above the maximum %d"
                           % (grid, order, top, size, MAX_ARRAY_BYTES)))
    return errors


def expit(t):
    """The logistic function 1/(1 + e^{-t}), with no overflow: from e =
    e^{-|t|}, 1/(1 + e) at t >= 0 and e/(1 + e) below."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def log_factorials(n):
    """log k! for k = 0..n, by math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _fs_pieces(t):
    # x = e^t/(1+e^t); y = Phi_fs''; w = 1-2x computed without cancellation;
    # x and 1 - x as expit(t) and expit(-t) from one e = e^{-|t|}
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    x = np.where(t >= 0.0, 1.0, e) / d
    xc = np.where(t <= 0.0, 1.0, e) / d
    return x, x * xc, xc - x


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    """leggauss(order) once per order, read-only: it diagonalizes an order x
    order matrix, 0.18 ms at order 8."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def fs_derivative(t, k):
    """k-th derivative of the Fubini-Study potential log(1+e^t), k = 0..5."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.logaddexp(0.0, t)
    x, y, w = _fs_pieces(t)
    if k == 1:
        return x
    if k == 2:
        return y
    if k == 3:
        return y * w
    if k == 4:
        return y * (w * w - 2.0 * y)
    if k == 5:
        return y * w * (w * w - 8.0 * y)
    raise ValueError("k out of range: %r" % (k,))


class Quadrature:
    """Composite Gauss-Legendre scheme on [-T, T] with endpoint tail nodes.

    One panel per knot interval.  The two window endpoints are genuine nodes:
    in integrals against the volume density they carry the exact mass of the
    two tails (Phi'(-T) on the left, 1 - Phi'(T) on the right), so the total
    volume is exact for every potential whose perturbation is constant
    outside the window.  The knots, nodes and weights are read-only: the
    potentials built from one another share their quadrature.
    """

    def __init__(self, window, grid_size, order):
        for error in discretization_errors(window, grid_size, order, 0):
            raise ValueError("%s %s" % error)
        self.window = float(window)
        self.grid_size = int(grid_size)
        self.order = int(order)
        self.knots = np.linspace(-self.window, self.window, self.grid_size)
        xg, wg = _leggauss(self.order)
        a, b = self.knots[:-1], self.knots[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        inner = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        winner = (half[:, None] * wg[None, :]).ravel()
        self.nodes = np.concatenate(([-self.window], inner, [self.window]))
        self.inner_weights = winner
        for a in (self.knots, self.nodes, self.inner_weights):
            a.flags.writeable = False

    @property
    def n_nodes(self):
        return self.nodes.size


class GridFunction:
    """A function sampled at points: the quadrature nodes (grid_function),
    or others, such as the knots of a report's tables.

    Producers that know the analytic derivatives attach them (d1..d4); the
    differential operators use attached arrays when present and fall back to
    spline differentiation of the values otherwise.
    """

    def __init__(self, values, nodes, name="", d1=None, d2=None, d3=None, d4=None):
        self.values = np.asarray(values, dtype=float)
        self.nodes = np.asarray(nodes, dtype=float)
        if self.values.shape != self.nodes.shape:
            raise ValueError("values/nodes length mismatch: %d vs %d"
                             % (self.values.size, self.nodes.size))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in grid function %r" % (name,))
        self.name = name
        self.d1, self.d2, self.d3, self.d4 = d1, d2, d3, d4

    def derivative(self, k):
        """Sampled k-th derivative, k = 1..4, attached if available, else
        from a spline."""
        if k not in (1, 2, 3, 4):
            raise ValueError("k out of range: %r" % (k,))
        attached = (self.d1, self.d2, self.d3, self.d4)[k - 1]
        if attached is not None:
            return attached
        # exactly constant values: every derivative vanishes; the spline route
        # would leak O(eps/h^k) edge noise into quotients by the tail density
        if np.ptp(self.values) == 0.0:
            return np.zeros_like(self.values)
        from scipy.interpolate import make_interp_spline
        spl = make_interp_spline(self.nodes, self.values, k=5)
        return spl.derivative(k)(self.nodes)


class RadialPotential:
    """Full potential Phi = log(1+e^t) + phi; here phi = 0, the Fubini-Study
    potential, and each subclass gives its own phi through _phi_k.

    phi lives on the window of quad, a read-only Quadrature that potentials
    built from one another share: make_fs_potential and
    make_perturbed_potential build one, and a translate and the spline of a
    solve's output (_from_knot_values) keep their seed's.  Beyond the window
    phi is extended by its boundary constants c_minus and c_plus.  It is
    gauged to mean zero against the Fubini-Study measure, a constant that
    leaves its derivatives as _phi_k gives them.  Immutable after
    construction; its samples at the nodes and at the knots are read once
    and cached (node_values, samples).
    """

    def __init__(self, quad, decay_tol=DECAY_TOL):
        self.quad = quad
        self.window = quad.window
        self.decay_tol = float(decay_tol)
        # additive gauge: mean-zero against the Fubini-Study measure
        self._gauge = self._fs_mean(self._phi_k(quad.nodes, 0))
        self.c_minus = float(self.phi(-self.window))
        self.c_plus = float(self.phi(self.window))
        self._cache = {}
        self._check_decay()
        self._check_positivity()

    def _phi_k(self, t, k):
        """The k-th derivative of phi before the gauge, k = 0..5, at points
        t of the window."""
        return np.zeros_like(t)

    def _fs_mean(self, node_values):
        q = self.quad
        _, y, _ = _fs_pieces(q.nodes[1:-1])
        e = expit(-self.window)
        return (q.inner_weights @ (node_values[1:-1] * y)
                + e * (node_values[0] + node_values[-1]))

    def _check_decay(self):
        for tb in (-self.window, self.window):
            d1 = abs(self.phi_d(tb, 1))
            d2 = abs(self.phi_d(tb, 2))
            if d1 > self.decay_tol or d2 > self.decay_tol:
                raise ValueError(
                    "perturbation does not settle at the window: "
                    "|phi'(%+.1f)| = %.2e, |phi''(%+.1f)| = %.2e (tol %.0e); "
                    "enlarge the window" % (tb, d1, tb, d2, self.decay_tol))

    def _check_positivity(self):
        dens = self.node_values("dens")
        bad = np.where(dens <= -POSITIVITY_FLOOR)[0]
        if bad.size:
            i = bad[np.argmin(dens[bad])]
            raise PositivityError(self.quad.nodes[i], dens[i])

    # -- pointwise evaluation, valid for all real t ------------------------

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        return self._phi_k(np.clip(t, -self.window, self.window), 0) \
            - self._gauge

    def phi_d(self, t, k):
        """k-th derivative of phi, k = 1..5; zero outside the window (constant
        extension)."""
        if k not in (1, 2, 3, 4, 5):
            raise ValueError("k out of range: %r" % (k,))
        t = np.asarray(t, dtype=float)
        out = self._phi_k(np.clip(t, -self.window, self.window), k)
        return np.where(np.abs(t) > self.window, 0.0, out)

    def Phi(self, t):
        return fs_derivative(t, 0) + self.phi(t)

    def Phi_d(self, t, k):
        return fs_derivative(t, k) + self.phi_d(t, k)

    def density(self, t):
        return self.Phi_d(t, 2)

    def read(self, t):
        """phi and the density at the points t, as a solve reads its seed
        (see solvers.BalanceResult.read)."""
        return self.phi(t), self.density(t)

    # -- cached samples at the nodes and at the knots ----------------------

    def node_values(self, key):
        """A read-only array at the nodes: Phi ("Phi"), Phi' ("Phi1"), the
        density Phi'' ("dens") or the k-th derivative of phi ("phi<k>", k =
        2, 3, 4), evaluated on first use."""
        return self._cached("nodes", key)

    def samples(self, key, t=None):
        """The values named as in node_values at the points t, read afresh;
        at the knots if t is None, where the tables are, read on first use
        and kept read-only.  The kernel commands read Phi, Phi' and the
        density there once per potential, however many levels they run."""
        if t is None:
            return self._cached("knots", key)
        return self._read(key, np.asarray(t, dtype=float))

    def _cached(self, points, key):
        cached = self._cache.get((points, key))
        if cached is None:
            cached = self._read(key, getattr(self.quad, points))
            cached.flags.writeable = False
            self._cache[points, key] = cached
        return cached

    def _read(self, key, t):
        if key == "Phi1":
            return self.Phi_d(t, 1)
        if key == "dens":
            return self.density(t)
        if key in ("phi2", "phi3", "phi4"):
            return self.phi_d(t, int(key[-1]))
        if key == "Phi":
            return self.Phi(t)
        raise KeyError(key)


class BumpPotential(RadialPotential):
    """The Gaussian bump phi = a e^{-v^2/2}, v = (t - c)/s, of amplitude a,
    width s and center c, in closed form: phi^(k) = a (-1/s)^k He_k(v)
    e^{-v^2/2}, He_k the probabilists' Hermite polynomial."""

    def __init__(self, quad, amplitude, width, center=0.0):
        self.amplitude = float(amplitude)
        self.width = float(width)
        self.center = float(center)
        if self.width <= 0:
            raise ValueError("bump width must be positive")
        super().__init__(quad)

    def _phi_k(self, t, k):
        v = (t - self.center) / self.width
        return (self.amplitude * (-1.0 / self.width) ** k
                * np.polynomial.hermite_e.hermeval(v, [0.0] * k + [1.0])
                * np.exp(-0.5 * v * v))


class SplinePotential(RadialPotential):
    """phi as the quintic spline through its values at the knots of quad:
    tabulated input, a translate and the spline of a solve's output.  The
    splines of phi^(k), k = 1..5, are built with it, and scipy is imported
    here, by the first potential that needs it."""

    def __init__(self, quad, phi_knot_values, decay_tol=DECAY_TOL):
        from scipy.interpolate import make_interp_spline
        vals = np.asarray(phi_knot_values, dtype=float)
        if vals.shape != quad.knots.shape:
            raise ValueError("knot value array has wrong length")
        spline = make_interp_spline(quad.knots, vals, k=5)
        self._splines = [spline] + [spline.derivative(k) for k in range(1, 6)]
        super().__init__(quad, decay_tol)

    def _phi_k(self, t, k):
        return self._splines[k](t)


def make_fs_potential(window, grid_size, order=QUADRATURE["order"]):
    """The reference Fubini-Study potential (phi = 0)."""
    return RadialPotential(Quadrature(window, grid_size, order))


def make_perturbed_potential(desc, window, grid_size, order=QUADRATURE["order"]):
    """Build a potential from a descriptor.

    desc is a mapping whose "type" is a key of POTENTIAL_FIELDS:
      fubini-study: make_fs_potential
      gaussian-bump: amplitude, width, center
      tabulated: t (increasing array covering [-window, window]), phi
    The perturbation is mean-zero normalized; positivity Phi'' > 0 and decay
    at the window are enforced at construction.
    """
    kind = desc.get("type")
    if kind == "fubini-study":
        return make_fs_potential(window, grid_size, order)
    quad = Quadrature(window, grid_size, order)
    if kind == "gaussian-bump":
        return BumpPotential(quad, desc["amplitude"], desc["width"],
                             desc.get("center", 0.0))
    if kind == "tabulated":
        return SplinePotential(
            quad, _resample_tabulated(desc, quad.knots, quad.window))
    raise ValueError("unknown perturbation type: %r" % (kind,))


def tabulated_errors(t, phi, window):
    """The messages of the rules that the samples (t, phi) of a tabulated
    descriptor break on [-window, window]: matching 1-d arrays of at least
    8 samples, t strictly increasing, finite entries, t covering the window
    and phi smooth.  The smoothness rule needs the others to hold."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(phi, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 8:
        return ["tabulated input needs matching 1-d arrays, length >= 8"]
    errors = []
    unsorted = np.any(np.diff(t) <= 0)
    if unsorted:
        errors.append("tabulated t array must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        errors.append("tabulated input contains non-finite entries")
    # [t[0], t[-1]] is the range of sorted samples only
    if not unsorted and (t[0] > -window or t[-1] < window):
        errors.append("tabulated range [%.2f, %.2f] does not cover the window"
                      % (t[0], t[-1]))
    if errors:
        return errors
    # smoothness check: the spline through every other sample must predict
    # the skipped samples; jagged data fails by orders of magnitude
    from scipy.interpolate import make_interp_spline
    spl_half = make_interp_spline(t[::2], v[::2], k=3)
    scale = max(np.max(np.abs(v)), 1e-30)
    mismatch = np.max(np.abs(spl_half(t[1::2]) - v[1::2])) / scale
    # smooth data at a ~500-point grid sits near 1e-5 (h^4 of the half grid);
    # a kink lands at 1e-1 or worse, so the gate has orders of margin each way
    if mismatch > 1e-4:
        return ["tabulated input is not smooth "
                "(half-grid interpolation error %.1e relative)" % mismatch]
    return []


def _resample_tabulated(desc, knots, window):
    errors = tabulated_errors(desc["t"], desc["phi"], window)
    if errors:
        raise ValueError(errors[0])
    from scipy.interpolate import make_interp_spline
    return make_interp_spline(np.asarray(desc["t"], dtype=float),
                              np.asarray(desc["phi"], dtype=float), k=5)(knots)


def _from_knot_values(vals, quad):
    """Internal constructor for a solve's spline (see
    solvers.BalanceResult.potential) and translates: the potential with knot
    values vals on the shared, read-only quadrature quad (its seed's).

    Positivity and shape validation still apply; the decay tolerance is
    relaxed because these potentials settle like e^{-|t|} by construction,
    with a genuinely nonzero (if tiny) tail at any finite window.
    """
    return SplinePotential(quad, vals, decay_tol=1e-8)


def translate_potential(P, s):
    """Pull back the potential along t -> t - s (the torus flow by s)."""
    knots = P.quad.knots
    vals = P.Phi(knots - s) - fs_derivative(knots, 0)
    return _from_knot_values(vals, P.quad)


def grid_function(P, values, name="", **der):
    return GridFunction(values, P.quad.nodes, name=name, **der)


def integrate(P, f):
    """Integral of f against the volume density Phi'' dt over the line.

    The window endpoints carry the exact tail masses Phi'(-T) and
    1 - Phi'(T), read off the cached node values "Phi1", so the constant
    function integrates to the total volume 1 exactly.
    """
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    if vals.shape != P.quad.nodes.shape:
        raise ValueError("grid function not sampled on this potential's nodes")
    Phi1 = P.node_values("Phi1")
    return _volume_integral(P.quad, vals, P.node_values("dens"),
                            (Phi1[0], 1.0 - Phi1[-1]))


def _volume_integral(quad, vals, dens, masses):
    """Quadrature of vals against the density dens at the nodes, with the
    endpoint values carrying the two tail masses (left, right)."""
    left, right = masses
    return float(quad.inner_weights @ (vals[1:-1] * dens[1:-1])
                 + left * vals[0] + right * vals[-1])


def _curvature_core(P, t=None):
    """Shared stable pieces: density, sigma, (log Phi'')' and (log Phi'')'',
    at the nodes (t None, cached) or at the points t.

    The split isolates the perturbation terms so that on Fubini-Study the
    cancellations are exact and sigma evaluates to 2.0 bitwise; the naive
    quotient form loses eps/Phi''(T) relative accuracy at the window edges.
    """
    if t is not None:
        return _curvature_pieces(t, P.density(t),
                                 *(P.phi_d(t, k) for k in (2, 3, 4)))
    if "core" not in P._cache:
        P._cache["core"] = _curvature_pieces(
            P.quad.nodes, P.node_values("dens"),
            *(P.node_values("phi%d" % k) for k in (2, 3, 4)))
    return P._cache["core"]


def _curvature_pieces(t, dens, p2, p3, p4):
    """_curvature_core from the density and phi^(k), k = 2, 3, 4, at t."""
    _, y, w = _fs_pieces(t)
    A = p3 - w * p2
    B = p4 - (w * w - 2.0 * y) * p2
    t1 = A / dens
    num = 2.0 * y + 2.0 * w * t1 + t1 * t1 - B / dens
    sigma = num / dens
    r1 = w + t1          # (log Phi'')'
    gpp = -num           # (log Phi'')''
    return dens, sigma, r1, gpp


def scalar_curvature(P, t=None):
    """sigma = -(log Phi'')''/Phi'', a GridFunction at the nodes (t None) or
    at the points t; its mean is 2 for all P."""
    _, sigma, _, _ = _curvature_core(P, t)
    t = P.quad.nodes if t is None else np.asarray(t, dtype=float)
    if not np.all(np.isfinite(sigma)):
        raise PositivityError(t[np.argmin(np.isfinite(sigma))], 0.0)
    return GridFunction(sigma, t, name="sigma")


def laplacian_apply(P, f):
    """Delta f = -f''/Phi''; nonnegative quadratic form against the volume."""
    d2 = f.derivative(2)
    dens = P.node_values("dens")
    return grid_function(P, -d2 / dens, name="laplacian(%s)" % f.name)


def hamiltonian_moment(P):
    """Normalized Hamiltonian of the circle generator: f = Phi' - 1/2, 1/2
    the mean of Phi' for every P, as Phi' pushes Phi'' dt forward to Lebesgue
    measure on [0, 1] (Duistermaat-Heckman).  On Fubini-Study f = tanh(t/2)/2;
    the range lies in (-1/2, 1/2), the moment interval of the degree-one
    polarization."""
    t = P.quad.nodes
    return grid_function(P, P.node_values("Phi1") - 0.5, name="f_moment",
                         d1=P.node_values("dens"),
                         d2=P.Phi_d(t, 3),
                         d3=P.Phi_d(t, 4),
                         d4=P.Phi_d(t, 5))


def lichnerowicz_apply(P, psi):
    """L psi = -Delta^2 psi + sigma * Delta psi, the derivative of sigma at P.

    Evaluated by a cancellation-free chain in u = psi''/Phi''; float noise is
    bounded by ~3*eps/Phi''(T), so identities on decaying psi hold to about
    1e-7 sup at window 20.
    """
    dens, sigma, r1, gpp = _curvature_core(P)
    p2 = psi.derivative(2)
    p3 = psi.derivative(3)
    p4 = psi.derivative(4)
    u = p2 / dens
    q3 = p3 / dens
    up = q3 - r1 * u
    upp = (p4 / dens - r1 * q3) - gpp * u - r1 * up
    return grid_function(P, -(upp / dens + sigma * u),
                         name="L(%s)" % psi.name)
