"""Fourier coefficients on the circle and their entire extension in the
frequency variable.

A smooth function S on the unit circle has coefficients
F(m) = int e^{-i m theta} S dtheta.  Splitting the integral by a partition
of unity subordinate to the two-arc cover

    U1 from I1 = (-3pi/4, 3pi/4),   U2 from I2 = (pi/4, 7pi/4),

and lifting each piece to its interval makes the frequency a free complex
parameter: the lifted integral is entire in xi and restricts to F on the
integers.  Off the integers the value depends on the chosen partition (the
restriction to Z is the invariant content), which the consistency report
demonstrates numerically.

Each piece is summed on Gauss-Legendre panels, theta_pg = mid_p + off_g, as
sum_p e^{-i xi mid_p} sum_g e^{-i xi off_g} w_pg S(theta_pg): one exponential
per panel and one per node offset, not one per node.
"""
import numpy as np

from .model import _leggauss

_I1 = (-3.0 * np.pi / 4.0, 3.0 * np.pi / 4.0)
_I2 = (np.pi / 4.0, 7.0 * np.pi / 4.0)
_MAX_IM = 50.0
_PANEL = 0.04
# the highest frequency |Re xi| + degree the panel sums resolve: samples with
# |a_k|, |b_k| <= a_0 read integer discrepancies up to 4.6e-12 (2.7e-11 at 285)
MAX_FREQUENCY = 270
# the holomorphy check's circle, radius 0.5 about this center: |Re xi| <= 0.8
MEAN_VALUE_CENTER = 0.3 + 0.2j


class CircleSample:
    """Trigonometric polynomial S(theta) = a0 + sum a_k cos k theta + b_k sin k theta
    = Re sum_k c_k e^{i k theta}, k = 0..degree: c_0 = a_0, c_k = a_k - i b_k.

    Dense uniform samples are reduced to coefficients by FFT (trigonometric
    interpolation), so periodicity is exact in either construction.
    """

    def __init__(self, cos_coeffs, sin_coeffs=()):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
        if a.size == 0:
            raise ValueError("need at least the constant coefficient")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        self.coeffs = np.zeros(max(a.size, b.size + 1), dtype=complex)
        self.coeffs.real[:a.size] = a
        self.coeffs.imag[1:] = -np.pad(b, (0, self.coeffs.size - 1 - b.size))
        self.degree = self.coeffs.size - 1

    @classmethod
    def from_samples(cls, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 4:
            raise ValueError("need a 1-d array of at least 4 uniform samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        c = np.fft.rfft(v) / v.size
        c[1:(v.size + 1) // 2] *= 2.0          # a Nyquist mode is shared
        return cls(c.real, -c.imag[1:])

    def __call__(self, theta):
        k = np.arange(self.degree + 1)
        return (np.exp(1j * np.multiply.outer(theta, k)) @ self.coeffs).real

    def coefficient(self, m):
        """Complex Fourier coefficient c_m with S = sum c_m e^{i m theta}."""
        k = abs(int(m))
        if k > self.degree:
            return 0.0 + 0.0j
        c = complex(self.coeffs[k]) * (0.5 if k else 1.0)
        return c if m >= 0 else c.conjugate()


class PartitionPair:
    """Smooth partition of unity rho1 + rho2 = 1 subordinate to the two-arc
    cover, with supports held strictly inside the arcs by the profile margin.
    The quadrature's panels are _PANEL wide, or a fifteenth of the transition
    of rho, (1 - 2 profile) pi/2 wide, where that is narrower."""

    def __init__(self, profile):
        if not 0.02 <= profile <= 0.45:
            raise ValueError(
                "profile margin %.3g outside [0.02, 0.45]: the remaining "
                "overlap is too small to smooth" % profile)
        self.profile = float(profile)
        half = 0.5 * np.pi * profile
        # rho1 = 1 on |theta| <= pi/4 + half, 0 beyond 3pi/4 - half
        self.support1 = (-_I1[1] + half, _I1[1] - half)
        self.support2 = (_I2[0] + half, _I2[1] - half)
        self.panel = min(_PANEL, (0.5 - self.profile) * np.pi / 15.0)
        self._quad = self.panels = self._samples = None

    @staticmethod
    def _smoothstep(s):
        s = np.clip(s, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            f = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
            g = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        return f / (f + g)

    def rho1(self, theta):
        th = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
        u = (np.abs(th) - 0.25 * np.pi) / (0.5 * np.pi)
        s = (u - self.profile) / (1.0 - 2.0 * self.profile)
        return 1.0 - self._smoothstep(s)

    def rho2(self, theta):
        return 1.0 - self.rho1(theta)

    def quadrature(self):
        """Panel Gauss-Legendre nodes/weights over the two lifted supports,
        with the cutoff values attached: per piece (panels, 10) arrays
        th = mid[:, None] + off[None, :], and self.panels holds (mid, off)."""
        if self._quad is None:
            xg, wg = _leggauss(10)
            self._quad, self.panels = [], []
            for (lo, hi), rho in ((self.support1, self.rho1),
                                  (self.support2, self.rho2)):
                n_panels = int(np.ceil((hi - lo) / self.panel))
                edges = np.linspace(lo, hi, n_panels + 1)
                mid = 0.5 * (edges[:-1] + edges[1:])
                hw = 0.5 * (edges[1] - edges[0])
                off = hw * xg
                th = mid[:, None] + off[None, :]
                self._quad.append((th, hw * wg * rho(th)))
                self.panels.append((mid, off))
        return self._quad

    def weighted_samples(self, S):
        """w S(theta) on each piece's nodes, once for the last S asked for."""
        if self._samples is None or self._samples[0] is not S:
            self._samples = (S, [w * S(th) for th, w in self.quadrature()])
        return self._samples[1]


def make_partition(profile=0.15):
    return PartitionPair(profile)


def fourier_coefficient(S, m):
    """int_0^{2pi} e^{-i m theta} S(theta) dtheta, exact coefficient arithmetic."""
    return 2.0 * np.pi * S.coefficient(m)


def entire_extension(S, pair, xi):
    """The lifted Fourier integral at a complex frequency xi (a complex) or
    at an array of them (an array), as the panel sum
    sum_p e^{-i xi mid_p} sum_g e^{-i xi off_g} (w S(theta))_pg.

    Entire in xi; equals fourier_coefficient(S, m) at every integer m for any
    valid partition, while values off the integers depend on the partition.
    Raises at a non-finite xi, beyond |Im xi| = 50 and beyond
    |Re xi| + degree = MAX_FREQUENCY.
    """
    xi = np.asarray(xi, dtype=complex)
    bad = xi[~np.isfinite(xi)]
    if bad.size:
        raise ValueError("frequency %s is not finite" % bad[0])
    im = float(np.max(np.abs(xi.imag), initial=0.0))
    if im > _MAX_IM:
        raise ValueError("|Im xi| = %.3g exceeds the bound %.0f (integrand "
                         "grows like e^{|Im xi| 7pi/4})" % (im, _MAX_IM))
    top = float(np.max(np.abs(xi.real), initial=0.0)) + S.degree
    if top > MAX_FREQUENCY:
        raise ValueError("|Re xi| + degree = %.6g exceeds the bound %d, the "
                         "highest frequency resolved" % (top, MAX_FREQUENCY))
    total = 0.0
    for wS, (mid, off) in zip(pair.weighted_samples(S), pair.panels):
        inner = np.exp(-1j * np.multiply.outer(xi, off)) @ wS.T
        total += (np.exp(-1j * np.multiply.outer(xi, mid)) * inner).sum(-1)
    return complex(total) if xi.ndim == 0 else total


def extension_errors(m_max, degree):
    """The message, if any, for an m_max whose fourier run carries a sample
    of this degree past MAX_FREQUENCY (see entire_extension): at |m| <=
    m_max, at 1/2 or on the holomorphy check's circle, |Re xi| <= 0.8."""
    reach = abs(MEAN_VALUE_CENTER.real) + 0.5
    if max(m_max, reach) + degree > MAX_FREQUENCY:
        return ["%s plus the sample's degree %d exceeds %d, the highest "
                "frequency the quadrature resolves"
                % (m_max if m_max > reach else "the mean-value circle's "
                   "|Re xi| <= %g" % reach, degree, MAX_FREQUENCY)]
    return []


class ConsistencyReport:
    def __init__(self, m_values, discrepancies, shift_discrepancy,
                 spread_at_half, values_at_half):
        self.m_values = m_values
        self.discrepancies = discrepancies
        self.max_discrepancy = float(np.max(discrepancies))
        self.shift_discrepancy = float(shift_discrepancy)
        self.spread_at_half = float(spread_at_half)
        self.values_at_half = values_at_half
        self.integers_agree = self.max_discrepancy <= 1e-10
        self.shift_invisible = self.shift_discrepancy <= 1e-10


def integer_consistency_report(S, partitions, m_range):
    """Agreement table between the entire extensions and the direct
    coefficients on m_range, the effect of the sin(pi xi) shift at the
    integers, and the spread of the extensions at xi = 1/2: one extension
    per partition, at the integers and 1/2 together."""
    partitions = list(partitions)
    if len(partitions) < 2:
        raise ValueError("need at least two partitions to compare")
    m_values = [int(m) for m in m_range]
    if not m_values:
        raise ValueError("m_range must be non-empty")
    m_arr = np.array(m_values, dtype=float)
    exact = np.array([fourier_coefficient(S, m) for m in m_values])
    ext = np.array([entire_extension(S, pair, np.append(m_arr, 0.5))
                    for pair in partitions])
    ext, at_half = ext[:, :-1], ext[:, -1]
    disc = np.abs(ext - exact)
    shift = np.max(np.abs((ext + np.sin(np.pi * m_arr)) - ext))
    spread = max(abs(a - b) for a in at_half for b in at_half)
    return ConsistencyReport(m_values, disc, shift, spread, at_half)


def _mean_value_gap(S, pair, xi0=MEAN_VALUE_CENTER):
    """|F(xi0) - mean of F on the circle of radius 0.5 about it|, a numerical
    holomorphy check (exact mean-value property for entire functions)."""
    angles = 2.0 * np.pi * np.arange(24) / 24
    ext = entire_extension(S, pair,
                           np.append(xi0 + 0.5 * np.exp(1j * angles), xi0))
    return abs(np.mean(ext[:-1]) - ext[-1])
