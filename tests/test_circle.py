import numpy as np
import pytest

from bergbal import circle
from bergbal.circle import (
    MAX_FREQUENCY, CircleSample, _mean_value_gap, entire_extension,
    extension_errors, fourier_coefficient, integer_consistency_report,
    make_partition,
)


def _reference_extension(S, pair, xi):
    """The nodal sum exp(-i xi (x) theta) @ (w S(theta)), one exponential per
    node, that entire_extension took before it factored the panels."""
    xi = np.asarray(xi, dtype=complex)
    total = sum(np.exp(-1j * np.multiply.outer(xi, th.ravel()))
                @ (w * S(th)).ravel() for th, w in pair.quadrature())
    return complex(total) if xi.ndim == 0 else total


@pytest.fixture(scope="module")
def sample():
    # S = 1 + cos(theta) + 0.3 sin(2 theta)
    return CircleSample([1.0, 1.0], [0.0, 0.3])


@pytest.fixture(scope="module")
def partitions():
    return [make_partition(0.15), make_partition(0.3)]


def test_partition_of_unity(partitions):
    th = np.linspace(-np.pi, 3.0 * np.pi, 1001)
    for pair in partitions:
        assert np.max(np.abs(pair.rho1(th) + pair.rho2(th) - 1.0)) == 0.0
        assert pair.rho1(0.0) == 1.0
        assert pair.rho1(np.pi) == 0.0


def test_coefficient_oracles(sample):
    assert abs(fourier_coefficient(sample, 0) - 2.0 * np.pi) < 1e-15
    assert abs(fourier_coefficient(sample, 1) - np.pi) < 1e-15
    assert abs(fourier_coefficient(sample, 2) - (-0.3j * np.pi)) < 1e-15
    assert fourier_coefficient(sample, 5) == 0.0


def test_conjugation_symmetry(sample):
    for m in (1, 2, 7):
        assert sample.coefficient(-m) == np.conj(sample.coefficient(m))


def test_extension_restricts_to_coefficients(sample, partitions):
    for pair in partitions:
        for m in range(-20, 21):
            e = entire_extension(sample, pair, m)
            assert abs(e - fourier_coefficient(sample, m)) < 1e-10


def test_consistency_report(sample, partitions):
    rep = integer_consistency_report(sample, partitions, range(-20, 21))
    assert rep.integers_agree
    assert rep.max_discrepancy <= 1e-10
    # the integers and 1/2 come from one extension per partition
    for pair, value in zip(partitions, rep.values_at_half):
        assert abs(value - entire_extension(sample, pair, 0.5)) <= 1e-14
    # adding sin(pi xi) to the extension is invisible at the integers
    assert rep.shift_invisible
    # but the extensions genuinely differ between partitions off the integers
    assert rep.spread_at_half > 1e-3


def test_extension_is_holomorphic(sample, partitions):
    gap = _mean_value_gap(sample, partitions[0], 0.3 + 0.2j)
    assert gap < 1e-8


def test_from_samples_round_trip(sample):
    n = 64
    th = 2.0 * np.pi * np.arange(n) / n
    rebuilt = CircleSample.from_samples(sample(th))
    for m in range(-3, 4):
        assert abs(rebuilt.coefficient(m) - sample.coefficient(m)) < 1e-14
    assert abs(rebuilt.coefficient(2) - (-0.15j)) < 1e-14
    probe = np.linspace(0.0, 2.0 * np.pi, 37)
    assert np.max(np.abs(rebuilt(probe) - sample(probe))) < 1e-13


def test_from_samples_nyquist():
    # the shared cos(n/2 theta) mode must not be double counted
    n = 8
    th = 2.0 * np.pi * np.arange(n) / n
    S = CircleSample([0.0, 0.0, 0.0, 0.0, 1.0])
    rebuilt = CircleSample.from_samples(S(th))
    assert abs(rebuilt.coefficient(4) - 0.5) < 1e-14
    assert np.max(np.abs(rebuilt(th) - S(th))) < 1e-13


def test_sample_validation():
    with pytest.raises(ValueError):
        CircleSample([])
    with pytest.raises(ValueError):
        CircleSample([1.0, np.inf])
    with pytest.raises(ValueError):
        CircleSample.from_samples([1.0, 2.0])
    with pytest.raises(ValueError):
        CircleSample.from_samples([1.0, np.nan, 0.0, 0.0])


def test_coefficient_beyond_degree(sample):
    assert sample.coefficient(9) == 0.0 + 0.0j


def test_one_complex_coefficient_vector(sample):
    # S = Re sum c_k e^{ik theta} with c_0 = a_0 and c_k = a_k - i b_k; the
    # coefficient of e^{i m theta} is c_0, or c_|m| / 2 conjugated for m < 0,
    # bit for bit the value 0.5 (a_k - i b_k) of the cos/sin form
    assert np.array_equal(sample.coeffs, [1.0, 1.0, -0.3j])
    assert sample.degree == 2
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 7)
    S = CircleSample(a, b)
    assert S.degree == 7
    for m in range(-9, 10):
        k = abs(m)
        ref = 0j if k > 7 else complex(a[0]) if k == 0 else \
            0.5 * complex(a[k] if k < 6 else 0.0, -b[k - 1])
        ref = ref if m >= 0 else np.conj(ref)
        assert fourier_coefficient(S, m) == 2.0 * np.pi * ref
    th = np.linspace(-1.0, 7.0, 51)
    direct = a[0] + sum(a[k] * np.cos(k * th) for k in range(1, 6)) + \
        sum(b[k - 1] * np.sin(k * th) for k in range(1, 8))
    assert np.max(np.abs(S(th) - direct)) < 1e-14


# quadrature nodes per piece: profiles up to 0.309 keep 0.04-rad panels, and
# steeper ones a fifteenth of the transition (1 - 2 p) pi/2 of rho
@pytest.mark.parametrize("profile, nodes, panel", [
    (0.02, 1170, 0.04), (0.15, 1070, 0.04), (0.3, 950, 0.04),
    (0.4, 1660, 0.1 * np.pi / 15), (0.45, 3160, 0.05 * np.pi / 15)])
def test_panels_resolve_the_transition(profile, nodes, panel):
    pair = make_partition(profile)
    assert pair.panel == pytest.approx(panel, rel=1e-15)
    for th, _ in pair.quadrature():
        assert th.size == nodes


@pytest.mark.parametrize("profile", [0.02, 0.15, 0.3, 0.4, 0.45])
def test_integers_agree_up_to_the_resolved_frequency(profile):
    # paired with 0.15; a random sample with |a_k|, |b_k| <= a_0, at m_max 60
    # and where m_max + degree reaches MAX_FREQUENCY (profile 0.45 on
    # 0.04-rad panels read 4.2e-10 at m_max 20)
    rng = np.random.default_rng(7)
    S = CircleSample(np.concatenate([[1.0], rng.uniform(-1.0, 1.0, 3)]),
                     rng.uniform(-1.0, 1.0, 3))
    parts = [make_partition(profile), make_partition(0.15)]
    for m_max, bound in ((60, 1e-12), (MAX_FREQUENCY - S.degree, 1e-11)):
        rep = integer_consistency_report(S, parts, range(-m_max, m_max + 1))
        assert rep.integers_agree and rep.max_discrepancy <= bound


def test_frequency_bound(sample, partitions):
    # the integers |m| <= m_max reach the frequency m_max + degree
    top = MAX_FREQUENCY - sample.degree
    assert extension_errors(top, sample.degree) == []
    assert extension_errors(top + 1, sample.degree) == [
        "%d plus the sample's degree 2 exceeds %d, the highest frequency the "
        "quadrature resolves" % (top + 1, MAX_FREQUENCY)]
    entire_extension(sample, partitions[0], np.array([-top, top + 0.5j]))
    for xi in (top + 1.0, -top - 0.5 + 1j):
        with pytest.raises(ValueError, match="exceeds the bound 270"):
            entire_extension(sample, partitions[0], xi)


def test_profile_guard():
    with pytest.raises(ValueError, match="profile margin"):
        make_partition(0.01)
    with pytest.raises(ValueError, match="profile margin"):
        make_partition(0.5)


def test_imaginary_bound(sample, partitions):
    with pytest.raises(ValueError, match="exceeds the bound"):
        entire_extension(sample, partitions[0], 60.0j)
    with pytest.raises(ValueError, match="exceeds the bound"):
        entire_extension(sample, partitions[0], np.array([1.0, -60.0j]))


def test_extension_of_an_array(sample, partitions):
    # one call over many frequencies agrees with the quadrature sum at each
    xi = np.array([[-3.0, 0.5], [0.3 + 0.2j, 7.0 - 1.5j]])
    for pair in partitions:
        e = entire_extension(sample, pair, xi)
        assert e.shape == xi.shape
        for z, v in zip(xi.ravel(), e.ravel()):
            ref = sum(np.sum(w * sample(th) * np.exp(-1j * z * th))
                      for th, w in pair.quadrature())
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref))
            scalar = entire_extension(sample, pair, z)
            assert type(scalar) is complex
            assert abs(scalar - ref) <= 1e-14 * max(1.0, abs(ref))


def test_panels_factor_the_nodes(partitions):
    # every node is its panel's midpoint plus an offset shared by all panels
    for pair in partitions:
        for (th, _), (mid, off) in zip(pair.quadrature(), pair.panels):
            assert th.shape == (mid.size, 10) and off.shape == (10,)
            assert np.array_equal(th, mid[:, None] + off[None, :])
            assert np.all(np.diff(mid) > 0.0) and np.all(np.diff(off) > 0.0)


@pytest.mark.parametrize("xi", [
    np.nan, complex(0.0, np.nan), np.array([1.0, complex(np.nan, 2.0)]),
    np.inf, complex(0.0, -np.inf), np.array([0.5, -np.inf])])
def test_non_finite_frequency(sample, partitions, xi):
    # NaN compares False with both bounds; the message names the frequency
    with pytest.raises(ValueError,
                       match=r"frequency \S*(nan|inf)\S* is not finite"):
        entire_extension(sample, partitions[0], xi)


@pytest.mark.parametrize("profile", [0.02, 0.15, 0.45])
def test_extension_matches_a_40_digit_sum(sample, profile):
    # the panel sum against mpmath at 40 digits over the same nodes
    # mid_p + off_g (added exactly), weights and S values, relative to the
    # sum's own size sum_k |w_k S_k e^{-i xi theta_k}|, since the sum cancels
    # 2 to 5 digits at -200-50j and 13 to 15 at 266.  Measured at most
    # 1.1e-14 (10+50j at 0.45; the nodal sum read 5.3e-15); bound 4e-14
    import mpmath
    pair = make_partition(profile)
    with mpmath.workdps(40):
        nodes, values, thetas = [], [], []
        for (th, w), (mid, off) in zip(pair.quadrature(), pair.panels):
            nodes += [mpmath.mpf(a) + b for a in mid.tolist()
                      for b in off.tolist()]
            values += (w * sample(th)).ravel().tolist()
            thetas.append(th.ravel())
        thetas = np.concatenate(thetas)
        for xi in (10 + 50j, 0.5 + 49j, -200 - 50j, 266, 0.3 + 0.2j,
                   7 - 1.5j):
            z = -1j * mpmath.mpc(complex(xi).real, complex(xi).imag)
            ref = mpmath.fsum(v * mpmath.exp(z * a)
                              for a, v in zip(nodes, values))
            size = np.sum(np.abs(values) * np.exp(complex(xi).imag * thetas))
            got = entire_extension(sample, pair, xi)
            assert abs(mpmath.mpc(got) - ref) <= 4e-14 * size


@pytest.mark.parametrize("profiles, m_max", [
    ([0.15, 0.3], 60), ([0.45, 0.15], MAX_FREQUENCY - 3)])
def test_reports_match_the_nodal_sum(monkeypatch, profiles, m_max):
    # the benchmark's fourier shape (a degree-3 sample, profiles 0.15 and
    # 0.3, m_max 60) and the steepest profile at the highest resolved
    # frequency: the same verdicts, every number within 1e-13 of the nodal
    # sum (measured 6.5e-15 and 1.9e-14)
    rng = np.random.default_rng(3)
    S = CircleSample(np.concatenate([[1.0], rng.uniform(-0.5, 0.5, 3)]),
                     np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 2)]))
    assert S.degree == 3
    parts = [make_partition(p) for p in profiles]

    def run():
        rep = integer_consistency_report(S, parts,
                                         range(-m_max, m_max + 1))
        return rep, _mean_value_gap(S, parts[0], 0.3 + 0.2j)

    rep, gap = run()
    monkeypatch.setattr(circle, "entire_extension", _reference_extension)
    ref, ref_gap = run()
    assert (rep.integers_agree, rep.shift_invisible, rep.spread_at_half > 1e-3,
            gap <= 1e-8) == (ref.integers_agree, ref.shift_invisible,
                             ref.spread_at_half > 1e-3, ref_gap <= 1e-8)
    assert np.max(np.abs(rep.discrepancies - ref.discrepancies)) <= 1e-13
    assert np.max(np.abs(rep.values_at_half - ref.values_at_half)) <= 1e-13
    for a, b in ((rep.max_discrepancy, ref.max_discrepancy),
                 (rep.shift_discrepancy, ref.shift_discrepancy),
                 (rep.spread_at_half, ref.spread_at_half), (gap, ref_gap)):
        assert abs(a - b) <= 1e-13


def test_report_guards(sample, partitions):
    with pytest.raises(ValueError, match="two partitions"):
        integer_consistency_report(sample, partitions[:1], range(3))
    with pytest.raises(ValueError, match="non-empty"):
        integer_consistency_report(sample, partitions, [])


def test_fourier_evaluates_the_sample_once_per_partition(monkeypatch):
    # a fourier run evaluates S once on each partition's nodes: the
    # holomorphy check reuses the first partition's values, and every
    # output is the one from fresh partitions, bit for bit
    from bergbal.config import parse_config
    from bergbal.runner import run_experiment
    doc = {"command": "fourier", "sample": {"cos": [1.0, 0.2, -0.3],
                                            "sin": [0.0, 0.4]},
           "profiles": [0.15, 0.3], "m_max": 20}
    cfg = parse_config(doc)
    S = CircleSample([1.0, 0.2, -0.3], [0.0, 0.4])
    ref = integer_consistency_report(
        S, [make_partition(p) for p in cfg.profiles], range(-20, 21))
    gap = _mean_value_gap(S, make_partition(cfg.profiles[0]))
    calls = []
    call = CircleSample.__call__

    def counted(self, theta):
        calls.append(theta.shape)
        return call(self, theta)

    monkeypatch.setattr(CircleSample, "__call__", counted)
    out = run_experiment(cfg)["outputs"]
    # two pieces per partition
    assert len(calls) == 2 * len(cfg.profiles)
    assert out["max_integer_discrepancy"] == ref.max_discrepancy
    assert out["shift_discrepancy"] == ref.shift_discrepancy
    assert out["spread_at_half"] == ref.spread_at_half
    assert np.array_equal(out["values_at_half"], ref.values_at_half)
    assert out["mean_value_gap"] == gap
