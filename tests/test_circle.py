import numpy as np
import pytest

from bergbal.circle import (
    MAX_FREQUENCY, CircleSample, _mean_value_gap, entire_extension,
    extension_errors, fourier_coefficient, integer_consistency_report,
    make_partition,
)


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


def test_report_guards(sample, partitions):
    with pytest.raises(ValueError, match="two partitions"):
        integer_consistency_report(sample, partitions[:1], range(3))
    with pytest.raises(ValueError, match="non-empty"):
        integer_consistency_report(sample, partitions, [])
