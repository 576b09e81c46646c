import numpy as np
import pytest

from bergbal.circle import (
    CircleSample, _mean_value_gap, entire_extension, fourier_coefficient,
    integer_consistency_report, make_partition,
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
    assert np.max(np.abs(rebuilt.cos_coeffs[:3] - sample.cos_coeffs)) < 1e-14
    assert abs(rebuilt.sin_coeffs[1] - 0.3) < 1e-14
    probe = np.linspace(0.0, 2.0 * np.pi, 37)
    assert np.max(np.abs(rebuilt(probe) - sample(probe))) < 1e-13


def test_from_samples_nyquist():
    # the shared cos(n/2 theta) mode must not be double counted
    n = 8
    th = 2.0 * np.pi * np.arange(n) / n
    S = CircleSample([0.0, 0.0, 0.0, 0.0, 1.0])
    rebuilt = CircleSample.from_samples(S(th))
    assert abs(rebuilt.cos_coeffs[4] - 1.0) < 1e-14
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
