import numpy as np
import pytest

from windlssvm import synthetic
from windlssvm.pipeline import autocorrelation
from windlssvm.synthetic import SyntheticSpec, generate_synthetic


def test_deterministic_per_seed():
    spec = SyntheticSpec(n=600, seed=123)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = generate_synthetic(SyntheticSpec(n=600, seed=1))
    b = generate_synthetic(SyntheticSpec(n=600, seed=2))
    assert not np.array_equal(a.values, b.values)


def test_non_negative_with_floor(monkeypatch):
    monkeypatch.setattr(synthetic, "MEAN", 0.0)  # forces the shift
    out = generate_synthetic(SyntheticSpec(n=500, seed=5))
    assert out.values.min() >= synthetic.FLOOR - 1e-12


def test_default_spec_high_short_lag_correlation():
    series = generate_synthetic(SyntheticSpec(n=4393, seed=7))
    assert autocorrelation(series, 1)[0] > 0.8


def test_min_length_enforced():
    with pytest.raises(ValueError):
        SyntheticSpec(n=499)


def test_no_missing_samples():
    out = generate_synthetic(SyntheticSpec(n=500, seed=9))
    assert not out.missing_mask.any()
    assert np.isfinite(out.values).all()
    assert out.cadence_minutes == 20


def _reference_series(spec):
    """generate_synthetic with its AR(1) recurrence on numpy float64 scalars,
    element by element into a preallocated array."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.n, dtype=float)
    x = np.full(spec.n, synthetic.MEAN)
    for amp, period in synthetic.SINUSOIDS:
        x += amp * np.sin(2.0 * np.pi * t / period)
    innovations = rng.normal(0.0, synthetic.AR_STD, spec.n)
    ar = np.empty(spec.n)
    prev = 0.0
    for i in range(spec.n):
        prev = synthetic.AR_COEFF * prev + innovations[i]
        ar[i] = prev
    x += ar
    x += rng.normal(0.0, synthetic.NOISE_STD, spec.n)
    shift = synthetic.FLOOR - x.min()
    if shift > 0:
        x += shift
    return x


@pytest.mark.parametrize("n, seed", [(4393, 7), (4393, 42), (1000, 7), (2160, 3101), (500, 1)])
def test_series_matches_the_numpy_scalar_recurrence_bit_for_bit(n, seed):
    spec = SyntheticSpec(n=n, seed=seed)
    assert generate_synthetic(spec).values.tobytes() == _reference_series(spec).tobytes()
