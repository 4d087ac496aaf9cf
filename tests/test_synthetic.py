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
