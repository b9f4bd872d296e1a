"""Gaussian wavepacket mode: normalization, peak and time derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed.pulse import GaussianPulse, amplitude, amplitude_rate


def test_width_must_be_positive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            GaussianPulse(mu=bad, t_bar=5.0)


def test_fields_must_be_finite():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"mu": inf}, {"mu": nan}, {"t_bar": nan}, {"t_bar": inf}, {"t_bar": -inf}):
        with pytest.raises(ValueError):
            GaussianPulse(**{"mu": 1.46, "t_bar": 5.0, **kwargs})


def test_peak_location_and_value():
    p = GaussianPulse(mu=1.46, t_bar=5.0)
    assert amplitude(p, 5.0) == pytest.approx(np.sqrt(1.46) / (2 * np.pi) ** 0.25)
    ts = np.linspace(0, 12, 4801)
    assert ts[np.argmax(amplitude(p, ts))] == pytest.approx(5.0, abs=1e-2)


def test_amplitude_is_real_and_symmetric_about_center():
    p = GaussianPulse(mu=0.8, t_bar=3.0)
    ts = np.linspace(-5, 11, 501)
    vals = amplitude(p, ts)
    assert vals.dtype == np.float64
    assert np.allclose(vals, amplitude(p, 6.0 - ts))


@settings(deadline=None, max_examples=30)
@given(
    mu=st.floats(min_value=0.2, max_value=5.0),
    t_bar=st.floats(min_value=-3.0, max_value=10.0),
)
def test_mode_is_normalized(mu, t_bar):
    p = GaussianPulse(mu=mu, t_bar=t_bar)
    half_width = 40.0 / mu
    ts = np.linspace(t_bar - half_width, t_bar + half_width, 20001)
    norm = np.trapezoid(np.square(amplitude(p, ts)), ts)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_scalar_and_array_calls_agree():
    p = GaussianPulse(mu=1.46, t_bar=5.0)
    ts = np.array([0.0, 2.5, 5.0, 7.5])
    arr = amplitude(p, ts)
    assert isinstance(amplitude(p, 2.5), float)
    assert np.allclose(arr, [amplitude(p, float(t)) for t in ts])


@pytest.mark.parametrize("mu,t_bar", [(1.46, 5.0), (0.8, 3.0), (3.0, -1.0)])
def test_rate_matches_central_difference_and_is_odd(mu, t_bar):
    p = GaussianPulse(mu=mu, t_bar=t_bar)
    ts = t_bar + np.linspace(-6.0 / mu, 6.0 / mu, 241)
    eps = 1e-5
    central = (amplitude(p, ts + eps) - amplitude(p, ts - eps)) / (2 * eps)
    rate = amplitude_rate(p, ts)
    assert rate.dtype == np.float64
    assert np.abs(rate - central).max() <= 1e-8
    offsets = np.linspace(0.0, 6.0 / mu, 121)
    assert np.allclose(amplitude_rate(p, t_bar + offsets), -amplitude_rate(p, t_bar - offsets),
                       rtol=1e-12, atol=1e-300)
    assert amplitude_rate(p, t_bar) == 0.0
