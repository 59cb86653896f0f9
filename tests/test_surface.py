"""Surface tracking and short-horizon extrapolation."""

import math

import numpy as np
import pytest

from perchsim.surface import (
    DegenerateFitError,
    InsufficientHistoryError,
    SurfacePrediction,
    SurfaceSample,
    SurfaceTrack,
    fit,
)


def _track(ts, ys, z=1.0):
    tr = SurfaceTrack()
    for t, y in zip(ts, ys):
        tr.append(SurfaceSample(t, y, z))
    return tr


def test_exact_affine_recovery():
    ts = np.arange(0.0, 1.0, 1.0 / 30.0)
    tr = _track(ts, 2.0 + 0.8 * ts)
    p = fit(tr, window=0.5, phi_s=math.radians(70))
    assert p.vy == pytest.approx(0.8, abs=1e-12)
    assert p.y0 == pytest.approx(2.0 + 0.8 * ts[-1], abs=1e-12)
    assert p.z0 == pytest.approx(1.0)
    assert p.phi_s == math.radians(70)
    assert p.t_fit == ts[-1]


def test_prediction_extrapolates():
    p = SurfacePrediction(y0=2.0, vy=0.5, z0=1.0, phi_s=0.0, t_fit=3.0)
    y, dy, z, dz = p.predict(0.4)
    assert (y, dy, z, dz) == (2.2, 0.5, 1.0, 0.0)
    assert p.predict(0.0)[0] == 2.0


def test_window_excludes_old_samples():
    # first half moves, second half stands still; a short window sees only the stop
    ts = np.arange(0.0, 2.0, 0.1)
    ys = np.where(ts < 1.0, 2.0 + 1.0 * ts, 3.0)
    p = fit(_track(ts, ys), window=0.5, phi_s=0.0)
    assert p.vy == pytest.approx(0.0, abs=1e-12)
    assert p.y0 == pytest.approx(3.0, abs=1e-12)


def test_noise_averages_out():
    rng = np.random.default_rng(7)
    ts = np.arange(0.0, 1.0, 1.0 / 30.0)
    ys = 2.0 + 1.0 * ts + rng.normal(0.0, 0.001, ts.size)
    p = fit(_track(ts, ys), window=1.0, phi_s=0.0)
    assert p.vy == pytest.approx(1.0, abs=0.02)


def test_insufficient_history():
    tr = SurfaceTrack()
    with pytest.raises(InsufficientHistoryError):
        fit(tr, 0.5, 0.0)
    tr.append(SurfaceSample(0.0, 2.0, 1.0))
    with pytest.raises(InsufficientHistoryError):
        fit(tr, 0.5, 0.0)
    # plenty of samples, but only one inside the window
    tr2 = _track([0.0, 0.1, 5.0], [2.0, 2.1, 3.0])
    with pytest.raises(InsufficientHistoryError):
        fit(tr2, 0.5, 0.0)


def test_strictly_increasing_stamps():
    tr = _track([0.0, 0.1], [2.0, 2.0])
    with pytest.raises(ValueError):
        tr.append(SurfaceSample(0.1, 2.0, 1.0))


def test_degenerate_window():
    # identical timestamps cannot enter one track, so build the window
    # degenerate case from a raw samples list
    tr = SurfaceTrack()
    tr.samples = [SurfaceSample(1.0, 2.0, 1.0), SurfaceSample(1.0, 2.1, 1.0)]
    with pytest.raises(DegenerateFitError):
        fit(tr, 0.5, 0.0)


def test_long_track_fits_only_its_window():
    # stamps k / 32 are exact, so t_latest - window lands exactly on a
    # sample, which the window includes
    rng = np.random.default_rng(3)
    ts = np.arange(3000) / 32.0
    ys = 2.0 + 0.8 * ts + rng.normal(0.0, 0.01, ts.size)
    long = _track(ts, ys)
    assert ts[-1] - 0.5 == ts[-17]
    tail = _track(ts[-17:], ys[-17:])
    assert fit(long, window=0.5, phi_s=0.3) == fit(tail, window=0.5, phi_s=0.3)
    # without the edge sample the fit differs
    assert fit(_track(ts[-16:], ys[-16:]), window=0.5, phi_s=0.3) != fit(tail, window=0.5, phi_s=0.3)
