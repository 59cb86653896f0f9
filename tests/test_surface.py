"""Surface tracking and short-horizon extrapolation."""

import bisect
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

from perchsim.surface import (
    InsufficientHistoryError,
    SurfacePrediction,
    SurfaceSample,
    SurfaceTrack,
    fit,
)


# --- the list track and np.polyfit fit, kept here as the reference for the
# array track and its one-lstsq fit


@dataclass
class ReferenceTrack:
    """Append-only list of surface samples with strictly increasing stamps."""

    samples: List[SurfaceSample] = field(default_factory=list)

    def append(self, s: SurfaceSample) -> None:
        if self.samples and s.t <= self.samples[-1].t:
            raise ValueError("sample timestamps must be strictly increasing")
        self.samples.append(s)

    def __len__(self) -> int:
        return len(self.samples)


def reference_fit(track: ReferenceTrack, window: float, phi_s: float) -> SurfacePrediction:
    """Least-squares affine fit over the trailing window, through np.polyfit."""
    if len(track) < 2:
        raise InsufficientHistoryError("need at least two samples")
    t_latest = track.samples[-1].t
    first = bisect.bisect_left(track.samples, t_latest - window, key=lambda s: s.t)
    pts = track.samples[first:]
    if len(pts) < 2:
        raise InsufficientHistoryError("need at least two samples inside the window")
    ts = np.array([s.t for s in pts])
    ys = np.array([s.y_s for s in pts])
    zs = np.array([s.z_s for s in pts])
    tc = ts - ts.mean()
    slope, intercept = np.polyfit(tc, ys, 1)
    y_at_latest = intercept + slope * (t_latest - ts.mean())
    return SurfacePrediction(
        y0=float(y_at_latest),
        vy=float(slope),
        z0=float(zs.mean()),
        phi_s=phi_s,
        t_fit=t_latest,
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
    with pytest.raises(ValueError):
        tr.append(SurfaceSample(0.05, 2.0, 1.0))
    assert len(tr) == 2


@pytest.mark.parametrize("bad_t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n_before", [0, 3])
def test_non_finite_stamp_rejected(bad_t, n_before):
    # a NaN stamp passes "t <= last" as False; it must not enter the track,
    # where the fit would hand it to LAPACK
    ts = [0.1 * k for k in range(n_before)]
    tr = _track(ts, [2.0] * n_before)
    with pytest.raises(ValueError, match="strictly increasing"):
        tr.append(SurfaceSample(bad_t, 2.0, 1.0))
    assert len(tr) == n_before
    # the track stays usable: the next finite stamps enter and fit
    tr.append(SurfaceSample(0.1 * n_before, 2.0, 1.0))
    tr.append(SurfaceSample(0.1 * n_before + 0.1, 2.5, 1.0))
    assert math.isfinite(fit(tr, 10.0, 0.0).vy)


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


def _assert_same_fit(track, ref, window, phi_s):
    """fit equals reference_fit, or both find too few samples; returns the
    number of samples fitted (0 for too few)."""
    try:
        want = reference_fit(ref, window, phi_s)
    except InsufficientHistoryError:
        with pytest.raises(InsufficientHistoryError):
            fit(track, window, phi_s)
        return 0
    assert fit(track, window, phi_s) == want, (len(ref), window)
    return track.window(window)[0].size


def _random_samples(rng, n, stamps):
    """n samples of a ramping surface under noise, at the given stamps."""
    ts = stamps(np.arange(n), rng)
    a = rng.uniform(-1.0, 1.0)
    v = rng.uniform(-1.5, 1.5)
    ys = 2.5 + v * ts + 0.5 * a * ts * ts + rng.normal(0.0, rng.choice([0.0, 0.001, 0.05]), n)
    zs = 1.0 + rng.normal(0.0, 0.001, n)
    return [SurfaceSample(float(t), float(y), float(z)) for t, y, z in zip(ts, ys, zs)]


STAMPS = {
    # as the harness writes them: tick k at k * (1 / 30)
    "k/30": lambda k, rng: k * (1.0 / 30.0),
    # exact binary stamps, so t_latest - 0.5 lands on a sample
    "k/32": lambda k, rng: k / 32.0,
    "jittered": lambda k, rng: np.cumsum(rng.uniform(0.005, 0.06, k.size)),
}


@pytest.mark.parametrize("stamps", sorted(STAMPS))
@pytest.mark.parametrize("seed", range(4))
def test_fit_equals_polyfit_reference(stamps, seed):
    # every prefix of a track longer than the arrays' initial capacity, so
    # they grow; windows of 2 samples (0.05 s), of an edge on a sample
    # (0.5 s at k/32) and longer than the track
    rng = np.random.default_rng(seed)
    n = 3 * SurfaceTrack.INITIAL_CAPACITY + 5
    samples = _random_samples(rng, n, STAMPS[stamps])
    track, ref = SurfaceTrack(), ReferenceTrack()
    edges = 0
    for s in samples:
        track.append(s)
        ref.append(s)
        for window in (0.05, 0.2, 0.5, 100.0):
            _assert_same_fit(track, ref, window, 0.3)
            edges += any(q.t == s.t - window for q in ref.samples)
    if stamps == "k/32":
        assert edges > 0


def test_two_sample_window_equals_reference():
    # the smallest window the fit accepts, at several spreads and offsets
    rng = np.random.default_rng(11)
    sizes = {0: 0, 2: 0}
    for _ in range(200):
        t0 = rng.uniform(0.0, 50.0)
        dt = rng.choice([1.0 / 30.0, 1e-6, rng.uniform(0.001, 0.4)])
        samples = [SurfaceSample(t0, rng.normal(2.0, 1.0), rng.normal(1.0, 0.1)),
                   SurfaceSample(t0 + dt, rng.normal(2.0, 1.0), rng.normal(1.0, 0.1))]
        track, ref = SurfaceTrack(), ReferenceTrack()
        for s in samples:
            track.append(s)
            ref.append(s)
        for window in (dt, 1.5 * dt):
            sizes[_assert_same_fit(track, ref, window, -0.2)] += 1
    # most pairs fit; some lose their first sample to the rounding of t0 + dt - dt
    assert sizes[2] > 200 and sizes[0] > 0
