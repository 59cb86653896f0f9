"""Short-horizon prediction of the perch surface's motion.

The surface is tracked as a reference point (y_s, z_s) plus a fixed known
inclination.  Motion along Y is modeled as affine in time by least squares
over a trailing window; altitude is averaged and treated as constant.  The
fitted state extrapolates linearly to a future rendezvous instant.

The track keeps its samples in three float arrays, so a fit reads its window
as contiguous slices.  The line fit does the arithmetic of
np.polyfit(t - mean, y, 1) with one np.linalg.lstsq call, which gives the
same coefficients bit for bit at a fraction of the call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: double-precision machine epsilon, np.polyfit's rcond unit
_EPS = np.finfo(float).eps


class InsufficientHistoryError(ValueError):
    """Fewer than two samples fall inside the fit window."""


@dataclass(frozen=True)
class SurfaceSample:
    """One tracked observation of the surface reference point."""

    t: float
    y_s: float
    z_s: float


class SurfaceTrack:
    """Append-only log of surface samples with finite, strictly increasing
    stamps.

    Stamps, y and z live in three float arrays that double their capacity
    when full; window(length) returns the trailing samples as views.
    """

    INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._t = np.empty(self.INITIAL_CAPACITY)
        self._y = np.empty(self.INITIAL_CAPACITY)
        self._z = np.empty(self.INITIAL_CAPACITY)
        self._n = 0
        self._t_last = -math.inf

    def append(self, s: SurfaceSample) -> None:
        t = float(s.t)
        if not (t > self._t_last and t < math.inf):
            raise ValueError("sample timestamps must be finite and strictly increasing")
        n = self._n
        if n == self._t.size:
            self._t, self._y, self._z = (
                np.concatenate((a, np.empty(a.size))) for a in (self._t, self._y, self._z))
        self._t[n] = t
        self._y[n] = s.y_s
        self._z[n] = s.z_s
        self._n = n + 1
        self._t_last = t

    def __len__(self) -> int:
        return self._n

    @property
    def t_latest(self) -> float:
        """Stamp of the newest sample (-inf for an empty track)."""
        return self._t_last

    def window(self, length: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stamps, y and z of the samples with t >= t_latest - length.

        Stamps increase strictly, so the window is the tail from the first
        such sample, found by binary search; the three arrays are views.
        """
        n = self._n
        first = int(np.searchsorted(self._t[:n], self._t_last - length, side="left"))
        return self._t[first:n], self._y[first:n], self._z[first:n]


@dataclass(frozen=True)
class SurfacePrediction:
    """Affine surface state anchored at the fit instant.

    predict(tau) extrapolates tau seconds past the newest sample used in the
    fit; tau = 0 reproduces the fitted current state.
    """

    y0: float
    vy: float
    z0: float
    phi_s: float
    t_fit: float

    def predict(self, tau: float) -> Tuple[float, float, float, float]:
        """Surface (y_s, dy_s, z_s, dz_s) tau seconds ahead of the fit."""
        return (self.y0 + self.vy * tau, self.vy, self.z0, 0.0)


def fit(track: SurfaceTrack, window: float, phi_s: float) -> SurfacePrediction:
    """Least-squares affine fit over the trailing window of a track.

    The fit runs np.polyfit(tc, ys, 1) on times centered at their mean, as
    its own steps: the design matrix [tc, 1] with each column scaled to unit
    norm, one lstsq solve at rcond = k * eps, and the coefficients divided
    back by the scale.  The window holds distinct stamps, so two samples
    always give the slope a nonzero spread.

    Args:
        track: sample log; only samples with t >= t_latest - window are used.
        window: trailing window length in s.
        phi_s: surface inclination in rad, passed through to the prediction.

    Raises:
        InsufficientHistoryError: fewer than 2 samples in the window.
    """
    if len(track) < 2:
        raise InsufficientHistoryError("need at least two samples")
    ts, ys, zs = track.window(window)
    k = ts.size
    if k < 2:
        raise InsufficientHistoryError("need at least two samples inside the window")
    t_latest = track.t_latest
    # center time for conditioning; slope is unaffected
    t_mean = ts.mean()
    lhs = np.empty((k, 2))
    lhs[:, 0] = ts - t_mean
    lhs[:, 1] = 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    slope, intercept = np.linalg.lstsq(lhs, ys, rcond=k * _EPS)[0] / scale
    y_at_latest = intercept + slope * (t_latest - t_mean)
    return SurfacePrediction(
        y0=float(y_at_latest),
        vy=float(slope),
        z0=float(zs.mean()),
        phi_s=phi_s,
        t_fit=t_latest,
    )
