"""Short-horizon prediction of the perch surface's motion.

The surface is tracked as a reference point (y_s, z_s) plus a fixed known
inclination.  Motion along Y is modeled as affine in time by least squares
over a trailing window; altitude is averaged and treated as constant.  The
fitted state extrapolates linearly to a future rendezvous instant.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


class InsufficientHistoryError(ValueError):
    """Fewer than two samples fall inside the fit window."""


class DegenerateFitError(ValueError):
    """All window timestamps coincide, the slope is unobservable."""


@dataclass(frozen=True)
class SurfaceSample:
    """One tracked observation of the surface reference point."""

    t: float
    y_s: float
    z_s: float


@dataclass
class SurfaceTrack:
    """Append-only log of surface samples with strictly increasing stamps."""

    samples: List[SurfaceSample] = field(default_factory=list)

    def append(self, s: SurfaceSample) -> None:
        if self.samples and s.t <= self.samples[-1].t:
            raise ValueError("sample timestamps must be strictly increasing")
        self.samples.append(s)

    def __len__(self) -> int:
        return len(self.samples)


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

    Args:
        track: sample log; only samples with t >= t_latest - window are used.
        window: trailing window length in s.
        phi_s: surface inclination in rad, passed through to the prediction.

    Raises:
        InsufficientHistoryError: fewer than 2 samples in the window.
        DegenerateFitError: window timestamps carry no spread.
    """
    if len(track) < 2:
        raise InsufficientHistoryError("need at least two samples")
    t_latest = track.samples[-1].t
    # stamps increase strictly, so the window is the tail from the first
    # sample with t >= t_latest - window
    first = bisect.bisect_left(track.samples, t_latest - window, key=lambda s: s.t)
    pts = track.samples[first:]
    if len(pts) < 2:
        raise InsufficientHistoryError("need at least two samples inside the window")
    ts = np.array([s.t for s in pts])
    ys = np.array([s.y_s for s in pts])
    zs = np.array([s.z_s for s in pts])
    if np.ptp(ts) == 0.0:
        raise DegenerateFitError("window timestamps coincide")
    # center time for conditioning; slope is unaffected
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
