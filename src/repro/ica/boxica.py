"""Section 6 extension: applying ICA to *bounding boxes*.

The paper closes by arguing ICA generalizes beyond cylinders: a bounding
box (square cross-section ``[-wx, wx] x [-wy, wy]``, axial span
``[z0, z1]``, axis through the pivot) can be sandwiched between two
coaxial cylinders —

* the *inscribed* cylinder, radius ``min(wx, wy)``, entirely inside the
  box, and
* the *circumscribed* cylinder, radius ``hypot(wx, wy)``, containing it

— exactly like a voxel is sandwiched between two spheres (Figure 8).
Each cylinder yields sound cone bounds through the ordinary
:func:`repro.ica.cone.ica_bounds_cos`, and the uncovered gap is the
corner-case band, whose (small) measure this module also estimates so
the Section 6 claim can be benchmarked.
"""

from __future__ import annotations

import numpy as np

from repro.ica.cone import ica_bounds_cos, miss_bound

__all__ = ["box_ica_bounds_cos", "box_corner_fraction"]


def box_ica_bounds_cos(
    z0: float, z1: float, wx: float, wy: float, dist, sphere_r
) -> tuple[np.ndarray, np.ndarray]:
    """Sound cone bounds for a box-shaped tool volume, via 2 cylinders.

    Returns ``(cos_lo, cos_hi)`` with the usual guarantees against the
    *box*: ``cos_angle >= cos_lo`` implies the sphere hits the box (it
    hits the inscribed cylinder); ``cos_angle <= miss_bound(cos_hi)``
    implies it misses the box (it misses the circumscribed cylinder).
    """
    if not (0 < wx and 0 < wy):
        raise ValueError("box half-widths must be positive")
    if z1 <= z0:
        raise ValueError("box needs z1 > z0")
    r_in = min(wx, wy)
    r_out = float(np.hypot(wx, wy))
    lo, _ = ica_bounds_cos(
        np.asarray([z0]), np.asarray([z1]), np.asarray([r_in]), dist, sphere_r
    )
    _, hi = ica_bounds_cos(
        np.asarray([z0]), np.asarray([z1]), np.asarray([r_out]), dist, sphere_r
    )
    return lo, hi


def box_corner_fraction(
    z0: float,
    z1: float,
    wx: float,
    wy: float,
    dist: float,
    sphere_r: float,
    *,
    n_angles: int = 2048,
) -> float:
    """Fraction of polar angles the two-cylinder bounds leave undecided.

    Measured over a uniform grid of ``theta in [0, pi]`` — the analogue
    of the corner-case probability of Figure 9 for the box case, i.e. the
    complement of the Section 6 "efficiency should be very small" claim.
    """
    lo, hi = box_ica_bounds_cos(
        z0, z1, wx, wy, np.asarray([float(dist)]), np.asarray([float(sphere_r)])
    )
    thetas = np.pi * (np.arange(n_angles) + 0.5) / n_angles
    cos_t = np.cos(thetas)
    undecided = (cos_t < lo[0]) & (cos_t > miss_bound(hi)[0])
    return float(undecided.mean())
