"""Scalar diagnostics tracked along trajectories, and their CSV serialization."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import FlockModel, FlockState, kernel_strips
from .potentials import distance_potential, layer_force, layer_potential, wall_distances


class DiagnosticsRecord(NamedTuple):
    t: float
    K: float
    P: float
    E: float
    p: float
    A: float
    D: float
    I2: float
    L: float
    W: float
    F_max: float
    F_mean: float
    x_min_wall: float
    v_max: float
    v_min: float
    G: float
    F_sq: float  # sum of squared wall forces; not a CSV column


# CSV column order, frozen: readers of diagnostics.csv depend on it.  G is the
# initial energy, repeated on every row so each row carries its own bound
# constants.
FIELDS = tuple(f for f in DiagnosticsRecord._fields if f != "F_sq")


def initial_energy(m: FlockModel, s: FlockState) -> float:
    """K + P at a state; captured once per run as the constant G."""
    # the arithmetic of diagnostics' K and P, so that G equals E at t = 0
    kinetic = float(s.v @ s.v) / (2.0 * s.n)
    potential = float(distance_potential(m.wall, wall_distances(m.geometry, s.x)).sum()) / s.n
    return kinetic + potential


def diagnostics(m: FlockModel, s: FlockState, G: float) -> DiagnosticsRecord:
    x, v, n = s.x, s.v, s.n
    # one set of wall distances, checked once, feeds the potential, the force
    # and x_min_wall (their minimum, lo); a.sum() / n is the same IEEE
    # arithmetic as np.mean(a), without its wrapper
    d = wall_distances(m.geometry, x)
    lo = m.wall._check(d)
    P = float(layer_potential(m.wall, d, lo).sum()) / n
    F = layer_force(m.geometry, m.wall, d, lo)
    K = float(v @ v) / (2.0 * n)
    v_max = float(v.max())
    v_min = float(v.min())
    A = v_max - v_min
    D = float(x.max() - x.min())
    # phi (v_i - v_j)^2 is even, so a strip's columns past its rows count twice
    total = 0.0
    for start, stop, w in kernel_strips(m.kernel, x):
        dv = v[start:stop, None] - v[None, start:]
        w *= dv
        w *= dv
        total += w.sum() + w[:, stop - start :].sum()
    I2 = float(total) / (2.0 * n * n)
    return DiagnosticsRecord(
        t=s.t,
        K=K,
        P=P,
        E=K + P,
        p=float(v.sum()) / n,
        A=A,
        D=D,
        I2=I2,
        L=A + m.kernel.primitive(D),
        W=-float(v @ F),
        F_max=float(np.abs(F).max()),
        F_mean=float(F.sum()) / n,
        x_min_wall=float(lo),
        v_max=v_max,
        v_min=v_min,
        G=G,
        F_sq=float((F**2).sum()),
    )


def write_diagnostics_csv(records: np.recarray, path) -> None:
    """One CSV row per row of a diagnostics table, in FIELDS order."""
    header = ",".join(FIELDS)
    np.savetxt(path, records[list(FIELDS)], fmt="%.17g", delimiter=",", header=header, comments="")


def dissipation_residual(traj) -> np.ndarray:
    """Central-difference dE/dt plus I2 at interior samples.

    The identity dE/dt = -I2 makes this a pure discretization residual; it
    shrinks at second order in the sample spacing.
    """
    if len(traj.records) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    t = np.asarray(traj.sample_times, dtype=float)
    E = traj.records.E
    I2 = traj.records.I2
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    return dEdt + I2[1:-1]
