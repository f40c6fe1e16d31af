"""Scalar diagnostics tracked along trajectories, and their CSV serialization."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dynamics
from .dynamics import FlockModel, FlockState, kernel_strips
from .potentials import wall_layer


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

# the ufunc reductions that ndarray.max, .min and .sum call through numpy's wrappers
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce


def initial_energy(m: FlockModel, s: FlockState) -> float:
    """K + P at a state; captured once per run as the constant G."""
    # diagnostics' K, and its P from the same wall_layer call, so that G equals E at t = 0
    return float(s.v @ s.v) / (2.0 * s.n) + wall_layer(m.geometry, m.wall, s.x, potential=True)[1]


def diagnostics(m: FlockModel, s, G) -> DiagnosticsRecord:
    """The record of one state, in floats; row-wise, as acceleration, a batch's
    sample (its time s.t and (B, N) rows s.x and s.v, N <= 181) under its
    KernelStack, with G per member, gives (B,) columns with each member's bits."""
    x, v = s.x, s.v
    n = x.shape[-1]
    # one state's sums become Python floats, a batch's stay arrays; _sum(a) / n
    # is np.mean(a)'s IEEE arithmetic without its wrapper, and np.vecdot(v, v)
    # has the bits of v @ v.  The wall terms are wall_layer's, from the walls
    # in reach alone, with each member's x_min_wall and P
    f = float if x.ndim == 1 else np.asarray
    x_min_wall, P, F = wall_layer(m.geometry, m.wall, x, potential=True)
    if F is None:  # no wall in reach: the zeros that the formula gives, without it
        F_max = F_mean = F_sq = 0.0
        F = np.zeros(n)  # for W = -(v . F), computed as in the layer
    else:
        F_abs = np.abs(F)  # then its square, which is F's
        F_max, F_mean = f(_max(F_abs, axis=-1)), f(_sum(F, axis=-1)) / n
        F_sq = f(_sum(np.square(F_abs, out=F_abs), axis=-1))
    K = f(np.vecdot(v, v)) / (2.0 * n)
    v_max = f(_max(v, axis=-1))
    v_min = f(_min(v, axis=-1))
    A = v_max - v_min
    D = f(_max(x, axis=-1) - _min(x, axis=-1))
    if n * n > dynamics._BLOCK_ELEMENTS:  # one state: a batch this wide is one member
        # phi (v_i - v_j)^2 is even, so a strip's columns past its rows count twice
        total = 0.0
        for start, stop, w, dv in kernel_strips(m.kernel, x, v):
            w *= dv
            w *= dv
            total += w.sum() + w[:, stop - start :].sum()
    else:
        # one strip: each member's N^2 contiguous entries, summed as w.sum()
        # sums them, and as the strip loop's 0.0 + (w.sum() + 0.0) does
        w = m.kernel.matrix(x, x)
        dv = v[..., :, None] - v[..., None, :]
        w *= dv
        w *= dv
        total = _sum(w.reshape(x.shape[:-1] + (n * n,)), axis=-1)
    return DiagnosticsRecord(
        t=s.t, K=K, P=P, E=K + P, p=f(_sum(v, axis=-1)) / n, A=A, D=D, I2=f(total) / (2.0 * n * n),
        L=A + m.kernel.primitive(D), W=-f(np.vecdot(v, F)), F_max=F_max, F_mean=F_mean,
        x_min_wall=x_min_wall, v_max=v_max, v_min=v_min, G=G, F_sq=F_sq,
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
