"""Communication kernels: pointwise values, primitives, and tail classification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("powerlaw",)

# the 12-node Gauss-Legendre rule on [-1, 1], as (node, weight) pairs: the
# values of numpy.polynomial.legendre.leggauss(12), in its order, written out
# so that their bits depend on no numpy or LAPACK build
_GAUSS = (
    (-0.9815606342467192, 0.04717533638651141),
    (-0.9041172563704748, 0.10693932599531907),
    (-0.7699026741943047, 0.16007832854334642),
    (-0.5873179542866175, 0.20316742672306573),
    (-0.3678314989981802, 0.2334925365383546),
    (-0.1252334085114689, 0.2491470458134027),
    (0.1252334085114689, 0.2491470458134027),
    (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573),
    (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907),
    (0.9815606342467192, 0.04717533638651141),
)
# beta -> (e0, anchors): anchors[k] is the integral of (1 + r^2)^-beta
# over [0, 2^(e0 + k)]
_ANCHORS: dict = {}


def _panel(beta: float, a: float, b: float) -> float:
    """Integral of (1 + r^2)^-beta over [a, b] by the 12-node rule.

    The integrand's only singularities, r = +-i, lie far from [a, 2a] for its
    width, and from [0, b] for b <= 1/2, so the rule reaches round-off there
    while the kernel is flat enough: beta b^2 <= 1/4 on [0, b].
    """
    h = 0.5 * (b - a)
    c = a + h
    s = 0.0
    if b <= 2.0**500:
        for x, w in _GAUSS:
            r = c + h * x
            s += w * (1.0 + r * r) ** -beta
    else:  # r * r may overflow, and 1 + r^-2 rounds to 1
        for x, w in _GAUSS:
            s += w * (c + h * x) ** (-2.0 * beta)
    # (b - a) s / 2, halving s first: h underflows to 0 at b = 5e-324
    return (b - a) * (0.5 * s)


def _anchors(beta: float, e: int) -> tuple:
    """(e0, anchors) of beta, the anchors reaching 2^e.  The first panel is
    [0, 2^e0], 2^e0 <= 1/2 with beta 4^e0 < 1/4, and each next one doubles
    the end, so each anchor depends on (beta, k) alone."""
    entry = _ANCHORS.get(beta)
    if entry is not None and len(entry[1]) > e - entry[0]:
        return entry
    e0, table = entry or (min(-1, -1 - (math.frexp(beta)[1] + 1) // 2), ())
    grown = list(table) or [_panel(beta, 0.0, math.ldexp(1.0, e0))]
    while len(grown) <= e - e0:
        a = math.ldexp(1.0, e0 + len(grown) - 1)
        grown.append(grown[-1] + _panel(beta, a, 2.0 * a))
    # stored whole, so callers on other threads store equal tables
    entry = _ANCHORS[beta] = (e0, tuple(grown))
    return entry


@dataclass(frozen=True)
class CommunicationKernel:
    """Even, positive, nonincreasing interaction kernel phi(r).

    The one family, powerlaw: phi(r) = H * (1 + r^2)^(-beta); beta = 0 is the
    constant kernel H.

    Immutable after construction; all evaluations are pure.
    """

    family: str = "powerlaw"
    H: float = 1.0
    beta: float = 0.25

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (math.isfinite(self.H) and self.H > 0):
            raise ValueError("kernel amplitude H must be positive and finite")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("kernel exponent beta must be nonnegative and finite")

    def eval(self, r):
        """phi(r) for a scalar or array argument; depends on |r| only."""
        out = self._phi(np.array(r, dtype=float))
        return out if out.ndim else float(out)

    def matrix(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        """phi(xi[..., :, None] - xj[..., None, :]), elementwise: a strip holds the
        whole matrix's bits, and a batch's (B, N) rows give its members' matrices."""
        return self._phi(xi[..., :, None] - xj[..., None, :])

    def _phi(self, w: np.ndarray) -> np.ndarray:
        """Overwrite the distances in w with phi of them; the one formula of eval,
        matrix, dynamics.kernel_strips and, in columns, KernelStack.matrix."""
        # r enters through r^2 only, so evenness is exact in floating point; a
        # unit H multiplies nothing (1.0 * a is a for every double)
        w *= w
        w += 1.0
        w **= -self.beta
        if self.H != 1.0:
            w *= self.H
        return w

    def primitive(self, D: float) -> float:
        """Phi(D) = integral of phi(r) over [0, D]: in closed form at beta in
        {0, 1/2, 1}, else one panel [0, D] below the first anchor, or the
        anchor at 2^e <= D < 2^(e + 1) plus the panel [2^e, D]."""
        if not (math.isfinite(D) and D >= 0.0):
            raise ValueError("primitive argument D must be nonnegative and finite")
        if self.beta == 0.0:
            return self.H * D
        if self.beta == 0.5:
            return self.H * math.asinh(D)
        if self.beta == 1.0:
            return self.H * math.atan(D)
        e = math.frexp(D)[1] - 1
        e0, anchors = _anchors(self.beta, e)
        if D < math.ldexp(1.0, e0):
            return self.H * _panel(self.beta, 0.0, D)
        return self.H * (anchors[e - e0] + _panel(self.beta, math.ldexp(1.0, e), D))

    def fat_tail(self) -> bool:
        """True iff the primitive diverges as D grows: 2 beta <= 1."""
        return 2.0 * self.beta <= 1.0


@dataclass(frozen=True)
class KernelStack:
    """The kernels of a batch's members, which alone make a stack's equality and
    hash, as (B, 1, 1) columns -beta, H (None if every H is 1) and beta == 1 (None
    if none is): matrix is each member's own kernel.matrix, bit for bit, in one pass."""

    kernels: tuple
    columns: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.columns is None:
            beta, H = np.array([(k.beta, k.H) for k in self.kernels]).T.reshape(2, -1, 1, 1)
            H, unit = (H if (H != 1.0).any() else None), (beta == 1.0 if 1.0 in beta else None)
            object.__setattr__(self, "columns", (-beta, H, unit))

    def take(self, members: list) -> KernelStack:
        """The stack of the members at these indices, their columns taken by index."""
        columns = tuple(None if c is None else c[members] for c in self.columns)
        return KernelStack(tuple(self.kernels[b] for b in members), columns)

    def matrix(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        w = xi[..., :, None] - xj[..., None, :]
        exponent, H, unit = self.columns
        w *= w
        w += 1.0
        if unit is not None:  # a member's own w ** -1.0 is numpy's reciprocal, not pow
            np.reciprocal(w, out=w, where=unit)
        np.power(w, exponent, out=w, where=True if unit is None else ~unit)
        if H is not None:
            w *= H
        return w

    def primitive(self, D: np.ndarray) -> np.ndarray:
        """Each member's kernel.primitive of its diameter D[b], on Python floats."""
        return np.array([k.primitive(d) for k, d in zip(self.kernels, D.tolist())])
