"""Communication kernels: pointwise values, primitives, and tail classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

FAMILIES = ("powerlaw",)


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
        """Overwrite the distances in w with phi of them; the one formula of eval and matrix."""
        # r enters through r^2 only, so evenness is exact in floating point
        w *= w
        w += 1.0
        w **= -self.beta
        w *= self.H
        return w

    def primitive(self, D: float) -> float:
        """Phi(D) = integral of phi(r) over [0, D], in closed form."""
        if not (math.isfinite(D) and D >= 0.0):
            raise ValueError("primitive argument D must be nonnegative and finite")
        if self.beta == 0.5:
            return self.H * math.asinh(D)
        if self.beta == 1.0:
            return self.H * math.atan(D)
        return self.H * D * float(hyp2f1(0.5, self.beta, 1.5, -D * D))

    def fat_tail(self) -> bool:
        """True iff the primitive diverges as D grows: 2 beta <= 1."""
        return 2.0 * self.beta <= 1.0
