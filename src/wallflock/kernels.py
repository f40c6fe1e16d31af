"""Communication kernels: pointwise values, primitives, and tail classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

FAMILIES = ("powerlaw", "constant")


@dataclass(frozen=True)
class CommunicationKernel:
    """Even, positive, nonincreasing interaction kernel phi(r).

    Families:
      powerlaw: phi(r) = H * (1 + r^2)^(-beta)
      constant: phi(r) = H

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
        if self.family == "powerlaw" and not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("kernel exponent beta must be nonnegative and finite")

    def eval(self, r):
        """phi(r) for a scalar or array argument; depends on |r| only."""
        r = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(r)):
            raise ValueError("kernel argument must be finite")
        if self.family == "constant":
            out = np.full_like(r, self.H)
        else:
            # r enters through r^2 only, so evenness is exact in floating point
            out = self.H * (1.0 + r * r) ** (-self.beta)
        return out if out.ndim else float(out)

    def primitive(self, D: float) -> float:
        """Phi(D) = integral of phi(r) over [0, D], in closed form per family."""
        if not (math.isfinite(D) and D >= 0.0):
            raise ValueError("primitive argument D must be nonnegative and finite")
        if self.family == "constant" or self.beta == 0.0:
            return self.H * D
        if self.beta == 0.5:
            return self.H * math.asinh(D)
        if self.beta == 1.0:
            return self.H * math.atan(D)
        return self.H * D * float(hyp2f1(0.5, self.beta, 1.5, -D * D))

    def fat_tail(self) -> bool:
        """True iff the primitive diverges as D grows (analytic per family)."""
        if self.family == "constant":
            return True
        return 2.0 * self.beta <= 1.0
