"""A fixed CPU probe, run between operations to read the machine's speed.

On a VM that shares its cores with other tenants, CPU speed swings by up to
2x over seconds to minutes, and no steal time shows it.  The benchmark runs
this probe after every operation and divides each operation's time by the
median `slowness()` of the probes around it (run.scale), so times read as
seconds at the reference speed.  The probe mixes the two kinds of work the
workloads do: small NumPy calls and string formatting (the interpreter
overhead of N=16 runs) and elementwise powers over a 2 MiB array (the
N=1024 kernel sum).  The reference times are the medians of the two halves
on the 2-vCPU x86-64 VM the benchmark was tuned on.
"""

from __future__ import annotations

import time

import numpy as np

SMALL_REF_S = 0.0055
BIG_REF_S = 0.0044

_X = np.linspace(0.5, 3.0, 16)
_V = np.linspace(-0.5, 1.0, 16)[::-1].copy()
_BIG = np.linspace(-2.5, 2.5, 1 << 18)
_TMP = np.empty_like(_BIG)


def _small() -> float:
    start = time.perf_counter()
    for _ in range(150):
        d = _X[:, None] - _X[None, :]
        w = (1.0 + d * d) ** -0.25
        (w * (_V[None, :] - _V[:, None])).sum(axis=1)
    total = 0
    for i in range(5000):
        total += len(repr(i * 1.5))
    return time.perf_counter() - start


def _big() -> float:
    # in place: the allocator's state, which the workloads change, must not
    # change the probe's speed
    start = time.perf_counter()
    for _ in range(3):
        np.multiply(_BIG, _BIG, out=_TMP)
        np.add(_TMP, 1.0, out=_TMP)
        np.power(_TMP, -0.25, out=_TMP)
        _TMP.sum()
    return time.perf_counter() - start


def slowness() -> float:
    """Probe time over its reference: 1.0 at the reference speed, 2.0 at half of it."""
    return 0.5 * (_small() / SMALL_REF_S + _big() / BIG_REF_S)
