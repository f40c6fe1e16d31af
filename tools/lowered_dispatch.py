"""The environment that runs a child process on lowered numpy and OpenBLAS code.

numpy picks the SIMD loops of `pow`, `exp` and `log` from the CPU, and
OpenBLAS picks its kernels from the CPU; both read their setting once, when
numpy is imported, so only a child started with it set runs the lowered code.
tools/artifact_digest.py and tests/test_determinism.py import lowered_env from
here; this module imports numpy alone.
"""

from __future__ import annotations

import os

import numpy as np


def lowered_env():
    """The SIMD targets numpy found above its baseline, and the environment that
    switches them off (on top of any already off) and puts OpenBLAS on its
    Haswell kernel."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    off = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *found]).strip()
    return found, {"NPY_DISABLE_CPU_FEATURES": off, "OPENBLAS_CORETYPE": "Haswell"}
