"""Shared array-level traversal kernels and fold semantics.

One implementation of the time-decayed frontier sweep — forward level
expansion, the 64-wide uint64 bit-plane multi-source sweep (counted,
weighted, and level-histogrammed), and the transpose helper behind
reverse (ancestor) sweeps — that :class:`~repro.tdn.csr.DeltaCSR`, the
one CSR query engine, adapts over and the sharded executor's threads
sweep clones of.  See :mod:`repro.kernels.
traversal` for the physics and :mod:`repro.kernels.folds` for the
pluggable accumulation semantics layered on top of it.
"""

from repro.kernels.backend import (
    BACKEND_ENV,
    BACKENDS,
    native_available,
    native_compile_seconds,
    reset_backend_state,
    resolve_backend,
)
from repro.kernels.folds import (
    FOLD_NAMES,
    CountFold,
    Fold,
    HopDiscountFold,
    TimeDecayFold,
    WeightedSumFold,
    hop_discount_sum,
    max_in_expiries,
    resolve_fold,
)
from repro.kernels.instrument import (
    disable_kernel_metrics,
    enable_kernel_metrics,
)
from repro.kernels.traversal import (
    PLANE_WIDTH,
    ArrivalLog,
    LogOverlay,
    SweepSampler,
    TraversalKernel,
    build_transpose,
    dense_weight_sum,
    seed_range_error,
    set_sweep_sampler,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "FOLD_NAMES",
    "PLANE_WIDTH",
    "ArrivalLog",
    "CountFold",
    "Fold",
    "HopDiscountFold",
    "LogOverlay",
    "SweepSampler",
    "TimeDecayFold",
    "TraversalKernel",
    "WeightedSumFold",
    "build_transpose",
    "dense_weight_sum",
    "disable_kernel_metrics",
    "enable_kernel_metrics",
    "hop_discount_sum",
    "max_in_expiries",
    "native_available",
    "native_compile_seconds",
    "reset_backend_state",
    "resolve_backend",
    "seed_range_error",
    "set_sweep_sampler",
]
