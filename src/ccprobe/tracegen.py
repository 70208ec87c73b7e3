"""Constrained bandwidth-trace generation.

Traces are sequences of per-interval capacities in Mbps. The realism knob is
a smoothness budget: the windowed average absolute slope
S_t = (1/k) * sum |b_i - b_{i-1}| over the k first-differences ending at t
must stay <= delta. Generation projects each proposed value onto the feasible
set, so feasibility holds by construction and is cheap to re-check post hoc.
"""

from __future__ import annotations

import numpy as np

from .netsim import BandwidthTrace, Rng, _ffi, _lib


class SmoothnessBudget:
    def __init__(self, delta: float = 48.0, window_k: int = 1, bw_min: float = 1.0,
                 bw_max: float = 96.0):
        self.delta = delta   # Mbps per trace interval
        self.window_k = window_k
        self.bw_min = bw_min
        self.bw_max = bw_max
        if not self.bw_min < self.bw_max:
            raise ValueError(f"need bw_min < bw_max, got bw_min={self.bw_min}, "
                             f"bw_max={self.bw_max}")

    def clamp(self, value: float) -> float:
        return min(self.bw_max, max(self.bw_min, value))


def avg_abs_slope(values, t: int, k: int) -> float:
    """Mean |b_i - b_{i-1}| over the k first-differences ending at index t."""
    if t < k:
        raise IndexError(f"need k={k} differences ending at t={t}")
    return sum(abs(values[i] - values[i - 1]) for i in range(t - k + 1, t + 1)) / k


def project_next(history, proposed: float, budget: SmoothnessBudget) -> float:
    """Nearest value to `proposed` keeping the extended sequence feasible.

    Always feasible: a zero step never violates the budget, so the previous
    value is a fallback. Computed by the C function the env driver steps
    with, over the last window_k values of `history`.
    """
    recent = list(history[-budget.window_k:])
    if not recent:
        raise IndexError("project_next needs a non-empty history")
    return _lib.tl_project_next(recent, len(recent), proposed, budget.delta,
                                budget.window_k, budget.bw_min, budget.bw_max)


def check_feasible(values, budget: SmoothnessBudget, tol: float = 1e-9) -> bool:
    """Independent post-hoc check: range bounds plus S_t <= delta everywhere."""
    for v in values:
        if v < budget.bw_min - tol or v > budget.bw_max + tol:
            return False
    k = budget.window_k
    for t in range(k, len(values)):
        if avg_abs_slope(values, t, k) > budget.delta + tol:
            return False
    return True


def gen_random_trace(length: int, budget: SmoothnessBudget, seed: int,
                     interval_ms: float = 100.0) -> BandwidthTrace:
    """Uniform proposals in [bw_min, bw_max], each after the first projected
    (`project_next`) over the values before it, in one C loop."""
    if length < 1:
        raise ValueError("length must be >= 1")
    values = Rng(seed).uniform(budget.bw_min, budget.bw_max, length)
    _lib.tl_project_trace(_ffi.from_buffer("double[]", values), length, budget.delta,
                          budget.window_k, budget.bw_min, budget.bw_max)
    return BandwidthTrace(interval_ms=interval_ms, values=values.tolist())


def gen_unconstrained(length: int, bw_min: float, bw_max: float, seed: int,
                      interval_ms: float = 100.0) -> BandwidthTrace:
    """No smoothness projection; i.i.d. uniform values."""
    if length < 1:
        raise ValueError("length must be >= 1")
    values = Rng(seed).uniform(bw_min, bw_max, length)
    return BandwidthTrace(interval_ms=interval_ms,
                          values=np.clip(values, bw_min, bw_max).tolist())


def gen_burst_trace(length: int, peak: float = 80.0, trough: float = 4.0,
                    rise_intervals: int = 20, fall_intervals: int = 60,
                    interval_ms: float = 100.0) -> BandwidthTrace:
    """Repeating triangle bursts: quick rise to a peak, sustained decline.

    The fast rise / slow fall asymmetry makes a window-growing sender overrun
    the decline phase, so queuing delay accumulates across cycles without any
    packet loss on an adequately buffered link.
    """
    period = rise_intervals + fall_intervals
    values = []
    for i in range(length):
        ph = i % period
        if ph < rise_intervals:
            frac = (ph + 1) / rise_intervals
            values.append(trough + (peak - trough) * frac)
        else:
            frac = (ph - rise_intervals + 1) / fall_intervals
            values.append(peak - (peak - trough) * frac)
    return BandwidthTrace(interval_ms=interval_ms, values=values)
