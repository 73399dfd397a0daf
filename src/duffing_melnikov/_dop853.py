"""DOP853 in lock-step: independent initial value problems stepped side by side.

Each round makes one attempt for every lane still integrating, and each
lane's attempts and floats are scipy's DOP853 on its problem alone: stage
and error sums are np.matmul over the lane's own (n, s) slice, the gemv of
DOP853's np.dot; squared norms are per-lane dots as in np.linalg.norm; step
factors use scalar pow, never array **; and each rhs runs on Python floats.

No scipy module is loaded: the tableau is scipy's coefficient file, found
through the scipy package's import spec without importing the package, read
by its location (it imports numpy alone) and sliced as scipy's DOP853 class
slices it, and the first step is scipy's select_initial_step (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.4).
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np

_SPEC = importlib.util.spec_from_file_location("dop853_coefficients", os.path.join(
    os.path.dirname(importlib.util.find_spec("scipy").origin), "integrate", "_ivp",
    "dop853_coefficients.py"))
_TABLEAU = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TABLEAU)
_STAGES = _TABLEAU.N_STAGES
_A, _B, _C = _TABLEAU.A[:_STAGES, :_STAGES], _TABLEAU.B, _TABLEAU.C[:_STAGES].tolist()
_E3, _E5, _D = _TABLEAU.E3, _TABLEAU.E5, _TABLEAU.D
_A_EXTRA, _C_EXTRA = _TABLEAU.A[_STAGES + 1:], _TABLEAU.C[_STAGES + 1:]
_ERROR_ORDER = 7  # DOP853.error_estimator_order
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / (_ERROR_ORDER + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _norm(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _first_step(rhs, y0, f0, t_end: float, rtol: float, atol: float) -> float:
    """scipy's select_initial_step at t0 = 0, direction 1 and no maximum step."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = np.asarray(rhs(h0, y0 + h0 * f0), dtype=float)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, t_end)


class Lane:
    """One problem z' = rhs(t, z) on (0, t_end): the scalars a DOP853 solver keeps for it.

    end is None while the lane runs; a step below DOP853's minimum, or a NaN
    step, sets it to "label: " and scipy's message for a step too small.
    t_end must be finite and positive: the lane stops only on reaching it.
    """

    def __init__(self, rhs, state, t_end: float, rtol: float, atol: float, label: str):
        if not (math.isfinite(t_end) and t_end > 0):
            raise ValueError(f"{label}: end time must be finite and positive, got {t_end}")
        y0 = np.array(state, dtype=float)
        f0 = np.asarray(rhs(0.0, y0), dtype=float)
        self.rhs, self.t_end, self.label, self.y0, self.f0 = rhs, t_end, label, y0, f0
        self.t, self.retry, self.end = 0.0, False, None
        self.h_abs = _first_step(rhs, y0, f0, t_end, rtol, atol)

    def size(self) -> bool:
        """Set the attempt's step h as DOP853 does; False when it is too small."""
        if not self.retry:
            self.min_step = 10 * abs(math.nextafter(self.t, math.inf) - self.t)
            self.h_abs = max(self.h_abs, self.min_step)
        if not self.h_abs >= self.min_step:  # a NaN step ends the lane too
            self.end = f"{self.label}: {_TOO_SMALL_STEP}"
            return False
        self.t_new = min(self.t + self.h_abs, self.t_end)
        self.h = self.t_new - self.t
        self.h_abs = abs(self.h)
        return True

    def judge(self, error_norm: float) -> bool:
        """Accept or reject the attempt and rescale the step as DOP853 does."""
        accept = error_norm < 1
        factor = _SAFETY * error_norm ** _EXPONENT if error_norm else _MAX_FACTOR
        if accept:
            factor = min(1 if self.retry else _MAX_FACTOR, factor)
        else:
            factor = max(_MIN_FACTOR, factor)
        self.h_abs, self.retry = self.h_abs * factor, not accept
        return accept


def _attempt(lanes, y, K, rtol, atol):
    """One DOP853 attempt of every lane from y, in scipy's rk_step order.

    K[:, 0] holds each lane's f at y.  Returns the new points and the error norms.
    """
    h = np.array([lane.h for lane in lanes])[:, None]
    for s in range(1, _STAGES):
        z = (y + np.matmul(K[:, :s].transpose(0, 2, 1), _A[s, :s]) * h).tolist()
        K[:, s] = [lane.rhs(lane.t + _C[s] * lane.h, zk) for lane, zk in zip(lanes, z)]
    y_new = y + h * np.matmul(K[:, :_STAGES].transpose(0, 2, 1), _B)
    K[:, _STAGES] = [lane.rhs(lane.t + lane.h, zk) for lane, zk in zip(lanes, y_new.tolist())]
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    squares = []  # np.linalg.norm(err) ** 2 for E5 and E3: the root of a dot, squared by pow
    for e in (_E5, _E3):
        err = np.matmul(K[:, :_STAGES + 1].transpose(0, 2, 1), e) / scale
        dots = np.matmul(err[:, None], err[:, :, None]).ravel().tolist()
        squares.append([math.sqrt(q) ** 2 for q in dots])
    return y_new, [abs(lane.h) * n5 / math.sqrt((n5 + 0.01 * n3) * y.shape[1]) if n5 or n3
                   else 0.0 for lane, n5, n3 in zip(lanes, *squares)]


def run(lanes, rtol: float, atol: float, accept) -> None:
    """Step every lane, one attempt per lane and round, until each has an end.

    accept(steps) follows each round, with one (lane, t_old, y_old, y_new, K)
    per step accepted in it (lane.t advanced, K the lane's stages); it
    finishes a lane by setting lane.end.
    """
    y = np.array([lane.y0 for lane in lanes])
    K = np.empty((len(lanes), _STAGES + 1 + len(_C_EXTRA), y.shape[1]))
    K[:, 0] = [lane.f0 for lane in lanes]
    while True:
        keep = [lane.end is None and lane.size() for lane in lanes]
        lanes, y, K = [lane for lane, k in zip(lanes, keep) if k], y[keep], K[keep]
        if not lanes:
            return
        y_new, norms = _attempt(lanes, y, K, rtol, atol)
        accepted = [lane.judge(e) for lane, e in zip(lanes, norms)]
        steps = []
        for i, lane in enumerate(lanes):
            if accepted[i]:
                steps.append((lane, lane.t, y[i], y_new[i], K[i]))
                lane.t = lane.t_new
        accept(steps)
        y[accepted], K[accepted, 0] = y_new[accepted], K[accepted, _STAGES]


def interpolant(rhs, K, t_old, t, h, y_old, y):
    """DOP853's dense output over one accepted step, in its operation order."""
    for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_STAGES + 1):
        K[s] = rhs(t_old + c * h, y_old + np.dot(K[:s].T, a[:s]) * h)
    dy = y - y_old
    F = [dy, h * K[0] - dy, 2 * dy - h * (K[_STAGES] + K[0]), *(h * np.dot(_D, K))]

    def at(s):
        x, z = (s - t_old) / (t - t_old), np.zeros(len(y))
        for i, row in enumerate(reversed(F)):
            z = (z + row) * (x if i % 2 == 0 else 1 - x)
        return z + y_old

    return at
