"""Euclidean-distance NMF with multiplicative updates.

Two entry points: `factorize` learns both factors (offline dictionary
training), `encode` solves for activations against a frozen dictionary
(online decomposition).  Both run a fixed iteration count and record the
squared-error objective after every full sweep so callers can inspect
convergence.

The objective ||V - WH||^2 is never formed from the m x n residual.  It
is expanded as ||V||^2 - 2<W^T V, H> + <W^T W, H H^T> (Frobenius inner
products), whose r x n and r x r products the multiplicative updates form
anyway, and clamped at 0 because the expansion can cancel to a tiny
negative value when the fit is exact.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULT_SEED, EPSILON, TRAIN_ITERS
from .framing import _whole, check_nonneg_matrix

__all__ = [
    "NmfParams",
    "NmfResult",
    "encode",
    "factorize",
    "split_reconstruction",
]


@dataclass(frozen=True)
class NmfParams:
    """Knobs for one NMF run.

    rank is the inner dimension r; max_iters the fixed sweep count
    (no early exit, so runs are reproducible); seed drives the uniform
    initialization.  Every denominator and every updated entry is floored
    at defaults.EPSILON, keeping factors strictly positive.
    """

    rank: int
    max_iters: int = TRAIN_ITERS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, lowest in (("rank", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, lowest))


@dataclass
class NmfResult:
    """Factor pair plus the per-iteration objective values."""

    w: np.ndarray
    h: np.ndarray
    objective_trace: list[float] = field(default_factory=list)


def _objective(v_sq, wt_v, gram, h, hht):
    # ||V - WH||^2 from ||V||^2, W^T V, W^T W, H and H H^T; see the module
    # docstring.
    d = v_sq - 2.0 * float(np.sum(wt_v * h)) + float(np.sum(gram * hht))
    return max(d, 0.0)


def _update_h(wt_v, gram, h, out):
    # H <- H .* (W^T V) ./ (W^T W H) from the products W^T V and W^T W,
    # denominator floored, result clamped up to EPSILON so no activation
    # collapses to an absorbing zero.  Writes only `out` (shaped like h, not
    # aliasing any input), in the operation order of the expression
    # max(h * (wt_v / max(gram @ h, EPSILON)), EPSILON), and returns it.
    np.matmul(gram, h, out=out)
    np.maximum(out, EPSILON, out=out)
    np.divide(wt_v, out, out=out)
    np.multiply(h, out, out=out)
    return np.maximum(out, EPSILON, out=out)


def _update_w(v, w, h, out):
    # W <- W .* (V H^T) ./ (W H H^T), same flooring policy and the same
    # single-buffer scheme as `_update_h`: writes only `out`.  Returns it
    # and H H^T, which the objective reuses.
    hht = h @ h.T
    np.matmul(w, hht, out=out)
    np.maximum(out, EPSILON, out=out)
    np.divide(v @ h.T, out, out=out)
    np.multiply(w, out, out=out)
    return np.maximum(out, EPSILON, out=out), hht


def _reject_overflow(fn):
    """Raise one ValueError about the input level when fn overflows float64.

    Inputs are finite on entry, so an overflow means the input is too loud
    to square and factorize; numpy raises at the first one, scanning nothing.
    """

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError:
            raise ValueError(
                "input level too high: float64 overflows while squaring its "
                "features or factorizing them; scale the input down"
            ) from None

    return guarded


def factorize(v: np.ndarray, params: NmfParams) -> NmfResult:
    """Factor v ≈ W H with alternating multiplicative updates.

    Initialization draws W then H from uniform(EPSILON, 1) with the
    seeded generator.  Each iteration updates H first, then W, then
    appends the objective d = sum((v - WH)^2) to the trace; d is
    non-increasing up to roundoff.  d comes from the new W's W^T V and
    W^T W, which the next H update reuses, and the H H^T of the W update,
    so the trace costs r x n and r x r elementwise sums per sweep, plus
    one extra W^T V and W^T W after the last.
    """
    v = check_nonneg_matrix(v, "v")
    m, n = v.shape
    rng = np.random.default_rng(params.seed)
    w = rng.uniform(EPSILON, 1.0, size=(m, params.rank))
    h = rng.uniform(EPSILON, 1.0, size=(params.rank, n))
    v_sq = float(np.sum(v * v))
    wt_v, gram = w.T @ v, w.T @ w
    h_next = np.empty_like(h)
    trace = []
    for _ in range(params.max_iters):
        h, h_next = _update_h(wt_v, gram, h, h_next), h
        # a fresh W buffer each sweep, not a swapped pair: the returned W
        # outlives the call as a model dictionary, and keeping a buffer drawn
        # before the loop measured a higher peak RSS in processes that train
        # repeatedly
        w, hht = _update_w(v, w, h, np.empty_like(w))
        np.matmul(w.T, v, out=wt_v)
        gram = w.T @ w
        trace.append(_objective(v_sq, wt_v, gram, h, hht))
    return NmfResult(w=w, h=h, objective_trace=trace)


def encode(
    v: np.ndarray,
    w_fixed: np.ndarray,
    params: NmfParams,
    objective_trace: list | None = None,
) -> np.ndarray:
    """Solve for H in v ≈ w_fixed H with the dictionary held frozen.

    Only the H update runs, alternating between two (r, n) buffers of its
    own; v and w_fixed are only read.  The rank comes from w_fixed's
    column count (params.rank is ignored here).  Pass a list as
    objective_trace to collect the per-iteration objective, formed like
    `factorize`'s from the fixed W^T V and W^T W and each sweep's H H^T.
    """
    v = check_nonneg_matrix(v, "v")
    w_fixed = check_nonneg_matrix(w_fixed, "w_fixed")
    if v.shape[0] != w_fixed.shape[0]:
        raise ValueError(
            f"row mismatch: v has {v.shape[0]} rows, w_fixed has {w_fixed.shape[0]}"
        )
    rng = np.random.default_rng(params.seed)
    h = rng.uniform(EPSILON, 1.0, size=(w_fixed.shape[1], v.shape[1]))
    gram = w_fixed.T @ w_fixed
    wt_v = w_fixed.T @ v
    v_sq = float(np.sum(v * v)) if objective_trace is not None else 0.0
    h_next = np.empty_like(h)
    for _ in range(params.max_iters):
        h, h_next = _update_h(wt_v, gram, h, h_next), h
        if objective_trace is not None:
            objective_trace.append(_objective(v_sq, wt_v, gram, h, h @ h.T))
    return h


def split_reconstruction(
    w_s: np.ndarray, w_n: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked-dictionary encoding into class reconstructions.

    h's first cols(w_s) rows activate the speech dictionary, the rest
    the noise dictionary; returns (w_s @ h_s, w_n @ h_n).  Callers
    validate: `encode` checks the stacked dictionary and returns h, so
    only the row partition is checked here.
    """
    r_s = w_s.shape[1]
    if h.shape[0] != r_s + w_n.shape[1]:
        raise ValueError(
            f"h has {h.shape[0]} rows but the dictionaries have "
            f"{r_s} + {w_n.shape[1]} columns"
        )
    return w_s @ h[:r_s], w_n @ h[r_s:]
