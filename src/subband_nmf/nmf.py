"""Euclidean-distance NMF with multiplicative updates.

Two entry points: `factorize` learns both factors (offline dictionary
training), `encode` solves for activations against a frozen dictionary
(online decomposition).  `factorize` runs a fixed sweep count;
`encode` stops each block of columns once its objective converges, with
the sweep count as the cap.  Both can record the squared-error objective
of every sweep so callers can inspect convergence.

The objective ||V - WH||^2 is never formed from the m x n residual.  It
is expanded as ||V||^2 - 2<W^T V, H> + <W^T W, H H^T> (Frobenius inner
products), whose r x n and r x r products the multiplicative updates form
anyway, and clamped at 0 because the expansion can cancel to a tiny
negative value when the fit is exact.  `encode` reads the last term as
<W^T W H, H>, from the product its H update forms first.

Six public entry points are each one `_nmf_call`: `train_stft_model`,
`enhance_stft`, `train_dwpt_model`, `subband_gain`, `enhance_subbands`
and `enhance_dwpt`.  Such a call runs every matrix product at one BLAS
thread, raises one ValueError when the input is too loud, and spreads
its independent work, the subbands, the two classes of stft training or
the column blocks of H, over as many Python threads as BLAS had
(`_run_tiles`); numpy releases the GIL in `matmul` and its ufunc loops.
A machine without numpy's OpenBLAS thread-count setter takes the same
path with a count that reads 1 (`_blas_threads_api`): its calls run their
work in the calling thread and leave BLAS alone.
`factorize` and `encode` are not entry points of that kind: called
directly, they run at the caller's BLAS count and errstate, and `encode`
sweeps its column blocks in the calling thread.

`factorize` and `encode` run in the floating dtype of their v, and a
float64 v keeps the float64 solver bit for bit.  Both enhancers hand
`encode` float32 features and a float32 dictionary, and split its H by
class in float32 (`spectral._ratio_gain`); both trainers hand `factorize`
float32 features (`spectral._train_pair`).  The sweeps then move half
the bytes and fit twice the lanes per SIMD register, and the SSNR gains
stay equal to 5 decimals.  The ratio gain formed from the two parts, and
everything after it, is float64, and so are the transforms and the
squaring before the features are cast.
"""

import contextlib
import contextvars
import ctypes
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULT_SEED, ENCODE_TOL, EPSILON, TRAIN_ITERS
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

    rank is the inner dimension r; max_iters the sweep count of
    `factorize`, and the cap on `encode`'s, which stops earlier once the
    objective converges (defaults.ENCODE_TOL); seed drives the uniform
    initialization.  Either way a run is reproducible.  Every denominator
    and every updated entry is floored at defaults.EPSILON, keeping
    factors strictly positive.
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


# the narrowest column block `encode` sweeps and stops on, bar a matrix
# narrower than two of them
_BLOCK_COLUMNS = 128


def _dot(a, b) -> float:
    # the Frobenius inner product <a, b>, without a temporary.  BLAS forms
    # it as `vdot` does, bit for bit, but `matmul` is a ufunc, so numpy
    # checks it for overflow: float32 training's ||V||^2 overflows from
    # input peaks near 1e8, and that raises inside an `_nmf_call` instead of
    # tracing inf - inf.
    return float(np.matmul(a.ravel(), b.ravel()))


def _objective(v_sq, wt_v, h, a, b) -> float:
    # ||V - WH||^2 from ||V||^2, W^T V, H and a pair whose inner product is
    # <W^T W, H H^T>: (W^T W, H H^T) in `factorize`, (W^T W H, H) in
    # `encode`; see the module docstring.  A float32 dot overflows from
    # input peaks near 1e8: that raises inside an `_nmf_call`, and under any
    # other error state leaves a nan objective, which never stops an
    # `encode` block.
    d = v_sq - 2.0 * _dot(wt_v, h) + _dot(a, b)
    return max(d, 0.0) if math.isfinite(d) else math.nan


def _update(numerator, x, denominator):
    # X <- X .* numerator ./ denominator, the multiplicative update of either
    # factor: H from (W^T V, W^T W H), W from (V H^T, W H H^T).  The caller
    # forms both products (`encode` reads its objective from W^T W H first):
    # denominator floored, result clamped up to EPSILON so no entry collapses
    # to an absorbing zero.  Writes only denominator (shaped like x, not
    # aliasing any input), in the operation order of the expression
    # max(x * (numerator / max(denominator, EPSILON)), EPSILON), and returns it.
    np.maximum(denominator, EPSILON, out=denominator)
    np.divide(numerator, denominator, out=denominator)
    np.multiply(x, denominator, out=denominator)
    return np.maximum(denominator, EPSILON, out=denominator)


@functools.cache
def _openblas_libs() -> tuple:
    """numpy's bundled OpenBLAS libraries that load, in path order."""
    libs = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                              "*openblas*"))):
        with contextlib.suppress(OSError):
            libs.append(ctypes.CDLL(path))
    return tuple(libs)


_NO_SETTER = (lambda: 1, lambda count: None)


@functools.cache
def _blas_threads_api():
    """The (get, set) thread-count functions of numpy 2's bundled scipy-openblas.

    Without them it returns `_NO_SETTER`, whose count reads 1 and whose
    setter does nothing, so every caller takes the one path: BLAS is left
    alone and `_threads()` reads 1.
    """
    for lib in _openblas_libs():
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return _NO_SETTER


# Inside an `_nmf_call`, how many threads the current context may spread
# its work over: the BLAS count on entry, or 1 in a tile; None outside a
# call.  On Python 3.10-3.13 a thread the caller starts begins with an
# empty context, so it never inherits a budget.
_budget = contextvars.ContextVar("budget", default=None)
# BLAS stays at one thread while any thread is inside a call; the last one
# out restores the count the first one in saved.  The count is one per
# process, so this state is too.
_pin_lock = threading.Lock()
_pin = {"depth": 0, "saved": 1}


def _threads() -> int:
    """The threads the current call may spread its work over; 1 outside a call."""
    return _budget.get() or 1


def _nmf_call(fn):
    """Make fn a call that runs NMF: one BLAS thread, and one error for a too-loud input.

    Outside a call, fn runs with BLAS at one thread and `_threads()` at
    the count BLAS had, under np.errstate(over="raise"): inputs are finite
    on entry, so an overflow means the input is too loud to square, or to
    encode or factorize in float32, and it is raised as one ValueError
    about the input level.  The budget and the errstate are context
    variables, set in the caller's context and reset on return or raise;
    every share of `_run_tiles` runs in a copy of it.  A nested call,
    inside a call or inside a tile, sees the budget set and runs fn as it
    is, and the outer call converts any overflow.  Concurrent callers
    share one saved count: the first one in saves it and sets 1, and the
    last one out restores it, on return and on raise.  There is one path:
    without a thread-count setter the pair is `_NO_SETTER`, so the saved
    count, and with it `_threads()`, reads 1 and BLAS is left alone.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _budget.get() is not None:
            return fn(*args, **kwargs)
        get, set_ = _blas_threads_api()
        with _pin_lock:
            if _pin["depth"] == 0:
                _pin["saved"] = get()
                set_(1)
            _pin["depth"] += 1
            token = _budget.set(_pin["saved"])
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError:
            raise ValueError(
                "input level too high: its features overflow while being squared, "
                "encoded or factorized; scale the input down"
            ) from None
        finally:
            _budget.reset(token)
            with _pin_lock:
                _pin["depth"] -= 1
                if _pin["depth"] == 0:
                    set_(_pin["saved"])

    return call


def _run_tiles(fn, tiles: int) -> list:
    """[fn(i) for i in range(tiles)], over min(_threads(), tiles) threads.

    The calling thread is one of them and takes tiles 0, count, 2 count,
    ...; each helper takes its own stride of tiles.  Every share, the
    caller's included, runs in its own copy of the caller's context, so
    numpy's errstate holds there too, and `_threads()` is 1 inside a tile
    and unchanged after it.  At one thread the caller's copy runs every
    tile in order.  Every helper is joined before this returns, and the
    first exception a tile raised is re-raised.
    """
    count = min(_threads(), tiles)
    results, errors = [None] * tiles, []

    def work(first):
        _budget.set(1)
        try:
            for i in range(first, tiles, count):
                results[i] = fn(i)
        except BaseException as e:  # re-raised in the calling thread
            errors.append(e)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work, first))
               for first in range(1, count)]
    for helper in helpers:
        helper.start()
    contextvars.copy_context().run(work, 0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def factorize(v: np.ndarray, params: NmfParams) -> NmfResult:
    """Factor v ≈ W H with alternating multiplicative updates.

    Initialization draws W then H from uniform(EPSILON, 1) with the
    seeded generator.  Each iteration updates H first, then W, then
    appends the objective d = sum((v - WH)^2) to the trace; d is
    non-increasing up to roundoff.  d comes from the new W's W^T V and
    W^T W, which the next H update reuses, and the H H^T of the W update,
    so the trace costs an r x n and an r x r dot product per sweep, plus
    one extra W^T V and W^T W after the last.  Everything runs in v's
    floating dtype, as in `encode`: float32 stays float32, and any other
    dtype is read as float64.  W and H are drawn in float64 and then cast,
    so both dtypes start from the same draw.
    """
    v = check_nonneg_matrix(v, "v")
    m, n = v.shape
    rng = np.random.default_rng(params.seed)
    w = rng.uniform(EPSILON, 1.0, size=(m, params.rank)).astype(v.dtype, copy=False)
    h = rng.uniform(EPSILON, 1.0, size=(params.rank, n)).astype(v.dtype, copy=False)
    v_sq = _dot(v, v)
    wt_v, gram = w.T @ v, w.T @ w
    h_next = np.empty_like(h)
    trace = []
    for _ in range(params.max_iters):
        h, h_next = _update(wt_v, h, np.matmul(gram, h, out=h_next)), h
        # a fresh W buffer each sweep, not a swapped pair: the returned W
        # outlives the call as a model dictionary, and keeping a buffer drawn
        # before the loop measured a higher peak RSS in processes that train
        # repeatedly
        out, hht = np.empty_like(w), h @ h.T
        w = _update(v @ h.T, w, np.matmul(w, hht, out=out))
        np.matmul(w.T, v, out=wt_v)
        gram = w.T @ w
        trace.append(_objective(v_sq, wt_v, h, gram, hht))
    return NmfResult(w=w, h=h, objective_trace=trace)


def _column_blocks(n: int) -> list:
    """The bounds of the column blocks `encode` sweeps and stops on, from n alone.

    The count is the largest power of two whose blocks stay at least
    `_BLOCK_COLUMNS` wide, and the blocks split n as evenly as whole
    columns allow: one block below 2 * _BLOCK_COLUMNS columns, two up to
    4 * _BLOCK_COLUMNS, and so on.  A power of two spreads evenly over two
    or four threads.
    """
    count = 1 << max(0, (n // _BLOCK_COLUMNS).bit_length() - 1)
    return [n * i // count for i in range(count + 1)]


def encode(
    v: np.ndarray,
    w_fixed: np.ndarray,
    params: NmfParams,
    objective_trace: list | None = None,
) -> np.ndarray:
    """Solve for H in v ≈ w_fixed H with the dictionary held frozen.

    Only the H update runs; v and w_fixed are only read.  The rank comes
    from w_fixed's column count (params.rank is ignored here).

    The columns of H update independently, so they are swept in the
    fixed blocks of `_column_blocks`, each until its own objective
    converges: a block stops at the first sweep that starts from an
    objective no more than defaults.ENCODE_TOL below the previous
    sweep's, or from a zero objective, and keeps the H it started from.
    params.max_iters caps the sweeps.  The objective of a block's H is
    ||V_b||^2 - 2<W^T V_b, H_b> + <W^T W H_b, H_b>, from the products the
    update forms anyway (see the module docstring), so the stop costs two
    dot products per sweep.  Pass a list as objective_trace to collect,
    for every sweep any block started, the sum over blocks of the
    objective each block's H had then (a stopped block's last one).

    Everything runs in v's floating dtype (float32 or float64; any other
    dtype is read as float64), and w_fixed is cast to it.  W^T W and the
    seeded initial H are formed whole; H is drawn in float64 and then
    cast, so both dtypes start from the same draw.  Each block forms its
    own W^T V_b and ||V_b||^2 from its copy of V's columns, inside the
    tile that sweeps it.  The block bounds depend on n alone, so inside an
    enhancement call the blocks run side by side on `_threads()` threads,
    and the result is the same bytes at every thread count.
    """
    v = check_nonneg_matrix(v, "v")
    w_fixed = check_nonneg_matrix(w_fixed, "w_fixed").astype(v.dtype, copy=False)
    if v.shape[0] != w_fixed.shape[0]:
        raise ValueError(
            f"row mismatch: v has {v.shape[0]} rows, w_fixed has {w_fixed.shape[0]}"
        )
    n = v.shape[1]
    rng = np.random.default_rng(params.seed)
    h = rng.uniform(EPSILON, 1.0, size=(w_fixed.shape[1], n)).astype(v.dtype, copy=False)
    gram = w_fixed.T @ w_fixed
    bounds = _column_blocks(n)

    def sweep(i):
        cols = slice(bounds[i], bounds[i + 1])
        # a block narrower than H is copied: ufuncs on a column slice of a
        # row-major matrix measured at half speed
        v_b, h_b = np.ascontiguousarray(v[:, cols]), np.ascontiguousarray(h[:, cols])
        wt_v_b, v_sq = w_fixed.T @ v_b, _dot(v_b, v_b)
        del v_b
        gram_h, trace = np.empty_like(h_b), []
        for _ in range(params.max_iters):
            d = _objective(v_sq, wt_v_b, h_b, np.matmul(gram, h_b, out=gram_h), h_b)
            converged = d == 0.0 or (len(trace) > 0 and trace[-1] - d <= ENCODE_TOL * trace[-1])
            trace.append(d)
            if converged:
                break
            h_b, gram_h = _update(wt_v_b, h_b, gram_h), h_b
        h[:, cols] = h_b
        return trace

    traces = _run_tiles(sweep, len(bounds) - 1)
    if objective_trace is not None:
        objective_trace.extend(
            sum(t[min(k, len(t) - 1)] for t in traces) for k in range(max(map(len, traces)))
        )
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
