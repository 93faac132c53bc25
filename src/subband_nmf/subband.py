"""Subband-domain supervised enhancement.

The signal is split into 2^J time-domain subband sequences by a wavelet
packet tree.  Each band gets its own pair of dictionaries trained on
squared frame matrices, a square-root ratio gain de-framed back to one
value per sample, and a power renormalization towards the clean-training
rms, capped at the noisy band's own rms, before the inverse transform
stitches the bands together.  Each band's ratio gain comes from
`spectral._ratio_gain`, the back end the STFT baseline uses too, and its
dictionaries from `spectral._train_pair`, the shared training half.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import EPSILON
from .framing import (
    FrameSpec,
    Signal,
    _check_frames,
    _shown,
    _whole,
    frame_count,
    frame_signal,
    overlap_add,
    rms,
    square_elementwise,
)
from .nmf import NmfParams, _one_blas_thread, _reject_overflow, _run_tiles
from .spectral import (
    _check_dictionaries,
    _check_input,
    _check_training_set,
    _ratio_gain,
    _train_pair,
)
from .wavelets import _tap_count, dwpt, get_filters, idwpt

__all__ = [
    "BandModel",
    "SubbandBasisModel",
    "enhance_dwpt",
    "enhance_subbands",
    "subband_gain",
    "train_dwpt_model",
]


@dataclass
class BandModel:
    """Dictionaries and clean-training rms for one subband."""

    w_speech: np.ndarray
    w_noise: np.ndarray
    sigma_clean: float

    def __post_init__(self):
        self.w_speech = np.asarray(self.w_speech, dtype=np.float64)
        self.w_noise = np.asarray(self.w_noise, dtype=np.float64)
        if not 0.0 <= self.sigma_clean < np.inf:
            raise ValueError(f"sigma_clean must be finite and nonnegative, got {self.sigma_clean}")


@dataclass
class SubbandBasisModel:
    """Per-band models plus the decomposition and framing geometry."""

    level: int
    filter_name: str
    frame_spec: FrameSpec
    per_band: list[BandModel]
    sample_rate: int

    def __post_init__(self):
        self.sample_rate = _whole(self.sample_rate, "sample_rate")
        self.level = _whole(self.level, "level")
        get_filters(self.filter_name)
        n = len(self.per_band)
        # the bit length test keeps a huge level from forming 2**level
        if self.level >= n.bit_length() or n != 2**self.level:
            level = _shown(self.level)
            raise ValueError(f"level {level} needs 2**{level} band models, got {n}")
        for b, band in enumerate(self.per_band):
            _check_dictionaries(
                band.w_speech, band.w_noise, self.frame_spec.frame_size, f"band {b} "
            )

    @property
    def n_bands(self) -> int:
        return 2**self.level


@_reject_overflow
@_one_blas_thread
def train_dwpt_model(
    clean,
    noise,
    level: int,
    filter_name: str,
    spec: FrameSpec,
    speech_params: NmfParams | None = None,
    noise_params: NmfParams | None = None,
) -> SubbandBasisModel:
    """Learn per-band dictionaries from labeled time-domain signals.

    The training set is checked before any transform (`_check_training_set`
    at `level`, with the filter's span).  Then, for every band, `_train_pair`
    learns the pair from each class's squared frame matrices; each band is
    squared before it is framed, as in `subband_gain`, and cast to float32
    between the two, so the frame matrix is built in float32 and never
    exists in float64.  sigma_clean is the rms over the band's
    concatenated clean samples.  The bands are trained side by side, one
    per thread BLAS had, each at one BLAS thread
    (`nmf._one_blas_thread`), as `enhance_subbands` enhances them; the
    model's bytes do not depend on the thread count.
    """
    rate = _check_training_set(
        clean, noise, spec.frame_size, _whole(level, "level"), _tap_count(filter_name)
    )
    clean_sets = [dwpt(s, level, filter_name) for s in clean]
    noise_sets = [dwpt(s, level, filter_name) for s in noise]
    bands = [None] * len(clean_sets[0])

    def train_band(b):
        w_speech, w_noise = _train_pair(
            clean_sets, noise_sets,
            lambda s: frame_signal(square_elementwise(s[b]).astype(np.float32), spec),
            speech_params, noise_params,
        )
        sigma = rms(np.concatenate([s[b] for s in clean_sets]))
        bands[b] = BandModel(w_speech, w_noise, sigma)

    _run_tiles(train_band, len(bands))
    return SubbandBasisModel(level, filter_name, spec, bands, rate)


@_reject_overflow
def subband_gain(
    s_b: np.ndarray,
    w_s: np.ndarray,
    w_n: np.ndarray,
    spec: FrameSpec,
    params: NmfParams | None = None,
) -> np.ndarray:
    """Per-sample suppression gain in [0, 1] for one subband sequence.

    The squared frame matrix's `_ratio_gain`, speech/(speech+noise)
    floored and clipped as in `wiener_gain`, has its square root taken in
    place and de-framed by averaging overlap-add.  Samples past the last
    full frame keep the final de-framed value.  The band is squared
    before it is framed, which gives the same matrix because framing only
    copies.  The gain core holds about two frame-sized float64 matrices
    at most (its float32 class parts and the gain), not four.
    """
    s_b = np.asarray(s_b, dtype=np.float64)
    gain = _ratio_gain(lambda: frame_signal(square_elementwise(s_b), spec), w_s, w_n, params)
    g = overlap_add(np.sqrt(gain, out=gain), spec, len(s_b))
    covered = (frame_count(len(s_b), spec) - 1) * spec.frame_shift + spec.frame_size
    if covered < len(s_b):
        g[covered:] = g[covered - 1]
    # an average of square roots of gains in [0, 1] stays in [0, 1]: rounding
    # is monotone, so a sum of k such terms is at most k
    return g


@_reject_overflow
@_one_blas_thread
def enhance_subbands(
    bands: np.ndarray,
    model: SubbandBasisModel,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Apply per-band gain and power normalization to a `dwpt` band matrix.

    Returns a new matrix of the same shape.  Normalization scales each
    enhanced band to its clean-training rms, capped at the rms of the
    band as it came in: min(sigma_clean, rms(band)) / max(rms(shat),
    EPSILON).  So no band comes out louder than it went in, and a band
    whose input or enhanced rms is zero comes out silent.  Only the shape
    is checked: one row per model band, each holding at least one frame
    of the model's frame size (`_check_frames`, as "subbands too
    short").  The bands are enhanced side by side, one per thread BLAS
    had, each at one BLAS thread (`nmf._one_blas_thread`); a band's bytes
    do not depend on the thread count.
    """
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2 or len(bands) != model.n_bands:
        raise ValueError(
            f"decomposition has shape {bands.shape}, the model expects "
            f"{model.n_bands} bands, one per row"
        )
    _check_frames(bands.shape[1], model.frame_spec.frame_size, 0, "subbands")
    out = np.empty_like(bands)

    def enhance_band(b):
        band, bm, shat = bands[b], model.per_band[b], out[b]
        shat[:] = band * subband_gain(band, bm.w_speech, bm.w_noise, model.frame_spec, params)
        if normalize:
            shat *= min(bm.sigma_clean, rms(band)) / max(rms(shat), EPSILON)

    _run_tiles(enhance_band, len(bands))
    return out


@_reject_overflow
@_one_blas_thread
def enhance_dwpt(
    noisy: Signal,
    model: SubbandBasisModel,
    filter_name: str,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> Signal:
    """Full subband enhancement: decompose, gain, normalize, resynthesize.

    The input is checked first (`_check_input`): every one of its
    2^level subbands must hold at least one frame, and the level must not
    be too deep for the filter.  With `normalize` on, each enhanced band
    is scaled to its clean-training rms but never above the noisy band's
    own rms (`enhance_subbands`), so the output is never louder than the
    input band by band; with it off, the bands keep the gain's level.
    """
    if filter_name != model.filter_name:
        raise ValueError(
            f"model was trained with filter '{model.filter_name}', got '{filter_name}'"
        )
    _check_input(model, noisy, model.level, _tap_count(model.filter_name))
    enhanced = enhance_subbands(dwpt(noisy, model.level, filter_name), model, params, normalize)
    return Signal(idwpt(enhanced, filter_name, len(noisy)), noisy.sample_rate)
