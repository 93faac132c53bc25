"""Subband-domain supervised enhancement.

The signal is split into 2^J time-domain subband sequences by a wavelet
packet tree.  Each band gets its own pair of dictionaries trained on
squared frame matrices, a square-root ratio gain de-framed back to one
value per sample, and a power renormalization towards the clean-training
rms, capped at the enhanced band's own rms, before the inverse transform
stitches the bands together.  Each band's ratio gain comes from
`spectral._ratio_gain`, the back end the STFT baseline uses too, and its
dictionaries from `spectral._train_pair`, the shared training half.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import DWPT_ENHANCE_COVER, EPSILON
from .framing import (
    FrameSpec,
    Signal,
    _check_frames,
    _shown,
    _whole,
    frame_signal,
    overlap_add,
    rms,
    square_elementwise,
)
from .nmf import NmfParams, _nmf_call, _run_tiles
from .spectral import (
    _check_dictionaries,
    _check_input,
    _check_training_set,
    _float32_dictionaries,
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
    """Dictionaries and clean-training rms for one subband.

    The dictionaries are held in float32 however the band is built
    (`spectral._float32_dictionaries`).  A value past float32's range
    becomes inf here, and `SubbandBasisModel` refuses it by band and name.
    """

    w_speech: np.ndarray
    w_noise: np.ndarray
    sigma_clean: float

    def __post_init__(self):
        self.w_speech, self.w_noise = _float32_dictionaries(self.w_speech, self.w_noise)
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


def _band_features(band: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """The NMF features of one subband sequence: its squares, framed in float32.

    The band is squared, cast to float32 and then framed, so the frame
    matrix is never built in float64.  Squaring before framing gives the
    same matrix as squaring the frames, because framing only copies; a
    square above float32's range overflows in the cast.
    """
    return frame_signal(square_elementwise(band).astype(np.float32), spec)


@_nmf_call
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
    learns the pair from each class's `_band_features`, the float32 frame
    matrices that `subband_gain` encodes too.  sigma_clean is the rms over
    the band's concatenated clean samples.  The bands are trained side by side, one
    per thread BLAS had, each at one BLAS thread
    (`nmf._nmf_call`), as `enhance_subbands` enhances them; the
    model's bytes do not depend on the thread count.
    """
    rate = _check_training_set(
        clean, noise, spec.frame_size, _whole(level, "level"), _tap_count(filter_name)
    )
    clean_sets = [dwpt(s, level, filter_name) for s in clean]
    noise_sets = [dwpt(s, level, filter_name) for s in noise]

    def train_band(b):
        w_speech, w_noise = _train_pair(
            clean_sets, noise_sets,
            lambda s: _band_features(s[b], spec),
            speech_params, noise_params,
        )
        return BandModel(w_speech, w_noise, rms(np.concatenate([s[b] for s in clean_sets])))

    bands = _run_tiles(train_band, len(clean_sets[0]))
    return SubbandBasisModel(level, filter_name, spec, bands, rate)


@_nmf_call
def subband_gain(
    s_b: np.ndarray,
    w_s: np.ndarray,
    w_n: np.ndarray,
    spec: FrameSpec,
    params: NmfParams | None = None,
) -> np.ndarray:
    """Per-sample suppression gain in [0, 1] for one subband sequence.

    The band is framed at spec's frame size and a shift of
    max(frame_shift, frame_size // DWPT_ENHANCE_COVER), so every interior
    sample still lies in at least DWPT_ENHANCE_COVER (25) frames.  A
    model with more frames per sample than that, such as the paper's
    1000/20 (50 per sample), enhances at the coarser shift (40 there) and
    encodes half the frames; any other keeps its own shift.  The squared
    frame matrix's `_ratio_gain`, speech/(speech+noise) floored and
    clipped as in `wiener_gain`, has its square root taken in place and
    de-framed by averaging overlap-add.  Samples past the last full
    frame, which the gain's column count places, keep the final de-framed
    value; a fully covered band has none.  The features are the band's
    `_band_features`, as in training.  The gain core holds about two
    frame-sized float64 matrices at most (its float32 class parts and the
    gain), not four.  A direct call runs at one BLAS thread
    (`nmf._nmf_call`), so it gives the bytes it gives in `enhance_subbands`.
    """
    s_b = np.asarray(s_b, dtype=np.float64)
    spec = FrameSpec(spec.frame_size,
                     max(spec.frame_shift, spec.frame_size // DWPT_ENHANCE_COVER))
    gain = _ratio_gain(lambda: _band_features(s_b, spec), w_s, w_n, params)
    covered = (gain.shape[1] - 1) * spec.frame_shift + spec.frame_size
    g = overlap_add(np.sqrt(gain, out=gain), spec, len(s_b))
    g[covered:] = g[covered - 1]
    # an average of square roots of gains in [0, 1] stays in [0, 1]: rounding
    # is monotone, so a sum of k such terms is at most k
    return g


@_nmf_call
def enhance_subbands(
    bands: np.ndarray,
    model: SubbandBasisModel,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Apply per-band gain and power normalization to a `dwpt` band matrix.

    Returns a new matrix of the same shape.  Normalization scales each
    enhanced band to its clean-training rms, capped at the rms the gain
    left it: min(sigma_clean, rms(shat)) / max(rms(shat), EPSILON).  So
    it can only attenuate: no band comes out louder than the gain left
    it, which is no louder than it went in, and a band whose enhanced rms
    is zero comes out silent.  Each band's gain is `subband_gain`'s, so
    a model with more than DWPT_ENHANCE_COVER frames per sample enhances
    at a coarser shift than it trained at.  Only the shape
    is checked: one row per model band, each holding at least one frame
    of the model's frame size (`_check_frames`, as "subbands too
    short").  The bands are enhanced side by side, one per thread BLAS
    had, each at one BLAS thread (`nmf._nmf_call`); a band's bytes
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
            level = rms(shat)
            shat *= min(bm.sigma_clean, level) / max(level, EPSILON)

    _run_tiles(enhance_band, len(bands))
    return out


@_nmf_call
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
    is scaled to its clean-training rms but never above the level the
    gain left it (`enhance_subbands`), so the renormalization only
    attenuates; with it off, the bands keep the gain's level.  Either way
    no band comes out louder than it went in.
    """
    if filter_name != model.filter_name:
        raise ValueError(
            f"model was trained with filter '{model.filter_name}', got '{filter_name}'"
        )
    _check_input(model, noisy, model.level, _tap_count(model.filter_name))
    enhanced = enhance_subbands(dwpt(noisy, model.level, filter_name), model, params, normalize)
    return Signal(idwpt(enhanced, filter_name, len(noisy)), noisy.sample_rate)
