"""Subband-domain supervised enhancement.

The signal is split into 2^J time-domain subband sequences by a wavelet
packet tree.  Each band gets its own pair of dictionaries trained on
squared frame matrices, a square-root ratio gain de-framed back to one
value per sample, and a power renormalization towards the clean-training
rms before the inverse transform stitches the bands together.  The ratio
gain of each band comes from `spectral.separation_gain`, the back end the
STFT baseline uses too, and its dictionaries from `spectral._train_pair`,
the shared training half.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import EPSILON
from .framing import (
    FrameSpec,
    Signal,
    _shown,
    _whole,
    frame_count,
    frame_signal,
    overlap_add,
    rms,
    square_elementwise,
)
from .nmf import NmfParams, _reject_overflow
from .spectral import (
    _check_dictionaries, _check_rate, _check_training_set, _train_pair, separation_gain
)
from .wavelets import WaveletFilters, dwpt, idwpt

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
        WaveletFilters(self.filter_name)
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
def train_dwpt_model(
    clean,
    noise,
    level: int,
    filters: WaveletFilters,
    spec: FrameSpec,
    speech_params: NmfParams | None = None,
    noise_params: NmfParams | None = None,
) -> SubbandBasisModel:
    """Learn per-band dictionaries from labeled time-domain signals.

    The training set is checked first (`_check_training_set`).  Then, for
    every band, `_train_pair` learns the pair from each class's squared
    frame matrices; each band is squared before it is framed, as in
    `subband_gain`.  sigma_clean is the rms over the band's concatenated
    clean samples.
    """
    rate = _check_training_set(clean, noise)
    clean_sets = [dwpt(s, level, filters) for s in clean]
    noise_sets = [dwpt(s, level, filters) for s in noise]
    for label, sets in (("clean", clean_sets), ("noise", noise_sets)):
        for i, s in enumerate(sets):
            if s.shape[1] < spec.frame_size:
                raise ValueError(
                    f"{label} utterance {i} too short: subband 0 has "
                    f"{s.shape[1]} samples, frame size is {spec.frame_size}"
                )
    bands = []
    for b in range(len(clean_sets[0])):
        # called within this iteration, so the closure sees this band's b
        w_speech, w_noise = _train_pair(
            clean_sets, noise_sets,
            lambda s: frame_signal(square_elementwise(s[b]), spec),
            speech_params, noise_params,
        )
        sigma = rms(np.concatenate([s[b] for s in clean_sets]))
        bands.append(BandModel(w_speech, w_noise, sigma))
    return SubbandBasisModel(level, filters.name, spec, bands, rate)


@_reject_overflow
def subband_gain(
    s_b: np.ndarray,
    w_s: np.ndarray,
    w_n: np.ndarray,
    spec: FrameSpec,
    params: NmfParams | None = None,
) -> np.ndarray:
    """Per-sample suppression gain in [0, 1] for one subband sequence.

    The square root of `separation_gain` on the squared frame matrix is
    de-framed by averaging overlap-add.  Samples past the last full
    frame keep the final de-framed value.  The band is squared before it
    is framed, which gives the same matrix because framing only copies.
    """
    s_b = np.asarray(s_b, dtype=np.float64)
    v = frame_signal(square_elementwise(s_b), spec)
    gain_mat = separation_gain(v, w_s, w_n, params)
    g = overlap_add(np.sqrt(gain_mat, out=gain_mat), spec, len(s_b))
    covered = (frame_count(len(s_b), spec) - 1) * spec.frame_shift + spec.frame_size
    if covered < len(s_b):
        g[covered:] = g[covered - 1]
    # an average of square roots of gains in [0, 1] stays in [0, 1]: rounding
    # is monotone, so a sum of k such terms is at most k
    return g


@_reject_overflow
def enhance_subbands(
    bands: np.ndarray,
    model: SubbandBasisModel,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Apply per-band gain and power normalization to a `dwpt` band matrix.

    Returns a new matrix of the same shape.  Normalization scales each
    enhanced band to its clean-training rms, so a band whose rms is zero
    comes out silent.  Only the shape
    is checked: one row per model band, each holding at least one frame
    of the model's frame size.
    """
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2 or len(bands) != model.n_bands:
        raise ValueError(
            f"decomposition has shape {bands.shape}, the model expects "
            f"{model.n_bands} bands, one per row"
        )
    if bands.shape[1] < model.frame_spec.frame_size:
        raise ValueError(
            f"subbands too short: {bands.shape[1]} samples each, the model's "
            f"frame size is {model.frame_spec.frame_size}"
        )
    out = np.empty_like(bands)
    for band, bm, shat in zip(bands, model.per_band, out):
        shat[:] = band * subband_gain(band, bm.w_speech, bm.w_noise, model.frame_spec, params)
        if normalize:
            shat *= bm.sigma_clean / max(rms(shat), EPSILON)
    return out


@_reject_overflow
def enhance_dwpt(
    noisy: Signal,
    model: SubbandBasisModel,
    filters: WaveletFilters,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> Signal:
    """Full subband enhancement: decompose, gain, normalize, resynthesize.

    The input needs more than (frame_size - 1) * 2^level samples, so
    that every subband holds at least one frame.
    """
    if filters.name != model.filter_name:
        raise ValueError(
            f"model was trained with filter '{model.filter_name}', got '{filters.name}'"
        )
    _check_rate(model, noisy)
    shortest = (model.frame_spec.frame_size - 1) * model.n_bands + 1
    if len(noisy) < shortest:
        raise ValueError(
            f"input too short: {len(noisy)} samples, the model needs at least "
            f"{shortest} so that each of its {model.n_bands} subbands holds one frame"
        )
    enhanced = enhance_subbands(dwpt(noisy, model.level, filters), model, params, normalize)
    return Signal(idwpt(enhanced, filters, len(noisy)), noisy.sample_rate)
