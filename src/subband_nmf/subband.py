"""Subband-domain supervised enhancement.

The signal is split into 2^J time-domain subband sequences by a wavelet
packet tree.  Each band gets its own pair of dictionaries trained on
squared frame matrices, a square-root ratio gain de-framed back to one
value per sample, and a power renormalization towards the clean-training
rms before the inverse transform stitches the bands together.  The ratio
gain of each band comes from `spectral.separation_gain`, the back end the
STFT baseline uses too.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import EPSILON, NOISE_RANK, SPEECH_RANK
from .framing import (
    FrameSpec,
    Signal,
    frame_count,
    frame_signal,
    overlap_add,
    rms,
    square_elementwise,
)
from .nmf import NmfParams, _reject_overflow, factorize
from .spectral import _check_dictionaries, _check_rate, common_rate, separation_gain
from .wavelets import SubbandSet, WaveletFilters, _check_filter_name, dwpt, idwpt

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
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        _check_filter_name(self.filter_name)
        if len(self.per_band) != 2**self.level:
            raise ValueError(
                f"expected {2**self.level} band models, got {len(self.per_band)}"
            )
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

    For every band the squared frame matrices of all utterances in a
    class are concatenated column-wise and factorized; each band is
    squared before it is framed, as in `subband_gain`.  sigma_clean is
    the rms over the band's concatenated clean samples; an all-zero
    clean set is rejected outright.
    """
    if not clean:
        raise ValueError("empty clean training set")
    if not noise:
        raise ValueError("empty noise training set")
    if speech_params is None:
        speech_params = NmfParams(rank=SPEECH_RANK)
    if noise_params is None:
        noise_params = NmfParams(rank=NOISE_RANK)

    clean_sets = [dwpt(s, level, filters) for s in clean]
    noise_sets = [dwpt(s, level, filters) for s in noise]
    for label, sets in (("clean", clean_sets), ("noise", noise_sets)):
        for i, s in enumerate(sets):
            if s.band_length < spec.frame_size:
                raise ValueError(
                    f"{label} utterance {i} too short: subband 0 has "
                    f"{s.band_length} samples, frame size is {spec.frame_size}"
                )
    if all(np.all(s.subbands[b] == 0.0) for s in clean_sets for b in range(2**level)):
        raise ValueError("degenerate clean set: all training samples are zero")

    bands = []
    for b in range(2**level):
        v_clean = np.hstack(
            [frame_signal(square_elementwise(s.subbands[b]), spec) for s in clean_sets]
        )
        v_noise = np.hstack(
            [frame_signal(square_elementwise(s.subbands[b]), spec) for s in noise_sets]
        )
        sigma = rms(np.concatenate([s.subbands[b] for s in clean_sets]))
        bands.append(
            BandModel(
                w_speech=factorize(v_clean, speech_params).w,
                w_noise=factorize(v_noise, noise_params).w,
                sigma_clean=sigma,
            )
        )
    return SubbandBasisModel(
        level=level,
        filter_name=filters.name,
        frame_spec=spec,
        per_band=bands,
        sample_rate=common_rate(list(clean) + list(noise)),
    )


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
    return np.clip(g, 0.0, 1.0, out=g)


def enhance_subbands(
    s: SubbandSet,
    model: SubbandBasisModel,
    params: NmfParams | None = None,
    normalize: bool = True,
) -> SubbandSet:
    """Apply per-band gain and power normalization to a decomposition.

    When a band's clean-training rms is zero the band is silenced rather
    than scaled.  Every band must hold at least one frame of the model's
    frame size.
    """
    if len(s.subbands) != model.n_bands:
        raise ValueError(
            f"decomposition has {len(s.subbands)} bands, model expects {model.n_bands}"
        )
    if s.band_length < model.frame_spec.frame_size:
        raise ValueError(
            f"subbands too short: {s.band_length} samples each, the model's "
            f"frame size is {model.frame_spec.frame_size}"
        )
    out = []
    for band, bm in zip(s.subbands, model.per_band):
        shat = band * subband_gain(band, bm.w_speech, bm.w_noise, model.frame_spec, params)
        if normalize:
            if bm.sigma_clean == 0.0:
                shat = np.zeros_like(shat)
            else:
                shat = shat * (bm.sigma_clean / max(rms(shat), EPSILON))
        out.append(shat)
    return SubbandSet(level=s.level, subbands=out, original_length=s.original_length)


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
    s = dwpt(noisy, model.level, filters)
    enhanced = enhance_subbands(s, model, params, normalize=normalize)
    return Signal(idwpt(enhanced, filters), noisy.sample_rate)
