"""Supervised NMF speech enhancement over subband and spectral features."""

from .framing import FrameSpec, Signal, frame_count, frame_signal, overlap_add
from .metrics import MetricReport, evaluate, mse, sdi, ssnr
from .mixing import (
    MixSpec, mix_at_snr, synth_pink_noise, synth_sweep, synth_tone, synth_white_noise
)
from .model_io import load_model, save_model
from .nmf import NmfParams, NmfResult, encode, factorize, split_reconstruction
from .spectral import (
    StftBasisModel,
    enhance_stft,
    istft,
    separation_gain,
    stft,
    train_stft_model,
    wiener_gain,
)
from .subband import (
    BandModel,
    SubbandBasisModel,
    enhance_dwpt,
    enhance_subbands,
    subband_gain,
    train_dwpt_model,
)
from .wav_io import WavInfo, read_wav, write_wav
from .wavelets import FILTER_NAMES, WaveletFilters, dwpt, get_filters, idwpt

__version__ = "0.1.0"

__all__ = [
    "BandModel",
    "FILTER_NAMES",
    "FrameSpec",
    "MetricReport",
    "MixSpec",
    "NmfParams",
    "NmfResult",
    "Signal",
    "StftBasisModel",
    "SubbandBasisModel",
    "WaveletFilters",
    "WavInfo",
    "dwpt",
    "encode",
    "enhance_dwpt",
    "enhance_stft",
    "enhance_subbands",
    "evaluate",
    "factorize",
    "frame_count",
    "frame_signal",
    "get_filters",
    "idwpt",
    "istft",
    "load_model",
    "mix_at_snr",
    "mse",
    "overlap_add",
    "read_wav",
    "save_model",
    "sdi",
    "separation_gain",
    "split_reconstruction",
    "ssnr",
    "stft",
    "subband_gain",
    "synth_pink_noise",
    "synth_sweep",
    "synth_tone",
    "synth_white_noise",
    "train_dwpt_model",
    "train_stft_model",
    "wiener_gain",
    "write_wav",
]
