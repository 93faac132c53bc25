"""Supervised NMF speech enhancement over subband and spectral features.

The package republishes each library module's `__all__`, and its own
`__all__` is their union: a public name is listed once, in its module.
"""

from . import framing, metrics, mixing, model_io, nmf, spectral, subband, wav_io, wavelets
from .framing import *
from .metrics import *
from .mixing import *
from .model_io import *
from .nmf import *
from .spectral import *
from .subband import *
from .wav_io import *
from .wavelets import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (framing, metrics, mixing, model_io, nmf, spectral, subband, wav_io, wavelets)
    for name in module.__all__
]
