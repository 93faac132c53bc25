"""Model file serialization.

One file per model: an ASCII header of "key: value" lines plus one
"matrix <name> <rows> <cols>" declaration per stored matrix, a blank
line, then the raw matrix payloads concatenated in declaration order as
little-endian float64, row-major.  The declarations come in the kind's
order (`_matrix_names`): w_speech then w_noise for stft, and for dwpt
w_speech_<b> then w_noise_<b> for each band b, then sigma_clean.  A file
that declares the same names in any other order is refused, and the
payloads are read in that order.  Models hold float32 dictionaries,
which float64 stores exactly, so a saved model loads back bit-exactly.
Each matrix is read as a view of the file's bytes, with no copy of the
payload, and the model's constructor rounds it to float32 once: a value
written by other means is rounded to its nearest float32, and one past
float32's range is refused.
On load this module checks the file format; the model's own rules (depth,
band count, dictionaries, filter, rate) are checked by its constructors.
"""

import numpy as np

from .framing import FrameSpec
from .spectral import FEATURE_KIND, WINDOW_NAME, StftBasisModel, _check_analysis
from .subband import BandModel, SubbandBasisModel

__all__ = ["load_model", "save_model"]

FORMAT_VERSION = 1

_KIND_STFT = "stft"
_KIND_DWPT = "dwpt"


def _matrix_names(kind, n_bands) -> list:
    """The names of a `kind` model's matrices, in file order."""
    if kind == _KIND_STFT:
        return ["w_speech", "w_noise"]
    names = [f"{c}_{b}" for b in range(n_bands) for c in ("w_speech", "w_noise")]
    return names + ["sigma_clean"]


def save_model(model, path) -> None:
    """Serialize a trained model; see the module docstring for layout."""
    if isinstance(model, StftBasisModel):
        kind = _KIND_STFT
        extra = {"window_name": WINDOW_NAME, "feature_kind": FEATURE_KIND}
        values = [model.w_speech, model.w_noise]
    elif isinstance(model, SubbandBasisModel):
        kind = _KIND_DWPT
        extra = {"level": model.level, "filter_name": model.filter_name}
        values = [w for band in model.per_band for w in (band.w_speech, band.w_noise)]
        values.append(np.array([[b.sigma_clean for b in model.per_band]]))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    header = {
        "format_version": FORMAT_VERSION,
        "model_kind": kind,
        "sample_rate": model.sample_rate,
        "frame_size": model.frame_spec.frame_size,
        "frame_shift": model.frame_spec.frame_shift,
        **extra,
    }
    lines = [f"{key}: {value}\n" for key, value in header.items()]
    names = _matrix_names(kind, len(values) // 2)
    arrays = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in zip(names, values)]
    lines += [f"matrix {name} {arr.shape[0]} {arr.shape[1]}\n" for name, arr in arrays]
    with open(path, "wb") as f:
        f.write("".join(lines).encode("ascii"))
        f.write(b"\n")
        for _, arr in arrays:
            f.write(arr.tobytes())


def _parse_header(text):
    fields = {}
    matrices = []
    for line in text.split("\n"):
        if line.startswith("matrix "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed matrix declaration '{line}'")
            try:
                rows, cols = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"malformed matrix declaration '{line}'")
            if rows < 1 or cols < 1:
                raise ValueError(f"matrix {parts[1]} has empty shape")
            matrices.append((parts[1], rows, cols))
        elif ": " in line:
            key, value = line.split(": ", 1)
            if key in fields:
                raise ValueError(f"header field '{key}' appears twice")
            fields[key] = value
        else:
            raise ValueError(f"malformed header line '{line}'")
    return fields, matrices


def _require(fields, key, convert=str):
    if key not in fields:
        raise ValueError(f"missing header field '{key}'")
    try:
        return convert(fields[key])
    except ValueError:
        raise ValueError(f"bad value for '{key}': {fields[key]!r}")


def _parse(data):
    """The model a file's bytes hold; the model's own constructor checks its rules."""
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError("truncated model file (no header terminator)")
    try:
        header = data[:sep].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("header is not ASCII text")
    fields, matrices = _parse_header(header)

    version = _require(fields, "format_version", int)
    if version != FORMAT_VERSION:
        raise ValueError(f"format version {version} not supported (expected {FORMAT_VERSION})")
    kind = _require(fields, "model_kind")
    if kind not in (_KIND_STFT, _KIND_DWPT):
        raise ValueError(f"unknown model kind '{kind}'")
    rate = _require(fields, "sample_rate", int)
    spec = FrameSpec(_require(fields, "frame_size", int), _require(fields, "frame_shift", int))
    declared = [name for name, _, _ in matrices]
    n_bands = len(matrices) // 2  # dwpt: two per band, then sigma_clean
    required = _matrix_names(kind, n_bands)
    if declared != required:
        raise ValueError(
            f"a {kind} model declares the matrices {', '.join(required)}; "
            f"this file declares {', '.join(declared)}"
        )

    offset = sep + 2
    size = len(data) - offset
    expected = sum(8 * r * c for _, r, c in matrices)
    if size < expected:
        raise ValueError(f"truncated model file ({size} payload bytes, need {expected})")
    if size > expected:
        raise ValueError(f"{size - expected} trailing bytes")
    values = []
    for _, rows, cols in matrices:
        values.append(np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols))
        offset += 8 * rows * cols

    if kind == _KIND_STFT:
        _check_analysis(_require(fields, "window_name"), _require(fields, "feature_kind"))
        return StftBasisModel(*values, spec, rate)
    sigma = values.pop()
    if sigma.shape != (1, n_bands):
        raise ValueError(
            f"sigma_clean must be 1 x {n_bands}, got {sigma.shape[0]} x {sigma.shape[1]}"
        )
    bands = [
        BandModel(w_s, w_n, float(s)) for w_s, w_n, s in zip(values[::2], values[1::2], sigma[0])
    ]
    return SubbandBasisModel(
        _require(fields, "level", int), _require(fields, "filter_name"), spec, bands, rate
    )


def load_model(path):
    """Read a model file back into its in-memory form; every ValueError names the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _parse(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
