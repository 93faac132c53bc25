"""Model file serialization.

One file per model: an ASCII header of "key: value" lines plus one
"matrix <name> <rows> <cols>" declaration per stored matrix, a blank
line, then the raw matrix payloads concatenated in declaration order as
little-endian float64, row-major.  Matrix values round-trip bit-exactly
and every structural invariant is re-checked on load.
"""

import numpy as np

from .framing import FrameSpec
from .spectral import FEATURE_KIND, WINDOW_NAME, StftBasisModel, _check_analysis
from .subband import BandModel, SubbandBasisModel

__all__ = ["FORMAT_VERSION", "load_model", "save_model"]

FORMAT_VERSION = 1

_KIND_STFT = "stft"
_KIND_DWPT = "dwpt"


def save_model(model, path) -> None:
    """Serialize a trained model; see the module docstring for layout."""
    if isinstance(model, StftBasisModel):
        kind = _KIND_STFT
        extra = {"window_name": WINDOW_NAME, "feature_kind": FEATURE_KIND}
        matrices = [("w_speech", model.w_speech), ("w_noise", model.w_noise)]
    elif isinstance(model, SubbandBasisModel):
        kind = _KIND_DWPT
        extra = {"level": model.level, "filter_name": model.filter_name}
        matrices = []
        for b, band in enumerate(model.per_band):
            matrices += [(f"w_speech_{b}", band.w_speech), (f"w_noise_{b}", band.w_noise)]
        matrices.append(("sigma_clean", np.array([[b.sigma_clean for b in model.per_band]])))
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
    arrays = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in matrices]
    lines += [f"matrix {name} {arr.shape[0]} {arr.shape[1]}\n" for name, arr in arrays]
    with open(path, "wb") as f:
        f.write("".join(lines).encode("ascii"))
        f.write(b"\n")
        for _, arr in arrays:
            f.write(arr.tobytes())


def _parse_header(text, path):
    fields = {}
    matrices = []
    for line in text.split("\n"):
        if line.startswith("matrix "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}: malformed matrix declaration '{line}'")
            try:
                rows, cols = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"{path}: malformed matrix declaration '{line}'")
            if rows < 1 or cols < 1:
                raise ValueError(f"{path}: matrix {parts[1]} has empty shape")
            matrices.append((parts[1], rows, cols))
        elif ": " in line:
            key, value = line.split(": ", 1)
            if key in fields:
                raise ValueError(f"{path}: header field '{key}' appears twice")
            fields[key] = value
        else:
            raise ValueError(f"{path}: malformed header line '{line}'")
    return fields, matrices


def _require(fields, key, path, convert=str):
    if key not in fields:
        raise ValueError(f"{path}: missing header field '{key}'")
    try:
        return convert(fields[key])
    except ValueError:
        raise ValueError(f"{path}: bad value for '{key}': {fields[key]!r}")


def _matrix_names(kind, fields, count, path) -> list:
    """The matrix names a model of `kind` declares; `count` is the file's declarations."""
    if kind == _KIND_STFT:
        return ["w_speech", "w_noise"]
    if kind != _KIND_DWPT:
        raise ValueError(f"{path}: unknown model kind '{kind}'")
    level = _require(fields, "level", path, int)
    if level < 1:
        raise ValueError(f"{path}: level must be >= 1, got {level}")
    n_bands = (count - 1) // 2  # two matrices per band, then sigma_clean
    # a level at or past count needs more bands than declared; testing that
    # first keeps a corrupt, huge level from forming 2**level
    expected = 2**level if level < count else "more"
    if expected != n_bands:
        raise ValueError(
            f"{path}: expected {expected} subband blocks for level {level}, found {n_bands}"
        )
    names = [f"{c}_{b}" for b in range(n_bands) for c in ("w_speech", "w_noise")]
    return names + ["sigma_clean"]


def load_model(path):
    """Read a model file back into its in-memory form, validating throughout."""
    with open(path, "rb") as f:
        data = f.read()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: truncated model file (no header terminator)")
    try:
        header = data[:sep].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: header is not ASCII text")
    fields, matrices = _parse_header(header, path)

    version = _require(fields, "format_version", path, int)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    kind = _require(fields, "model_kind", path)
    rate = _require(fields, "sample_rate", path, int)
    spec = FrameSpec(
        _require(fields, "frame_size", path, int),
        _require(fields, "frame_shift", path, int),
    )
    declared = [name for name, _, _ in matrices]
    required = _matrix_names(kind, fields, len(matrices), path)
    if sorted(declared) != sorted(required):
        raise ValueError(
            f"{path}: a {kind} model declares the matrices {', '.join(required)}; "
            f"this file declares {', '.join(declared)}"
        )

    payload = data[sep + 2 :]
    expected = sum(8 * r * c for _, r, c in matrices)
    if len(payload) < expected:
        raise ValueError(
            f"{path}: truncated model file ({len(payload)} payload bytes, "
            f"need {expected})"
        )
    if len(payload) > expected:
        raise ValueError(f"{path}: {len(payload) - expected} trailing bytes")
    arrays = {}
    offset = 0
    for name, rows, cols in matrices:
        count = rows * cols
        arrays[name] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset
        ).reshape(rows, cols)
        offset += 8 * count

    if kind == _KIND_STFT:
        _check_analysis(
            _require(fields, "window_name", path), _require(fields, "feature_kind", path)
        )
        return StftBasisModel(arrays["w_speech"], arrays["w_noise"], spec, rate)
    n_bands = len(matrices) // 2  # the names check above: two per band, then sigma_clean
    sigma = arrays["sigma_clean"]
    if sigma.shape != (1, n_bands):
        raise ValueError(
            f"{path}: sigma_clean must be 1 x {n_bands}, got "
            f"{sigma.shape[0]} x {sigma.shape[1]}"
        )
    bands = [
        BandModel(
            w_speech=arrays[f"w_speech_{b}"],
            w_noise=arrays[f"w_noise_{b}"],
            sigma_clean=float(sigma[0, b]),
        )
        for b in range(n_bands)
    ]
    return SubbandBasisModel(
        level=_require(fields, "level", path, int),
        filter_name=_require(fields, "filter_name", path),
        frame_spec=spec,
        per_band=bands,
        sample_rate=rate,
    )
