"""Default configuration constants shared by the library and the CLI."""

# STFT pipeline framing
STFT_FRAME_SIZE = 256
STFT_FRAME_SHIFT = 80

# Wavelet-packet pipeline framing
DWPT_FRAME_SIZE = 1000
DWPT_FRAME_SHIFT = 20
DWPT_LEVEL = 3
DEFAULT_FILTER = "db8"

# Dictionary sizes and iteration budgets
SPEECH_RANK = 40
NOISE_RANK = 160
TRAIN_ITERS = 200
ENCODE_ITERS = 50

# Numerical floor for divisions and matrix entries
EPSILON = 1e-12

DEFAULT_SEED = 0
