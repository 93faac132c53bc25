"""Default configuration constants shared by the library and the CLI."""

# STFT pipeline framing
STFT_FRAME_SIZE = 256
STFT_FRAME_SHIFT = 80

# Wavelet-packet pipeline framing
DWPT_FRAME_SIZE = 1000
DWPT_FRAME_SHIFT = 20
DWPT_LEVEL = 3
DEFAULT_FILTER = "db8"
# dwpt enhancement frames at max(frame_shift, frame_size // DWPT_ENHANCE_COVER):
# every interior sample still lies in at least this many frames, and a model
# whose frames cover each sample this often or less enhances at its own shift
DWPT_ENHANCE_COVER = 25

# Dictionary sizes and iteration budgets
SPEECH_RANK = 40
NOISE_RANK = 160
TRAIN_ITERS = 200
ENCODE_ITERS = 50
# encode stops a column block once a sweep lowers its objective by no more
# than this fraction; ENCODE_ITERS caps the sweeps
ENCODE_TOL = 5e-4

# Numerical floor for divisions and matrix entries
EPSILON = 1e-12

DEFAULT_SEED = 0
