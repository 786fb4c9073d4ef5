"""Speaker diarization toolkit: DSP front-end, bandwidth partition, VAD,
segmentation, clustering, target-speaker detection, and DER scoring."""

from .audio import AudioBuffer, FeatureMatrix, log_mel, mean_normalize, read_wav, resample_to_8k, stft_magnitude, write_wav
from .partition import BandwidthClass, classify_bandwidth
from .segments import Diarization, Segment

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "BandwidthClass",
    "Diarization",
    "FeatureMatrix",
    "Segment",
    "classify_bandwidth",
    "log_mel",
    "mean_normalize",
    "read_wav",
    "resample_to_8k",
    "stft_magnitude",
    "write_wav",
    "__version__",
]
