"""Multi-scale auditory receptive fields.

Layer one turns a waveform into complex multi-scale spectrograms using
Gaussian (Gabor) or time-causal cascade (Gammatone and generalized
Gammatone) temporal windows on a logarithmic frequency axis. Layer two
applies spectro-temporal derivative receptive fields to the dB map, from
which onset/offset maps, spectral band enhancement, partial-tone curves,
and glissando estimates are computed. A separate analysis module
reproduces the filter families' frequency-selectivity and temporal-delay
characteristics from the closed forms and the exact cascade kernel.

Every time-frequency result of both layers is a ``TFMap`` (complex
spectrogram, dB map, receptive-field response, onset/offset/band map), so
the layer-2 operators accept each other's outputs. One
``SpectrogramFamily`` describes a window family for the spectrogram, its
matching layer-2 temporal kernel, and the selectivity and delay functions.
"""

from tonescale.temporal_scale_space import (
    SampledKernel,
    ScaleLadder,
    SpectrogramFamily,
    TemporalKernelSpec,
    discrete_gaussian_kernel,
    discrete_recursive_smooth,
    discretize_ladder,
    temporal_profiles,
)
from tonescale.spectrogram import (
    FrequencyGrid,
    TFMap,
    WindowScaleLaw,
    build_frequency_grid,
    compute_spectrogram,
    delay_compensate,
    frequency_from_midi,
    midi_from_frequency,
    to_db,
    window_scale,
)
from tonescale.receptive_fields import RFSpec, apply_rf, glissando_warp
from tonescale.features import (
    band_response,
    detect_offsets,
    detect_onsets,
    enhance_bands,
    extract_partial_curves,
    glissando_filterbank,
    ridge_mask,
    second_moment_glissando,
)
from tonescale.selectivity_analysis import (
    bandwidth_constant,
    delay_measures,
    relative_bandwidth,
    selectivity_db,
)

__version__ = "0.1.0"
