"""Decomposition-driven forecasting for non-stationary time series.

The toolkit decomposes a series into intrinsic mode functions (EMD or the
noise-assisted ensemble EEMD), forecasts slow components directly with
small neural regressors, forecasts fast components from DTW-similarity-
grouped training windows, and sums the per-component forecasts.
"""

from .core import (
    DataError,
    Decomposition,
    MinMaxScale,
    TimeSeries,
    derive_seed,
    load_csv,
    minmax_normalize,
    spawn_rng,
)
from .decomposition import (
    EemdConfig,
    InsufficientExtremaError,
    SiftConfig,
    emd,
    eemd,
    envelope,
    extract_imf,
    find_extrema,
)
from .dtw import (
    dtw_distance,
    dtw_distances,
    euclidean_distance,
    point_distance,
    warp_path,
)
from .grouping import (
    GroupingConfig,
    TrainingSet,
    build_training_set,
    rank_by_similarity,
    select_group,
    sliding_window_set,
)
from .predictors import (
    ForecastSession,
    PredictorConfig,
    TrainedModel,
    TrainingDivergedError,
    gradient_check,
    load_model,
    predict,
    save_model,
    train,
)
from .pipeline import (
    ForecastResult,
    FrameworkSpec,
    FrequencySplit,
    PipelineError,
    run_framework,
    split_components,
)
from .evaluation import (
    EvalReport,
    benchmark,
    evaluate_run,
    framework_label,
    relative_error,
)

__version__ = "0.1.0"
