"""tactsim: dual-layer resistive tactile sensor modeling toolkit.

Models the full sensing chain of a soft two-layer tactile pad, from
applied load through layer resistances, Wheatstone bridges, amplifier,
and ADC, to a calibrated, filtered force estimate with contact-location
detection. Built to reproduce and property-test the reference sensor's
behavior at desk scale, without hardware.
"""

from .bridge import (
    AdcConfig,
    BridgeConfig,
    GAIN_PRESETS,
    adc_sample,
    amplify,
    bridge_output,
    dequantize,
    is_balanced,
    sample_chain,
    thevenin_resistance,
    thevenin_slope,
)
from .calibration import (
    CalibrationDataset,
    FitReport,
    PRESET_MODELS,
    PolynomialModel,
    build_design_matrix,
    cross_validate,
    evaluate_model,
    fit_polynomial,
    invert_model,
    kfold_split,
    least_squares_fit,
    load_dataset,
    load_model,
    protocol_weights,
    save_dataset,
    save_model,
    synthetic_protocol_dataset,
)
from .config import (
    ToolkitConfig,
    default_config,
    element_signal_thresholds,
    load_config,
    make_estimator_config,
)
from .errors import (
    ArityError,
    ConfigError,
    DataError,
    FitError,
    ParseError,
    SingularFitError,
    StreamError,
    ToolkitError,
    UnderdeterminedFitError,
    UsageError,
)
from .estimator import (
    EstimateFrame,
    EstimatorConfig,
    StreamState,
    classify_pattern,
    detect_contacts,
    estimate_force,
    format_frame,
    moving_average,
    parse_frame,
    process_frame,
    range_for_gain,
)
from .pipeline import (
    capture_protocol_dataset,
    estimate_frames,
    simulate_samples,
    summarize_frames,
)
from .sensor import (
    ElementModel,
    FabricModel,
    LoadScenario,
    LoadStep,
    apply_load,
    default_elements,
    element_resistance,
    fabric_delta_r,
    layer_resistances,
    load_scenario,
    save_scenario,
    stretched_resistance,
)
from .streams import SampleLine, format_sample_line, parse_sample_line, read_samples
from .units import NEWTONS_PER_GW, gw_to_newtons, rmse

__version__ = "0.1.0"
