"""Postselected continuous-variable QKD: closed forms, oracles, simulation.

The package models a two-mode squeezed source whose partner beam is tapped
and conditioned on a photon counter, propagates the kept pair through a
thermal-loss channel, and evaluates reverse-reconciliation key rates.  A
truncated number-basis oracle cross-checks every closed form, a Monte
Carlo engine replays the protocol round by round, and the reconciliation
subpackage covers sphere-valued side information, LDPC construction and
syndrome decoding.
"""

from .analysis import (
    OptimumRecord,
    TGrid,
    beta_from_rate_snr,
    landscape,
    max_distance,
    optimize_t,
    pipeline_key_rate,
    scheme_label,
    snr_from_rate_beta,
    success_curves,
    tolerable_excess_noise,
)
from .errors import (
    ConditioningError,
    DegenerateBlockError,
    DomainError,
    EstimationError,
    InvalidStateError,
    PsqkdError,
    SingularityError,
    TruncationError,
)
from .fock import (
    ConditionedMoments,
    FockState,
    apply_detector_loss,
    build_split_tmsv,
    condition_on_count,
    conditioned_moments,
    suggested_cutoff,
)
from .gaussian import (
    ChannelSpec,
    KeyRateReport,
    TwoModeCovariance,
    apply_channel,
    key_rate_homodyne,
    symplectic_eigenvalues,
)
from .montecarlo import (
    ExperimentResult,
    MomentEstimate,
    RescaleSpec,
    collect_accepted_pairs,
    rescale_and_filter,
    run_experiment,
)
from .records import ExperimentRecords, export_records, load_records
from .subtraction import (
    SourceSpec,
    SubtractionReport,
    covariance_subtracted,
    filter_q,
    success_prob_k,
    success_prob_onoff,
    v_tilde,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "ConditionedMoments",
    "ConditioningError",
    "DegenerateBlockError",
    "DomainError",
    "EstimationError",
    "ExperimentRecords",
    "ExperimentResult",
    "FockState",
    "InvalidStateError",
    "KeyRateReport",
    "MomentEstimate",
    "OptimumRecord",
    "PsqkdError",
    "RescaleSpec",
    "SingularityError",
    "SourceSpec",
    "SubtractionReport",
    "TGrid",
    "TruncationError",
    "TwoModeCovariance",
    "apply_channel",
    "apply_detector_loss",
    "beta_from_rate_snr",
    "build_split_tmsv",
    "collect_accepted_pairs",
    "condition_on_count",
    "conditioned_moments",
    "covariance_subtracted",
    "export_records",
    "filter_q",
    "key_rate_homodyne",
    "landscape",
    "load_records",
    "max_distance",
    "optimize_t",
    "pipeline_key_rate",
    "rescale_and_filter",
    "run_experiment",
    "scheme_label",
    "snr_from_rate_beta",
    "success_curves",
    "success_prob_k",
    "success_prob_onoff",
    "suggested_cutoff",
    "symplectic_eigenvalues",
    "tolerable_excess_noise",
    "v_tilde",
]
