"""Minimum-power transmit beamforming and achievable (code rate, secrecy rate)
regions for slow-fading MISO wiretap channels under statistical CSI."""

from .kkt import KktReport, RankBoundReport, check_kkt, rank_bound_check
from .mi import Alphabet, MiEvaluator, bpsk, load_alphabet, psk8, qam16, qpsk
from .model import (
    STATISTICAL,
    ConstraintThresholds,
    CsiMode,
    ModelError,
    RatePair,
    RateUnachievableError,
    ValidationReport,
    WiretapProblem,
    perfect_users,
    thresholds_finite_alphabet,
    thresholds_gaussian,
    validate_problem,
)
from .montecarlo import (
    ChannelSample,
    OutageEstimate,
    estimate_individual_probs,
    estimate_non_outage,
    received_powers,
    sample_channels,
)
from .diag_lp import solve_diagonal
from .sdp import (
    BeamformerSolution,
    DualVariables,
    Epigraph,
    InfeasibilityCertificate,
    epigraph_stages,
    extract_principal_direction,
    power_rescale,
    proven_feasibility,
    rate_bracket,
    solve_general,
    solve_rank_relaxed,
)
from .sweep import SweepResult, SweepRow, sweep_region

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
