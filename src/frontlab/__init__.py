"""frontlab: simulation and verification lab for 1D weakly monostable fronts.

Numerically integrates u_t = u_xx + f(u) with f(s) = r*s*(1-s)/(1+|ln s|)**alpha,
tracks level-set positions for heavy-tailed front-like initial data, and
checks the measured spreading rates against closed-form envelopes and
barriers: finite speed for sub-exponential tails with beta >= 1/(alpha+1),
power-law acceleration below the threshold, exp-power acceleration for
algebraic tails.
"""

from .envelope import (OdeProfile, Regime, RegimeClassification,
                       SubsolutionParams, classify_regime,
                       envelope_derivatives, ode_envelope, plateau_edge,
                       predict_level_envelope, subsolution, supersolution)
from .initial_data import (Family, InitialDataSpec, algebraic, algebraic_raw,
                           eval_phi0, eval_u0, logarithmic, sub_exponential)
from .measurement import (FitResult, LevelSetTrace, extract_level_position,
                          fit_exp_power, fit_linear, fit_power, select_model)
from .reaction import (ReactionFamily, ReactionKind, ReactionParams, allee,
                       compare_families_near_zero, eval_f, kpp,
                       verify_hypothesis_bounds, weakly_monostable)
from .solver import (SimState, SimulationConfig, auto_size_domain, imex_step,
                     maybe_grow_domain, run)

__version__ = "0.1.0"

__all__ = [
    "Family", "FitResult", "InitialDataSpec", "LevelSetTrace", "OdeProfile",
    "ReactionFamily", "ReactionKind", "ReactionParams", "Regime",
    "RegimeClassification", "SimState", "SimulationConfig",
    "SubsolutionParams", "algebraic", "algebraic_raw",
    "allee", "auto_size_domain", "classify_regime",
    "compare_families_near_zero", "envelope_derivatives", "eval_f",
    "eval_phi0", "eval_u0", "extract_level_position", "fit_exp_power",
    "fit_linear", "fit_power", "imex_step", "kpp", "logarithmic",
    "maybe_grow_domain", "ode_envelope", "plateau_edge",
    "predict_level_envelope", "run", "select_model",
    "sub_exponential", "subsolution", "supersolution",
    "verify_hypothesis_bounds", "weakly_monostable",
]
