"""Physical set-up of the front cases that have a stored converged reference.

Plain numbers only, so that ``reference.py`` can build its own integrator
from them without importing frontlab, and ``workloads.py`` can check that
the configuration frontlab runs is the one the reference was made for.

``finite_speed`` is the finite-speed acceptance configuration (levels 0.1
and 0.5 on the 2601-cell static grid of its t_end = 30 run), cut to
t_end = 6 so that several rounds fit in one benchmark run.  ``fig7a`` is the
algebraic preset panel exactly as ``presets.PRESETS["fig7a"]`` defines it;
``verify sandwich`` runs the same configuration.  ``wide_power`` is the
fig3a panel (alpha = 0.2, beta = 0.1) on fig3a's own 26 090-cell domain,
cut to t_end = 0.8.  Checkpoints are whole multiples of dt, because the
solver records a snapshot at the nearest step.
"""

CASES = {
    "finite_speed": {
        "alpha": 0.4, "r": 1.0,
        "family": "sub_exponential", "mu": 5.0, "beta": 1.0,
        "dx": 0.05, "dt": 0.01, "t_end": 6.0,
        "x_left": -10.0, "x_right": 120.0,
        "lambdas": (0.1, 0.5),
        "checkpoints": (1.5, 3.0, 4.5, 6.0),
    },
    "fig7a": {
        "alpha": 0.4, "r": 1.0,
        "family": "algebraic", "scale": 100.0, "beta": 1.0,
        "dx": 0.05, "dt": 0.01, "t_end": 8.0,
        "x_left": None, "x_right": None,
        "lambdas": (0.5,),
        "checkpoints": (2.0, 4.0, 6.0, 8.0),
    },
    "wide_power": {
        "alpha": 0.2, "r": 1.0,
        "family": "sub_exponential", "mu": 5.0, "beta": 0.1,
        "dx": 0.05, "dt": 0.01, "t_end": 0.8,
        "x_left": -10.0, "x_right": 1294.45,
        "lambdas": (0.5,),
        "checkpoints": (0.2, 0.4, 0.6, 0.8),
    },
}
