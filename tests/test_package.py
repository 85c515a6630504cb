"""The package's public names and settable values."""

import dataclasses

import frontlab
from frontlab import config

DELETED = ("TravelingBound", "min_wave_speed", "traveling_bound",
           "traveling_profile", "traveling_residual",
           "calibrate_traveling_speed", "saturation_curvature",
           "shifted_supersolution", "tridiagonal_solve", "thomas_solve",
           "u0_inverse", "check_growth_conditions")


def test_every_export_resolves():
    for name in frontlab.__all__:
        assert getattr(frontlab, name) is not None, name


def test_deleted_names_not_exported():
    for name in DELETED:
        assert name not in frontlab.__all__
        assert not hasattr(frontlab, name), name


# every settable value: a new field or config key has to be added here too
SETTINGS = {
    frontlab.SimulationConfig: ("reaction", "data", "dx", "dt", "t_end", "x_left",
                                "x_right", "snapshot_times", "lambdas",
                                "growth_margin", "cell_cap", "floor"),
    frontlab.ReactionParams: ("r", "alpha"),
    frontlab.SubsolutionParams: ("M",),
}
CONFIG_KEYS = {
    "reaction": {"family", "r", "alpha"},
    "initial_data": {"family", "beta", "mu", "scale"},
    "grid": {"dx", "x_left", "x_right", "growth", "growth_margin", "cell_cap", "floor"},
    "time": {"dt", "t_end", "snapshot_times"},
    "measurement": {"lambdas"},
}


def test_settable_fields_pinned():
    for cls, names in SETTINGS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__


def test_config_keys_pinned():
    assert config._SECTIONS == CONFIG_KEYS
