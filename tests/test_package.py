"""The package's public names and settable values."""

import dataclasses
import importlib
import inspect

import pytest

import frontlab
from frontlab import config, errors, measurement, reaction, reporting

DELETED = ("TravelingBound", "min_wave_speed", "traveling_bound",
           "traveling_profile", "traveling_residual",
           "calibrate_traveling_speed", "saturation_curvature",
           "shifted_supersolution", "tridiagonal_solve", "thomas_solve",
           "u0_inverse", "check_growth_conditions", "ReactionKind", "kpp", "allee",
           "verify_hypothesis_bounds", "compare_families_near_zero")


def test_every_export_resolves():
    for name in frontlab.__all__:
        assert getattr(frontlab, name) is not None, name


def test_deleted_names_not_exported():
    for name in DELETED:
        assert name not in frontlab.__all__
        assert not hasattr(frontlab, name), name


DELETED_ERRORS = ("EnvelopeDomainError", "DomainError", "ParameterError",
                  "BelowLevelError", "FrontExitedDomainError", "OffsetError",
                  "AnalysisError", "CalibrationError", "NumericalError")


# fig1 and ``verify hypothesis`` build their own tables and bounds
DELETED_REACTION = ("BoundViolation", "log_sample_grid", "ReactionKind", "kpp", "allee",
                    "_rate_array", "percapita_bound", "HypothesisReport",
                    "verify_hypothesis_bounds", "FamilyComparison",
                    "compare_families_near_zero")


# the offset scan: the power and exp-power fits take no additive offset
DELETED_MEASUREMENT = ("OFFSET_GRID_SIZE", "OFFSET_BLOCK_CELLS", "_fit_transformed")

# the forked snapshot writer
DELETED_REPORTING = ("PARALLEL_ROWS", "_worker_count", "_split", "_write_part")


def test_deleted_module_names_gone():
    for module, name in (*((reaction, name) for name in DELETED_REACTION),
                         *((errors, name) for name in DELETED_ERRORS),
                         *((measurement, name) for name in DELETED_MEASUREMENT),
                         *((reporting, name) for name in DELETED_REPORTING)):
        assert not hasattr(module, name), name
    # the reaction is evaluated by eval_f only, not called as a function
    assert "__call__" not in vars(frontlab.ReactionFamily)


def test_fits_take_no_offset():
    for fit in (measurement.fit_power, measurement.fit_exp_power):
        assert "offset" not in inspect.signature(fit).parameters, fit.__name__


def test_one_error_class_per_exit_code():
    # exit 2 for a ValueError, 3 for any other FrontlabError
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert defined == {"FrontlabError", "InputError", "ConfigError", "SolverError"}
    for cls in (errors.InputError, errors.ConfigError, errors.SolverError):
        assert issubclass(cls, errors.FrontlabError), cls.__name__
    assert issubclass(errors.InputError, ValueError)
    assert issubclass(errors.ConfigError, ValueError)
    assert not issubclass(errors.SolverError, ValueError)


def test_scalar_module_gone():
    # evaluators take and return arrays; no scalar-in, float-out layer is left
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("frontlab._scalar")


def test_errors_carry_only_their_message():
    for cls in (errors.ConfigError, errors.SolverError):
        assert "__init__" not in vars(cls), cls.__name__
        err = cls("message")
        assert err.args == ("message",)
        for name in ("line", "key", "t"):
            assert not hasattr(err, name), (cls.__name__, name)


# every settable value: a new field or config key has to be added here too
SETTINGS = {
    frontlab.SimulationConfig: ("reaction", "data", "dx", "dt", "t_end", "x_left",
                                "x_right", "snapshot_times", "lambdas",
                                "growth_margin", "floor"),
    frontlab.ReactionFamily: ("params",),
    frontlab.ReactionParams: ("r", "alpha"),
    frontlab.SubsolutionParams: ("M",),
}
CONFIG_KEYS = {
    "reaction": {"r", "alpha"},
    "initial_data": {"family", "beta", "mu", "scale"},
    "grid": {"dx", "x_left", "x_right", "growth", "growth_margin", "floor"},
    "time": {"dt", "t_end", "snapshot_times"},
    "measurement": {"lambdas"},
}


def test_settable_fields_pinned():
    for cls, names in SETTINGS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__


def test_config_keys_pinned():
    assert config._SECTIONS == CONFIG_KEYS
