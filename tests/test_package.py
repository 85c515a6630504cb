"""The package's public names."""

import frontlab

DELETED = ("TravelingBound", "min_wave_speed", "traveling_bound",
           "traveling_profile", "traveling_residual",
           "calibrate_traveling_speed", "saturation_curvature",
           "shifted_supersolution", "tridiagonal_solve", "thomas_solve")


def test_every_export_resolves():
    for name in frontlab.__all__:
        assert getattr(frontlab, name) is not None, name


def test_deleted_names_not_exported():
    for name in DELETED:
        assert name not in frontlab.__all__
        assert not hasattr(frontlab, name), name
