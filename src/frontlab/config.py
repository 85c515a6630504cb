"""Declarative run configuration: parsing and canonical serialization.

The format is plain sectioned key = value text, e.g.

    [reaction]
    alpha = 0.4

    [initial_data]
    family = algebraic
    beta = 1.0
    scale = 100.0

    [grid]
    dx = 0.05

    [time]
    dt = 0.01
    t_end = 8.0
    snapshot_times = 2, 4, 6, 8

    [measurement]
    lambdas = 0.5

Unknown sections or keys are rejected with their line number; missing
required keys and invariant violations name the offending key.  Every
``SimulationConfig`` round-trips losslessly through ``config_to_text``.
"""

from __future__ import annotations

from .errors import ConfigError, FrontlabError
from .initial_data import ALGEBRAIC_SCALE, Family, InitialDataSpec
from .reaction import ReactionFamily, ReactionKind, ReactionParams
from .solver import SimulationConfig

_SECTIONS = {
    "reaction": {"family", "r", "alpha"},
    "initial_data": {"family", "beta", "mu", "scale"},
    "grid": {"dx", "x_left", "x_right", "growth", "growth_margin", "cell_cap", "floor"},
    "time": {"dt", "t_end", "snapshot_times"},
    "measurement": {"lambdas"},
}

_REQUIRED = {
    ("reaction", "alpha"),
    ("initial_data", "family"),
    ("initial_data", "beta"),
    ("grid", "dx"),
    ("time", "dt"),
    ("time", "t_end"),
}


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}] at line {lineno}",
                                  line=lineno, key=section)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {raw!r}",
                              line=lineno)
        if section is None:
            raise ConfigError(f"key outside any section at line {lineno}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}] at line {lineno}",
                              line=lineno, key=key)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} at line {lineno}",
                              line=lineno, key=key)
        entries[(section, key)] = (value, lineno)
    return entries


def _get(entries, section, key, convert, default=None):
    if (section, key) not in entries:
        if (section, key) in _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{section}]", key=key)
        return default
    value, lineno = entries.pop((section, key))
    try:
        return convert(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r} at line {lineno}: {exc}",
                          line=lineno, key=key) from exc


def _present(**fields):
    """The fields the document gave: an absent key (None) keeps its dataclass default."""
    return {name: value for name, value in fields.items() if value is not None}


def _float_list(value: str) -> tuple[float, ...]:
    parts = [p for p in value.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def parse_config(text: str) -> SimulationConfig:
    """Parse a configuration document into a validated ``SimulationConfig``."""
    entries = _parse_lines(text)

    rkind = _get(entries, "reaction", "family",
                 lambda v: ReactionKind(v.lower()), ReactionKind.WEAKLY_MONOSTABLE)
    try:
        params = ReactionParams(**_present(
            r=_get(entries, "reaction", "r", float),
            alpha=_get(entries, "reaction", "alpha", float),
        ))
        reaction = ReactionFamily(rkind, params)

        dkind = _get(entries, "initial_data", "family", lambda v: Family(v.lower()))
        data = InitialDataSpec(
            family=dkind,
            beta=_get(entries, "initial_data", "beta", float),
            mu=_get(entries, "initial_data", "mu", float),
            scale=_get(entries, "initial_data", "scale", float,
                       ALGEBRAIC_SCALE if dkind is Family.ALGEBRAIC else None),
        )

        growth = _get(entries, "grid", "growth", str, "double_when_near").lower()
        if growth not in ("static", "double_when_near"):
            raise ConfigError(f"growth must be static or double_when_near, got {growth!r}",
                              key="growth")
        fields = _present(
            growth_margin=_get(entries, "grid", "growth_margin", float),
            dx=_get(entries, "grid", "dx", float),
            dt=_get(entries, "time", "dt", float),
            t_end=_get(entries, "time", "t_end", float),
            x_left=_get(entries, "grid", "x_left", float),
            x_right=_get(entries, "grid", "x_right", float),
            snapshot_times=_get(entries, "time", "snapshot_times", _float_list),
            lambdas=_get(entries, "measurement", "lambdas", _float_list),
            cell_cap=_get(entries, "grid", "cell_cap", int),
            floor=_get(entries, "grid", "floor", float),
        )
        if growth == "static":
            fields["growth_margin"] = None
        config = SimulationConfig(reaction, data, **fields)
    except ConfigError:
        raise
    except FrontlabError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if entries:  # pragma: no cover - all keys are known per section by now
        (section, key), (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unused key {key!r} in [{section}]", line=lineno, key=key)
    return config


def config_to_text(config: SimulationConfig) -> str:
    """Canonical text form; parsing it reproduces ``config`` exactly."""
    if config.reaction is None:
        raise ConfigError("pure-diffusion configs have no text form")
    p = config.reaction.params
    d = config.data
    lines = [
        "[reaction]",
        f"family = {config.reaction.kind.value}",
        f"r = {p.r!r}",
        f"alpha = {p.alpha!r}",
        "",
        "[initial_data]",
        f"family = {d.family.value}",
        f"beta = {d.beta!r}",
    ]
    if d.mu is not None:
        lines.append(f"mu = {d.mu!r}")
    if d.scale is not None:
        lines.append(f"scale = {d.scale!r}")
    lines += ["", "[grid]", f"dx = {config.dx!r}"]
    if config.x_left is not None:
        lines.append(f"x_left = {config.x_left!r}")
    if config.x_right is not None:
        lines.append(f"x_right = {config.x_right!r}")
    if config.growth_margin is None:
        lines.append("growth = static")
    else:
        lines.append("growth = double_when_near")
        lines.append(f"growth_margin = {config.growth_margin!r}")
    lines.append(f"cell_cap = {config.cell_cap}")
    lines.append(f"floor = {config.floor!r}")
    lines += ["", "[time]", f"dt = {config.dt!r}", f"t_end = {config.t_end!r}"]
    if config.snapshot_times:
        lines.append("snapshot_times = " + ", ".join(repr(t) for t in config.snapshot_times))
    lines += ["", "[measurement]",
              "lambdas = " + ", ".join(repr(l) for l in config.lambdas)]
    return "\n".join(lines) + "\n"
