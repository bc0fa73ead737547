"""Run configuration: flat dotted-key text files -> RunConfig.

Format: one `key = value` per line, `#` comments, blank lines ignored.  Keys
are dotted (grid.n, mc.seed, ...); no sections, no nesting.  Unknown keys, and
family.* keys that the family.kind does not read, are hard errors so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .model import (FAMILY_PARAMS, NoiseProfile, PayoffFamily, StateGrid, build_state_grid,
                    make_payoff_family)

_ERR = "adkyle.config"

DEFAULT_GRID_N = 401
MIN_MOMENT_SAMPLES = 10_000  # mc.n_samples sizes no draw: it is range-checked and recorded
DEFAULT_MOMENT_SAMPLES = 200_000
DEFAULT_PATHS = 20_000  # mc.n_paths sizes no draw either: it is range-checked and recorded
SEED_LIMIT = 2**64  # Philox keys take the seed as one 64-bit word
COUNT_LIMIT = 2**40  # a float64 array this long is 8 TiB; no larger count can run
SUBGRID_DEFAULT = 21  # impact.n_sub: sub-grid points per axis of impact's square
SUBGRID_MIN = 9


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for a pipeline run.  mc.seed has no default on purpose."""

    seed: int
    x_min: float = -8.0
    x_max: float = 8.0
    n: int = DEFAULT_GRID_N
    noise_level: float = 1.0
    noise_slope: float = 0.0
    family_kind: str = "gaussian_mean_shift"
    means: tuple = (-1.0, 1.0)
    sd: float = 1.0
    mu: float = 0.0
    sds: tuple = (1.0, 1.5)
    shapes: tuple = (4.0, -4.0)
    n_samples: int = DEFAULT_MOMENT_SAMPLES
    n_paths: int = DEFAULT_PATHS
    n_sub: int = SUBGRID_DEFAULT
    conditioned_on: int | None = None
    output_dir: str = "out"


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _opt_int(text: str):
    return None if text.lower() in ("none", "") else int(text)


# dotted key -> (RunConfig attribute, converter)
KEYS = {
    "grid.x_min": ("x_min", float),
    "grid.x_max": ("x_max", float),
    "grid.n": ("n", int),
    "noise.level": ("noise_level", float),
    "noise.slope": ("noise_slope", float),
    "family.kind": ("family_kind", str),
    "family.means": ("means", _floats),
    "family.sd": ("sd", float),
    "family.mu": ("mu", float),
    "family.sds": ("sds", _floats),
    "family.shapes": ("shapes", _floats),
    "mc.seed": ("seed", int),
    "mc.n_samples": ("n_samples", int),
    "mc.n_paths": ("n_paths", int),
    "impact.n_sub": ("n_sub", int),
    "impact.conditioned_on": ("conditioned_on", _opt_int),
    "output.dir": ("output_dir", str),
}

def parse_config_text(text: str) -> RunConfig:
    """Parse flat key=value text; unknown or repeated keys, a family.* key that the
    family.kind does not read, and a missing seed are errors."""
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{_ERR}: line {lineno} is not `key = value`: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEYS:
            raise ValueError(f"{_ERR}: unknown key {key!r} (line {lineno})")
        if key in first_line:
            raise ValueError(f"{_ERR}: key {key!r} repeated (lines {first_line[key]} and {lineno})")
        first_line[key] = lineno
        attr, conv = KEYS[key]
        try:
            values[attr] = conv(val)
        except ValueError as exc:
            raise ValueError(f"{_ERR}: bad value for {key!r} (line {lineno}): {exc}") from None
    if "seed" not in values:
        raise ValueError(f"{_ERR}: mc.seed is required (reproducibility is not optional)")
    cfg = validate_config(RunConfig(**values))
    read = ("family_kind", *FAMILY_PARAMS[cfg.family_kind])
    for key, lineno in first_line.items():
        if key.startswith("family.") and KEYS[key][0] not in read:
            raise ValueError(f"{_ERR}: family.kind = {cfg.family_kind} does not read {key!r} "
                             f"(line {lineno})")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config_text(Path(path).read_text())


def validate_config(cfg: RunConfig) -> RunConfig:
    """Range-check every field; returns cfg unchanged or raises ValueError."""
    if not 0 <= cfg.seed < SEED_LIMIT:
        raise ValueError(f"{_ERR}: mc.seed must be in [0, 2**64), got {cfg.seed}")
    if not 3 <= cfg.n <= COUNT_LIMIT:
        raise ValueError(f"{_ERR}: grid.n must be in [3, 2**40]")
    if not MIN_MOMENT_SAMPLES <= cfg.n_samples <= COUNT_LIMIT:
        raise ValueError(f"{_ERR}: mc.n_samples must be in [{MIN_MOMENT_SAMPLES}, 2**40]")
    if not 1 <= cfg.n_paths <= COUNT_LIMIT:
        raise ValueError(f"{_ERR}: mc.n_paths must be in [1, 2**40]")
    if cfg.family_kind not in FAMILY_PARAMS:
        raise ValueError(f"{_ERR}: unsupported family.kind {cfg.family_kind!r}")
    per_signal, *common = (getattr(cfg, name) for name in FAMILY_PARAMS[cfg.family_kind])
    if not all(map(math.isfinite, (cfg.noise_level, cfg.noise_slope, *per_signal, *common))):
        raise ValueError(f"{_ERR}: noise.* and family.* values must be finite")
    if not SUBGRID_MIN <= cfg.n_sub <= COUNT_LIMIT:
        raise ValueError(f"{_ERR}: impact.n_sub must be in [{SUBGRID_MIN}, 2**40]")
    I = len(per_signal)
    if cfg.conditioned_on is not None and not 0 <= cfg.conditioned_on < I:
        raise ValueError(
            f"{_ERR}: impact.conditioned_on must be in [0, {I}) or none, "
            f"got {cfg.conditioned_on}"
        )
    return cfg


def config_model(cfg: RunConfig) -> tuple[StateGrid, NoiseProfile, PayoffFamily]:
    """The grid, noise profile and payoff family of a config, built in that order."""
    grid = build_state_grid(cfg.x_min, cfg.x_max, cfg.n)
    params = {name: getattr(cfg, name) for name in FAMILY_PARAMS[cfg.family_kind]}
    # an overflowing sigma is infinite: NoiseProfile rejects it.  A tiny sd overflows
    # (x - m) / sd (density 0 there) or the density itself (the row's mass is then
    # infinite, which make_payoff_family rejects)
    with np.errstate(over="ignore"):
        sigma = cfg.noise_level + cfg.noise_slope * (grid.nodes - grid.x_min)
        return grid, NoiseProfile(sigma=sigma), make_payoff_family(cfg.family_kind, params, grid)


def config_hash(cfg: RunConfig) -> str:
    """Short hash of the config for the manifest: CRC-32, Adler-32 (hashlib loads OpenSSL)."""
    blob = "|".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)).encode()
    return f"{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}"


def with_seed(cfg: RunConfig, seed: int | None) -> RunConfig:
    """Copy of the config with the seed overridden (CLI --seed flag), validated."""
    return cfg if seed is None else validate_config(replace(cfg, seed=int(seed)))
