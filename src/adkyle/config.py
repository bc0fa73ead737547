"""Run configuration: flat dotted-key text files -> RunConfig.

Format: one `key = value` per line, `#` comments, blank lines ignored.  Keys
are dotted (grid.n, mc.seed, ...); no sections, no nesting.  Unknown keys are
hard errors so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .analytics import SUBGRID_MIN
from .model import NoiseProfile, PayoffFamily, StateGrid, build_state_grid, make_payoff_family
from .posterior import MIN_MOMENT_SAMPLES

_ERR = "adkyle.config"

DEFAULT_GRID_N = 401
DEFAULT_N_SAMPLES = 200_000
DEFAULT_N_PATHS = 20_000


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
    n_samples: int = DEFAULT_N_SAMPLES
    n_paths: int = DEFAULT_N_PATHS
    phi_tol: float = 1e-4
    width_tol: float = 1e-6
    n_sub: int = 21
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
    "solver.phi_tol": ("phi_tol", float),
    "solver.width_tol": ("width_tol", float),
    "impact.n_sub": ("n_sub", int),
    "impact.conditioned_on": ("conditioned_on", _opt_int),
    "output.dir": ("output_dir", str),
}

# family.kind -> the RunConfig attribute that lists one parameter per signal
_SIGNAL_LISTS = {
    "gaussian_mean_shift": "means",
    "gaussian_variance": "sds",
    "skew_normal": "shapes",
}


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key=value text; unknown keys and a missing seed are errors."""
    values: dict = {}
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
        attr, conv = KEYS[key]
        try:
            values[attr] = conv(val)
        except ValueError as exc:
            raise ValueError(f"{_ERR}: bad value for {key!r} (line {lineno}): {exc}") from None
    if "seed" not in values:
        raise ValueError(f"{_ERR}: mc.seed is required (reproducibility is not optional)")
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config_text(Path(path).read_text())


def validate_config(cfg: RunConfig) -> None:
    if cfg.n < 3:
        raise ValueError(f"{_ERR}: grid.n must be >= 3")
    if cfg.n_samples < MIN_MOMENT_SAMPLES:
        raise ValueError(f"{_ERR}: mc.n_samples must be >= {MIN_MOMENT_SAMPLES}")
    if cfg.n_paths < 1:
        raise ValueError(f"{_ERR}: mc.n_paths must be positive")
    if not (cfg.phi_tol > 0.0 and cfg.width_tol > 0.0):
        raise ValueError(f"{_ERR}: solver.phi_tol and solver.width_tol must be > 0")
    if cfg.n_sub < SUBGRID_MIN:
        raise ValueError(f"{_ERR}: impact.n_sub must be >= {SUBGRID_MIN}")
    if cfg.family_kind not in _SIGNAL_LISTS:
        raise ValueError(f"{_ERR}: unsupported family.kind {cfg.family_kind!r}")
    I = len(getattr(cfg, _SIGNAL_LISTS[cfg.family_kind]))
    if cfg.conditioned_on is not None and not 0 <= cfg.conditioned_on < I:
        raise ValueError(
            f"{_ERR}: impact.conditioned_on must be in [0, {I}) or none, "
            f"got {cfg.conditioned_on}"
        )


def config_grid(cfg: RunConfig) -> StateGrid:
    return build_state_grid(cfg.x_min, cfg.x_max, cfg.n)


def config_noise(cfg: RunConfig, grid: StateGrid) -> NoiseProfile:
    sigma = cfg.noise_level + cfg.noise_slope * (grid.nodes - grid.x_min)
    return NoiseProfile(sigma=sigma)


def config_family(cfg: RunConfig, grid: StateGrid) -> PayoffFamily:
    params = {
        "gaussian_mean_shift": {"means": cfg.means, "sd": cfg.sd},
        "gaussian_variance": {"mu": cfg.mu, "sds": cfg.sds},
        "skew_normal": {"shapes": cfg.shapes},
    }[cfg.family_kind]
    return make_payoff_family(cfg.family_kind, params, grid)


def config_hash(cfg: RunConfig) -> str:
    """Stable short hash of the config contents, for the run manifest."""
    import hashlib

    blob = "|".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def with_seed(cfg: RunConfig, seed: int | None) -> RunConfig:
    """Copy of the config with the seed overridden (CLI --seed flag)."""
    return cfg if seed is None else replace(cfg, seed=int(seed))
