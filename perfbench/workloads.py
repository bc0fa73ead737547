"""The benchmark's workloads: a generated config and a list of CLI subcommands.

Each workload stresses different layers (see README.md for why each exists
and which layer metric should move which end-to-end metric).  Every config
value the checks depend on is written out explicitly, so a change of the
package defaults cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7
GRID_N = 401


@dataclass(frozen=True)
class Workload:
    n_samples: int
    n_paths: int
    commands: tuple[tuple[str, ...], ...]  # CLI words, flags included, without -c/-o
    main: str  # the subcommand reported as main_cmd_s

    def config_text(self, seed: int) -> str:
        return (f"mc.seed = {seed}\n"
                f"grid.n = {GRID_N}\n"
                f"mc.n_samples = {self.n_samples}\n"
                f"mc.n_paths = {self.n_paths}\n")


WORKLOADS = {
    # Solver-bound: 6 root solves (I = 2, 4, 6, 8 in the sweep, then I = 2 for
    # solve and options) of ~23 Phi evaluations over 200k draws; no paths.
    "equilibrium": Workload(
        n_samples=200_000,
        n_paths=20_000,
        commands=(("efficiency",), ("solve",), ("posterior", "probe", "--alpha-bar", "1.0"),
                  ("options",), ("kernel", "dump")),
        main="efficiency",
    ),
    # Order-flow paths: block Monte Carlo over 4096-path shock blocks (impact,
    # verify-foc), then 200 one-row paths formatted to ~6 MB of CSV (simulate).
    "paths": Workload(
        n_samples=200_000,
        n_paths=100_000,
        commands=(("impact",), ("verify-foc",), ("simulate", "--paths", "200")),
        main="verify-foc",
    ),
}


def command_name(words: tuple[str, ...]) -> str:
    """'posterior probe', 'kernel dump', 'verify-foc', ...: the words before the first flag."""
    name = []
    for w in words:
        if w.startswith("-"):
            break
        name.append(w)
    return " ".join(name)
