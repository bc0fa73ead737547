"""The benchmark's workloads run clean: each command exits 0 and passes its output check,
and every layer the tracer wraps still exists, but for the known missing ones, with the
arguments and fields the tracer reads.

perfbench/ is imported read only, so a change that would fail the benchmark run (a
config key its workloads write, a flag its commands pass, a CSV column its checks read)
fails here first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from adkyle import solve_alpha_star
from adkyle._rng import standard_normal_matrix
from adkyle.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, checks, tracer = load("workloads"), load("checks"), load("tracer")

# tracer targets whose functions the library no longer has: their metrics are absent
KNOWN_MISSING = {"rng.shock_blocks", "posterior.moments", "equilibrium.phi", "orderflow.simulate",
                 "orderflow.pathwise_posterior", "objective.zero_impact_basis",
                 "analytics.information_efficiency"}


def test_tracer_targets_resolve_to_functions():
    # an edit that renames or removes a traced function must not drop its layer's metrics quietly
    missing = {name for name, module, attr in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing <= KNOWN_MISSING


def test_traced_functions_keep_the_arguments_and_fields_the_tracer_reads():
    # the tracer keys each normal draw on its (seed, n, dim) arguments and counts a solve's
    # evaluations from its mc_meta; a rename would blank those metrics without an error
    assert {"seed", "n", "dim"} <= inspect.signature(standard_normal_matrix).parameters.keys()
    assert {"n_doublings", "n_bisections"} <= solve_alpha_star(2).mc_meta.keys()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_commands_exit_zero_and_pass_their_checks(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    config = tmp_path / "run.cfg"
    config.write_text(spec.config_text(workloads.DEFAULT_SEED))
    for words in spec.commands:
        name = workloads.command_name(words)
        out = tmp_path / name.replace(" ", "_")
        assert main([*words, "-c", str(config), "-o", str(out)]) == 0, name
        paths = int(words[words.index("--paths") + 1]) if "--paths" in words else 0
        assert checks.check_outputs(name, out, {"grid_n": workloads.GRID_N, "paths": paths}) == []
