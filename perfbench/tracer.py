"""Outside-in layer tracer for the adkyle benchmark.

The tracer wraps public functions of the adkyle modules from the outside: for
each target it finds the function object and rebinds every module attribute
that refers to it (the defining module and every module that imported the
name), so calls made through ``from .orderflow import iter_shock_blocks`` are
traced too.  Nothing under ``src/`` is edited.

Spans nest on one stack.  A span's self time is its duration minus the time
covered by its direct child spans.  A target that no longer exists is
reported as missing with a warning instead of failing the run, so the tracer
survives refactors that rename or delete a wrapped function.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import warnings
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute).  The first dotted part of a span
# name is its layer.
TARGETS = (
    ("config.load", "adkyle.config", "load_config"),
    ("kernel.build", "adkyle.kernel", "build_canonical_kernel"),
    ("rng.normal_matrix", "adkyle._rng", "standard_normal_matrix"),
    ("rng.shock_blocks", "adkyle.orderflow", "iter_shock_blocks"),
    ("posterior.moments", "adkyle.posterior", "moments_from_noise"),
    ("equilibrium.solve", "adkyle.equilibrium", "solve_alpha_star"),
    ("equilibrium.phi", "adkyle.equilibrium", "phi_from_noise"),
    ("equilibrium.demand", "adkyle.equilibrium", "equilibrium_demand"),
    ("orderflow.loglik", "adkyle.orderflow", "log_likelihoods"),
    ("orderflow.post_weights", "adkyle.orderflow", "posterior_weights"),
    ("orderflow.simulate", "adkyle.orderflow", "simulate_order_flow"),
    ("orderflow.pathwise_posterior", "adkyle.orderflow", "pathwise_posterior"),
    ("orderflow.price_schedule", "adkyle.orderflow", "price_schedule"),
    ("objective.foc_terms", "adkyle.objective", "foc_terms"),
    ("objective.zero_impact_basis", "adkyle.objective", "zero_impact_basis"),
    ("analytics.impact_surface", "adkyle.analytics", "impact_surface"),
    ("analytics.efficiency_sweep", "adkyle.analytics", "efficiency_sweep"),
    ("analytics.information_efficiency", "adkyle.analytics", "information_efficiency"),
    ("options.bl_decompose", "adkyle.options", "bl_decompose"),
    ("options.bl_reconstruct", "adkyle.options", "bl_reconstruct"),
    ("options.demand_signature", "adkyle.options", "demand_signature"),
)

# Units of the per-layer metrics, in report order.
METRIC_UNITS = {
    "rng.normal_matrix.calls": "count",
    "rng.normal_matrix.s": "s",
    "rng.normal_matrix.unique_ratio": "ratio",
    "rng.shock_blocks.count": "count",
    "rng.shock_blocks.s": "s",
    "rng.shock_blocks.unique_ratio": "ratio",
    "posterior.moments.calls": "count",
    "posterior.moments.s": "s",
    "equilibrium.solve.calls": "count",
    "equilibrium.solve.s": "s",
    "equilibrium.phi.evals_per_solve": "count",
    "equilibrium.phi_ms.I2": "ms",
    "equilibrium.phi_ms.I8": "ms",
    "kernel.build.s": "s",
    "orderflow.loglik.calls": "count",
    "orderflow.loglik.rows_per_call": "rows",
    "orderflow.loglik.s": "s",
    "orderflow.post_weights.s": "s",
    "orderflow.simulate.s": "s",
    "objective.foc_terms.calls": "count",
    "objective.foc_terms.self_s": "s",
    "analytics.impact_surface.self_s": "s",
    "analytics.efficiency_sweep.s": "s",
    "analytics.information_efficiency.calls": "count",
    "options.s": "s",
    "config.load.s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_rows": "count",
    "cli.write_mb_per_s": "MB/s",
    "trace.overhead_pct": "%",
    "trace.missing_targets": "count",
    "trace.absent_metrics": "count",
    "trace.crosscheck_failures": "count",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _Stat:
    __slots__ = ("calls", "total", "self_time", "rows", "keys", "keyless")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.keys = set()
        self.keyless = False


class Tracer:
    """Span recorder with per-target aggregates, reset once per traced pass."""

    def __init__(self):
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.layer_time: dict[str, float] = defaultdict(float)
        self.phi_ms: dict[int, list[float]] = defaultdict(list)
        self.solves: list[tuple[int, int | None]] = []  # (phi evals, 1 + doublings + bisections)
        self._stack: list[list] = []  # [span name, child time]

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return perf_counter()

    def exit(self, name: str, t0: float) -> float:
        dt = perf_counter() - t0
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        st = self.stats[name]
        st.calls += 1
        st.total += dt
        st.self_time += dt - child
        layer = _layer(name)
        if all(_layer(outer) != layer for outer, _ in self._stack):
            self.layer_time[layer] += dt
        return dt

    def count(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    # -- wrapping ----------------------------------------------------------

    def install(self):
        """Wrap every target; return a function that restores the originals."""
        self.missing = []
        undo = []
        for name, modname, attr in TARGETS:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
            orig = getattr(sys.modules.get(modname), attr, None)
            if not callable(orig):
                self.missing.append(name)
                warnings.warn(f"perfbench tracer: {modname}.{attr} not found; "
                              f"{name} metrics are absent", stacklevel=2)
                continue
            wrapper = self._wrap(name, orig)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "adkyle" or mname.startswith("adkyle.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, orig))

        def uninstall():
            for mod, key, orig in undo:
                setattr(mod, key, orig)

        return uninstall

    def _wrap(self, name, orig):
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None
        note = _NOTES.get(name)
        tracer = self

        def bound(args, kwargs):
            if sig is None:
                return None
            try:
                return sig.bind(*args, **kwargs).arguments
            except TypeError:
                return None

        if inspect.isgeneratorfunction(orig):
            def gen_wrapper(*args, **kwargs):
                arguments = bound(args, kwargs)
                inner = orig(*args, **kwargs)
                block_id = 0
                while True:
                    t0 = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.exit(name, t0)
                        tracer.stats[name].calls -= 1  # the exhausting next() is not a block
                        return
                    except BaseException:
                        tracer.exit(name, t0)
                        raise
                    tracer.exit(name, t0)
                    _note_block(tracer.stats[name], arguments, block_id, item)
                    block_id += 1
                    yield item

            gen_wrapper.__wrapped__ = orig
            return gen_wrapper

        def wrapper(*args, **kwargs):
            arguments = bound(args, kwargs) if note else None
            phi_before = tracer.count("equilibrium.phi")
            t0 = tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = tracer.exit(name, t0)
            if note:
                note(tracer, arguments, result, dt, phi_before)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- per-pass metrics --------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], set[str]]:
        """Per-layer metrics of the pass traced so far, and the names that are absent.

        An absent metric is reported as 0: its target is missing or its
        denominator is zero on this workload.
        """
        out: dict[str, float] = {}
        absent: set[str] = set()
        missing = set(self.missing)

        def put(metric, value, target):
            if target in missing or value is None:
                absent.add(metric)
                value = 0.0
            out[metric] = float(value)

        def stat(target):
            return self.stats.get(target) or _Stat()

        def ratio(num, den):
            return num / den if den else None

        def unique(target):
            st = stat(target)
            return None if st.keyless else ratio(len(st.keys), st.calls)

        put("rng.normal_matrix.calls", stat("rng.normal_matrix").calls, "rng.normal_matrix")
        put("rng.normal_matrix.s", stat("rng.normal_matrix").total, "rng.normal_matrix")
        put("rng.normal_matrix.unique_ratio", unique("rng.normal_matrix"), "rng.normal_matrix")
        put("rng.shock_blocks.count", stat("rng.shock_blocks").calls, "rng.shock_blocks")
        put("rng.shock_blocks.s", stat("rng.shock_blocks").total, "rng.shock_blocks")
        put("rng.shock_blocks.unique_ratio", unique("rng.shock_blocks"), "rng.shock_blocks")
        put("posterior.moments.calls", stat("posterior.moments").calls, "posterior.moments")
        put("posterior.moments.s", stat("posterior.moments").total, "posterior.moments")
        put("equilibrium.solve.calls", stat("equilibrium.solve").calls, "equilibrium.solve")
        put("equilibrium.solve.s", stat("equilibrium.solve").total, "equilibrium.solve")
        put("equilibrium.phi.evals_per_solve",
            ratio(sum(n for n, _ in self.solves), len(self.solves)), "equilibrium.phi")
        for I in (2, 8):
            ms = self.phi_ms.get(I)
            put(f"equilibrium.phi_ms.I{I}", statistics.fmean(ms) if ms else None,
                "equilibrium.phi")
        put("kernel.build.s", stat("kernel.build").total, "kernel.build")
        ll = stat("orderflow.loglik")
        put("orderflow.loglik.calls", ll.calls, "orderflow.loglik")
        put("orderflow.loglik.rows_per_call", ratio(ll.rows, ll.calls), "orderflow.loglik")
        put("orderflow.loglik.s", ll.total, "orderflow.loglik")
        put("orderflow.post_weights.s", stat("orderflow.post_weights").total,
            "orderflow.post_weights")
        put("orderflow.simulate.s", stat("orderflow.simulate").total, "orderflow.simulate")
        put("objective.foc_terms.calls", stat("objective.foc_terms").calls, "objective.foc_terms")
        put("objective.foc_terms.self_s", stat("objective.foc_terms").self_time,
            "objective.foc_terms")
        put("analytics.impact_surface.self_s", stat("analytics.impact_surface").self_time,
            "analytics.impact_surface")
        put("analytics.efficiency_sweep.s", stat("analytics.efficiency_sweep").total,
            "analytics.efficiency_sweep")
        put("analytics.information_efficiency.calls",
            stat("analytics.information_efficiency").calls, "analytics.information_efficiency")
        options = [t for t, _, _ in TARGETS if _layer(t) == "options"]
        put("options.s", None if all(t in missing for t in options) else self.layer_time["options"],
            "options")
        put("config.load.s", stat("config.load").total, "config.load")
        cli_self = sum(st.self_time for t, st in self.stats.items() if _layer(t) == "cli")
        put("cli.self_s", cli_self, "cli")
        put("trace.missing_targets", len(self.missing), "trace")
        return out, absent


def _note_block(st: _Stat, arguments, block_id: int, item) -> None:
    shocks = item[1] if isinstance(item, tuple) and len(item) > 1 else None
    rows = getattr(shocks, "shape", (None,))[0]
    if arguments is None or "seed" not in arguments or rows is None:
        st.keyless = True
        return
    st.keys.add((int(arguments["seed"]), block_id, int(rows)))


def _note_normal_matrix(tracer, arguments, result, dt, phi_before):
    st = tracer.stats["rng.normal_matrix"]
    if arguments is None or not {"seed", "n", "dim"} <= arguments.keys():
        st.keyless = True
        return
    st.keys.add((int(arguments["seed"]), int(arguments["n"]), int(arguments["dim"])))


def _note_loglik(tracer, arguments, result, dt, phi_before):
    shape = getattr(result, "shape", ())
    tracer.stats["orderflow.loglik"].rows += int(shape[0]) if len(shape) == 2 else 1


def _note_phi(tracer, arguments, result, dt, phi_before):
    noise = (arguments or {}).get("noise")
    shape = getattr(noise, "shape", ())
    if len(shape) == 2:
        tracer.phi_ms[int(shape[1])].append(1e3 * dt)


def _note_solve(tracer, arguments, result, dt, phi_before):
    evals = tracer.count("equilibrium.phi") - phi_before
    meta = getattr(result, "mc_meta", None) or {}
    try:
        expected = 1 + int(meta["n_doublings"]) + int(meta["n_bisections"])
    except (KeyError, TypeError, ValueError):
        expected = None
    tracer.solves.append((evals, expected))


_NOTES = {
    "rng.normal_matrix": _note_normal_matrix,
    "orderflow.loglik": _note_loglik,
    "equilibrium.phi": _note_phi,
    "equilibrium.solve": _note_solve,
}
