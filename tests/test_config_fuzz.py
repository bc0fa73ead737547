"""Random configs through the CLI: every run ends in status 0, 1 or 2, never a traceback.

Each example writes a config of random `key = value` lines drawn from
config.KEYS (valid, boundary and malformed values alike) and runs one
subcommand on it.  Grids, sample counts and path counts stay small (a
malformed count is rejected at load), so the whole property costs seconds.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adkyle.cli import main
from adkyle.config import KEYS, RunConfig
from adkyle.model import FAMILY_PARAMS

FUZZ_EXAMPLES = 300  # about 3 s on a 2-core machine


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _float_lists(lo: float, hi: float):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=2, max_size=4).map(
        lambda xs: ", ".join(map(repr, xs)))


def _ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


# In-range values: alone they load, so the run reaches the numerics.
VALUES = {
    "grid.x_min": _floats(-10.0, -1.0),
    "grid.x_max": _floats(1.0, 10.0),
    "grid.n": _ints(3, 41),
    "noise.level": _floats(0.1, 4.0),
    "noise.slope": _floats(0.0, 0.5),
    "family.kind": st.sampled_from(("gaussian_mean_shift", "gaussian_variance", "skew_normal")),
    "family.means": _float_lists(-3.0, 3.0),
    "family.sd": _floats(0.3, 3.0),
    "family.mu": _floats(-2.0, 2.0),
    "family.sds": _float_lists(0.5, 3.0),
    "family.shapes": _float_lists(-8.0, 8.0),
    "mc.seed": _ints(0, 2**64 - 1),
    "mc.n_samples": st.just("10000"),
    "mc.n_paths": _ints(1, 300),
    "impact.n_sub": _ints(9, 30),
    "impact.conditioned_on": st.sampled_from(("none", "0", "1")),
}
assert set(VALUES) == set(KEYS) - {"output.dir"}  # -o decides the output dir
REQUIRED = ("mc.seed",)  # always written, so most runs get past loading
SMALL = {"mc.n_samples": "10000", "grid.n": "41", "mc.n_paths": "200"}  # unless drawn


def _read_by_kind(good: dict) -> dict:
    """The in-range keys less the family.* ones that the drawn family.kind does not read,
    which would end every run at load."""
    read = ("family_kind", *FAMILY_PARAMS[good.get("family.kind", RunConfig.family_kind)])
    return {k: v for k, v in good.items() if not k.startswith("family.") or KEYS[k][0] in read}


# Up to two keys get a value of the wrong kind, at an edge or beyond every range.
MALFORMED = st.sampled_from(("-1", "0", "5", "nan", "inf", "-inf", "1e300", "1e-300",
                             "1e-308", "18446744073709551616", "x", "", "1.5", "1; 2",
                             "0, 0, 0"))
CONFIGS = st.builds(
    lambda good, bad: {**_read_by_kind(good), **bad},
    st.fixed_dictionaries({key: VALUES[key] for key in REQUIRED},
                          optional={k: v for k, v in VALUES.items() if k not in REQUIRED}),
    st.dictionaries(st.sampled_from(sorted(VALUES)), MALFORMED, max_size=2),
)

COMMANDS = st.sampled_from((
    ["solve"], ["simulate", "--paths", "2"], ["simulate", "--signal", "1"], ["impact"],
    ["efficiency"], ["options"], ["options", "--signal", "2"], ["verify-foc"],
    ["kernel", "dump"], ["posterior", "probe", "--alpha-bar", "0.7"],
    ["posterior", "probe", "--alpha-bar", "1e200"], ["solve", "--seed", "-1"],
))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS, command=COMMANDS)
# defects this property found, kept as fixed examples
@example(config={"mc.seed": "-1"}, command=["impact"])
@example(config={"mc.seed": "18446744073709551617"}, command=["solve"])
@example(config={"mc.seed": "0", "noise.level": "1e-200", "family.means": "0, 0, 0"},
         command=["solve"])
@example(config={"mc.seed": "0", "grid.n": "18446744073709551616"}, command=["kernel", "dump"])
# configs that printed a numpy RuntimeWarning before their error line
@example(config={"mc.seed": "0", "grid.x_max": "1e300"}, command=["solve"])
@example(config={"mc.seed": "0", "family.sd": "1e-300"}, command=["solve"])
@example(config={"mc.seed": "0", "noise.slope": "inf"}, command=["solve"])
@example(config={"mc.seed": "0", "grid.x_max": "1e300", "noise.slope": "1e300"}, command=["solve"])
@example(config={"mc.seed": "0", "grid.x_min": "-1e308", "grid.x_max": "1e308"}, command=["solve"])
@example(config={"mc.seed": "0", "family.kind": "gaussian_variance", "family.mu": "nan"},
         command=["solve"])
@example(config={"mc.seed": "0", "family.sd": "1e-308"}, command=["solve"])
@example(config={"mc.seed": "0", "family.sd": "1e-310"}, command=["solve"])
def test_random_configs_end_in_an_exit_status_not_a_traceback(config, command):
    config = {**SMALL, **config}
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning is a stderr line in a real run
            code = main(command + ["-c", cfg, "-o", os.path.join(tmp, "out")])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue(), text
    if code == 2:
        # the whole of stderr is one error line, with no warning before it
        stderr = [str(w.message) for w in caught] + err.getvalue().splitlines()
        assert len(stderr) == 1 and stderr[0].startswith("error: adkyle."), (text, stderr)
