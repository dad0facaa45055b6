"""Every tiny spec either runs or fails with one ``error:`` line.

Hypothesis draws small specs of the ``grid``, ``scaling``, ``bayesnet`` and
``calibrate`` kinds, with values inside the validator's ranges and just
outside them, and runs each through ``enttest.cli.main``.  The oracle suite
is left out: it ignores the spec's grids and takes seconds at one trial.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enttest.bayesnet import EXACT_GUARD
from enttest.cli import main as cli_main


def _mostly(valid, outside):
    """Seven draws in eight from ``valid``, the rest from ``outside``."""
    return st.integers(0, 7).flatmap(lambda i: outside if i == 0 else valid)


def _eps(top):
    # 1e-7 and 1e-300 lie in the validator's range, but their budgets do
    # not fit numpy's draws
    edges = [0.0, -0.1, 1e-300, 1e-7, math.nextafter(top, 2.0), 1.0 + top]
    return _mostly(st.floats(min_value=0.0, max_value=top, exclude_min=True), st.sampled_from(edges))


_TRIALS = _mostly(st.integers(1, 2), st.just(0))
# far:mi and calibrate's far families need an even domain size
_EVEN_N = _mostly(st.integers(1, 32).map(lambda k: 2 * k), st.sampled_from([0, -1, 63]))


@st.composite
def _bayesnet(draw):
    # n <= 8 keeps a trial within milliseconds; EXACT_GUARD + 1 is refused
    n = draw(_mostly(st.integers(2, 8), st.sampled_from([0, 1, EXACT_GUARD + 1])))
    d = draw(_mostly(st.integers(1, max(n - 1, 1)), st.sampled_from([0, n])))
    return {"kind": "bayesnet", "n_values": [n], "eps_values": [draw(_eps(1.0))], "d_values": [d]}


_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("error_grid"), "n_values": st.lists(_EVEN_N, min_size=1, max_size=2),
                           "eps_values": st.lists(_eps(0.5), min_size=1, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("scaling"), "n_values": st.lists(_EVEN_N, min_size=2, max_size=3),
                           "eps_values": st.lists(_eps(0.5), min_size=1, max_size=1)}),
    _bayesnet(),
    # calibrate falls back to n in {1000, 10000} and eps 0.1
    st.fixed_dictionaries({"kind": st.just("calibrate"), "n_values": st.lists(_EVEN_N, max_size=2),
                           "eps_values": st.lists(_eps(1.0), max_size=1)}),
)

_COMMAND = {"error_grid": "grid", "scaling": "scaling", "bayesnet": "bayesnet", "calibrate": "calibrate"}


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=_SPECS, trials=_TRIALS, check=st.booleans())
def test_spec_runs_or_fails_with_one_error_line(spec, trials, check):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(dict(spec, trials=trials, seed=3, out_dir=out), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([_COMMAND[spec["kind"]], "--spec", path, "--workers", "1"] + ["--check"] * check)
        wrote = os.path.exists(os.path.join(out, "results.csv"))
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not wrote
    else:
        assert code in ((0, 2) if check else (0,)) and wrote
