"""The three benchmark workloads, as suite specs generated from a seed.

A workload is a list of suite executions.  Each execution is one
``experiments.run_experiment`` call on a generated ``ExperimentSpec``; the
program under test receives nothing but that spec.  The grids are the
pinned suite grids (``experiments.default_spec``); only the master seed,
the trials per cell and the worker count are set here.  Why each workload
exists is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# Rows of results.csv that are tester decisions, per suite kind; the other
# rows (nominal budgets, the slope fit, exact checks) carry no
# sample cost.
DECISION_FAMILIES = {
    "error_grid": ("null:uniform", "null:zipf", "null:dense", "far:entropy-gap", "far:mi"),
    "scaling": ("null:uniform", "far:entropy-gap"),
    "bayesnet": ("bn-null", "bn-far", "bn-id-null", "bn-id-far"),
}

_COMMAND = {"error_grid": "grid", "scaling": "scaling", "bayesnet": "bayesnet"}


@dataclass(frozen=True)
class Execution:
    """One suite run: a spec (as the JSON the CLI reads) and a worker count.

    ``main`` executions make up ``wall_s``; the others are the 1-worker
    baseline of the same problem (``wall_s.w1``).
    """

    label: str
    spec: dict
    workers: int
    main: bool = True

    @property
    def kind(self) -> str:
        return self.spec["kind"]

    @property
    def command(self) -> str:
        return _COMMAND[self.kind]


def _spec(kind, seed, trials, n_values=(), eps_values=(), d_values=()):
    return {
        "kind": kind,
        "n_values": list(n_values),
        "eps_values": list(eps_values),
        "d_values": list(d_values),
        "trials": trials,
        "seed": seed,
    }


def grid(seed):
    spec = _spec("error_grid", seed, 40, [2**10, 2**12, 2**14], [0.2, 0.4])
    return [Execution("w1", spec, 1)]


def scaling(seed):
    spec = _spec("scaling", seed, 100, [2**k for k in range(10, 17)], [0.3])
    return [Execution("w2", spec, 2), Execution("w1", spec, 1, main=False)]


def bayesnet(seed):
    return [
        Execution("n8", _spec("bayesnet", seed, 20, [8], [0.3], [2]), 1),
        Execution("n12", _spec("bayesnet", seed, 5, [12], [0.3], [2]), 1),
    ]


WORKLOADS = {"grid": grid, "scaling": scaling, "bayesnet": bayesnet}


def executions(workload: str, seed: int) -> list[Execution]:
    return WORKLOADS[workload](int(seed))
