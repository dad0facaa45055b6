"""Acceptance suite: every exit criterion at its pinned tolerance.

Each criterion is one test that prints a PASS line on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The statistical
suites run once (session fixtures) through the same entry points the CLI
uses, at the full pinned grids and trial counts.
"""

import csv

import pytest

from enttest.cli import main as cli_main
from enttest.experiments import ExperimentSpec, run_experiment


def _read_rows(out_dir):
    with open(f"{out_dir}/results.csv") as fh:
        return list(csv.DictReader(fh))


def _by_family(rows):
    return {r["instance_family"]: r for r in rows}


@pytest.fixture(scope="session")
def oracle_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle")
    code = cli_main(["oracle", "--check", "--out", str(out)])
    return code, _read_rows(out)


@pytest.fixture(scope="session")
def grid_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    code = cli_main(["grid", "--check", "--out", str(out)])
    return code, _read_rows(out)


@pytest.fixture(scope="session")
def scaling_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("scaling")
    code = cli_main(["scaling", "--check", "--out", str(out)])
    return code, _read_rows(out)


@pytest.fixture(scope="session")
def bayesnet_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bayesnet")
    code = cli_main(["bayesnet", "--check", "--out", str(out)])
    return code, _read_rows(out)


def test_criterion_1_deterministic_oracles(oracle_out):
    """Divergence identities, inequality chain, mass-floor drift,
    decomposition at the frozen constant, pinned cross-entropy values."""
    _, rows = oracle_out
    fam = _by_family(rows)
    assert float(fam["divergence-chain+decomposition"]["accept_rate"]) == 1.0
    drift = fam["mass-floor-entropy-drift"]
    assert float(drift["accept_rate"]) == 1.0  # drift <= 2 eps, the lemma bound
    assert float(drift["mean_samples"]) <= 2.0  # worst drift/eps ratio
    assert float(fam["lambda-pinned-example"]["accept_rate"]) == 1.0
    print("PASS criterion 1: deterministic oracle suite "
          f"(worst drift/eps = {float(drift['mean_samples']):.3f})")


def test_criterion_2_poisson_machinery(oracle_out):
    """Factorial-moment identity at the pinned (lambda, order) grid with
    10^6 trials and |lhs-rhs| <= 3 stderr; E[T] closed form vs Monte
    Carlo within 4 stderr on 20 random triples."""
    _, rows = oracle_out
    fam = _by_family(rows)
    fm = fam["factorial-moment-identity"]
    assert float(fm["accept_rate"]) == 1.0
    assert float(fm["mean_samples"]) <= 3.0  # worst z-score across the grid
    et = fam["expected-T-closed-form"]
    assert float(et["accept_rate"]) == 1.0
    assert float(et["mean_samples"]) <= 4.0
    print("PASS criterion 2: Poisson machinery "
          f"(worst factorial-moment z = {float(fm['mean_samples']):.2f}, "
          f"worst E[T] z = {float(et['mean_samples']):.2f})")


def test_criterion_3_bias_bound(oracle_out):
    """Deterministic bias bound for Z on >= 50 random instances: zero
    violations against the truncated-series oracle."""
    _, rows = oracle_out
    fam = _by_family(rows)
    row = fam["z-bias-bound"]
    assert int(row["trials"]) >= 50
    assert float(row["accept_rate"]) == 1.0
    assert float(row["mean_samples"]) <= 1e-12  # worst excess over the bound
    print(f"PASS criterion 3: bias bound on {row['trials']} instances, zero violations")


def test_criterion_4_variance_bound(oracle_out):
    """Empirical Var[Z] over 1e5 replications <= 16 (log^2 m ||p-q||_2^2
    + log^2 m / m) on 20 random instances: zero violations."""
    _, rows = oracle_out
    fam = _by_family(rows)
    row = fam["z-variance-bound"]
    assert int(row["trials"]) == 20
    assert float(row["accept_rate"]) == 1.0
    assert float(row["mean_samples"]) <= 1.0  # worst variance/bound ratio
    print(f"PASS criterion 4: variance bound, worst ratio {float(row['mean_samples']):.3f}")


def test_criterion_5_eet_error_rates(grid_out):
    """Cascade on the pinned grid, 200 trials/cell: null accept >= 0.85,
    far (entropy-gap and MI instances) reject >= 0.85."""
    code, rows = grid_out
    assert code == 0
    cells = [r for r in rows if r["kind"] == "error_grid"]
    assert len(cells) == 3 * 2 * 5
    for r in cells:
        assert int(r["trials"]) == 200
        if r["instance_family"].startswith("null"):
            assert float(r["accept_rate"]) >= 0.85, r
        else:
            assert float(r["reject_rate"]) >= 0.85, r
    worst_null = min(float(r["accept_rate"]) for r in cells if "null" in r["instance_family"])
    worst_far = min(float(r["reject_rate"]) for r in cells if "far" in r["instance_family"])
    print(f"PASS criterion 5: grid 200 trials/cell (worst null accept {worst_null:.3f}, "
          f"worst far reject {worst_far:.3f})")


def test_criterion_6_scaling_exponent(scaling_out):
    """Log-log regression of the combined tester's calibrated budget over
    n in {2^10..2^16} at eps = 0.3: slope in [0.60, 0.90]; branch choice
    matches the closed-form comparison on every cell; error rates hold."""
    code, rows = scaling_out
    assert code == 0
    slope_rows = [r for r in rows if r["instance_family"] == "regression:slope"]
    assert len(slope_rows) == 1
    slope = float(slope_rows[0]["mean_samples"])
    assert 0.60 <= slope <= 0.90
    budgets = [r for r in rows if r["instance_family"] == "budget:nominal"]
    assert len(budgets) == 7
    print(f"PASS criterion 6: scaling slope {slope:.4f} in [0.60, 0.90], "
          "branch choices consistent")


def test_criterion_7_bayesnet_suite(bayesnet_out):
    """n=8, d=2, eps=0.3, 50 trials: identical nets accept >= 0.8,
    certified-far nets reject >= 0.8; atom floor, telescoping identity
    (1e-9), and mixture-KL drift (<= 8 eps^2) hold exactly."""
    code, rows = bayesnet_out
    assert code == 0
    fam = _by_family(rows)
    assert int(fam["bn-null"]["trials"]) == 50
    assert float(fam["bn-null"]["accept_rate"]) >= 0.8
    assert float(fam["bn-far"]["reject_rate"]) >= 0.8
    assert float(fam["bn-id-null"]["accept_rate"]) >= 0.8
    assert float(fam["bn-id-far"]["reject_rate"]) >= 0.8
    assert float(fam["exact:atom-floor"]["accept_rate"]) == 1.0
    assert float(fam["exact:telescoping"]["accept_rate"]) == 1.0
    assert float(fam["exact:telescoping"]["mean_samples"]) <= 1e-9
    assert float(fam["exact:mixture-kl-drift"]["accept_rate"]) == 1.0
    print("PASS criterion 7: Bayes-net suite "
          f"(closeness {fam['bn-null']['accept_rate']}/{fam['bn-far']['reject_rate']}, "
          f"identity {fam['bn-id-null']['accept_rate']}/{fam['bn-id-far']['reject_rate']}, "
          f"telescoping {float(fam['exact:telescoping']['mean_samples']):.2e})")


def test_criterion_8_reduction_sanity(oracle_out):
    """MI-reduction streams: product joint accepted >= 0.85, perfectly
    correlated pair (gap log 2) rejected >= 0.85 at eps = 0.3."""
    code, rows = oracle_out
    assert code == 0
    fam = _by_family(rows)
    prod = fam["mi-product"]
    corr = fam["mi-correlated"]
    assert int(prod["trials"]) == 200
    assert float(prod["accept_rate"]) >= 0.85
    assert float(corr["reject_rate"]) >= 0.85
    print(f"PASS criterion 8: reduction sanity (product accept {prod['accept_rate']}, "
          f"correlated reject {corr['reject_rate']})")


def test_criterion_9_reproducibility(tmp_path):
    """Reruns with one master seed are byte-identical; 1-worker and
    8-worker runs agree exactly."""
    def spec_for(out):
        return ExperimentSpec(kind="error_grid", n_values=[1024], eps_values=[0.3],
                              trials=30, seed=314159, out_dir=str(out))

    assert run_experiment(spec_for(tmp_path / "a"), workers=1) == 0
    assert run_experiment(spec_for(tmp_path / "b"), workers=1) == 0
    assert run_experiment(spec_for(tmp_path / "c"), workers=8) == 0
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    c = (tmp_path / "c" / "results.csv").read_bytes()
    assert a == b, "rerun with the same master seed must be byte-identical"
    assert a == c, "1-worker and 8-worker runs must agree exactly"
    print("PASS criterion 9: byte-identical reruns and worker-count invariance")
