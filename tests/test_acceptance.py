"""Acceptance gate: the nine headline checks at their stated tolerances.

Each test runs its criterion's `klab.verify.EXPERIMENTS` entry, the one that
`klab verify NAME` runs, prints a single PASS/FAIL line with its headline
statistic and runtime, appends it to acceptance.log at the repository root,
then asserts the report's own verdict, the stated tolerance and budget.
"""

import time
from pathlib import Path

import numpy as np

from klab.verify import EXPERIMENTS


# every run appends its CRITERION lines here, outside pytest's capture
ACCEPTANCE_LOG = Path(__file__).resolve().parent.parent / "acceptance.log"


def run(name):
    """The registry entry's report and its wall time."""
    t0 = time.perf_counter()
    r = EXPERIMENTS[name]()
    return r, time.perf_counter() - t0


def report(n, ok, detail, seconds, budget):
    status = "PASS" if ok else "FAIL"
    line = (f"CRITERION {n}: {status} — {detail} "
            f"[{seconds:.1f}s / budget {budget:.0f}s]")
    print(line)
    with open(ACCEPTANCE_LOG, "a", encoding="utf-8") as log:
        log.write(line + "\n")


def test_criterion_1_decision_truth_table():
    r, dt = run("truth-table")
    out = r.result
    ok = out["passed"] and dt < 1.0
    report(1, ok, f"{out['tuples']} tuples, "
           f"{len(out['mismatches'])} mismatches", dt, 1)
    assert out["passed"]
    assert dt < 1.0


def test_criterion_2_norm_equivalence_with_quadrature_doubling():
    r, dt = run("norm-equivalence")
    change = r.notes["doublingChange"]
    ok = (r.passed and len(r.ratios) >= 10 and r.spread < 50
          and change < 0.10 and dt < 300)
    report(2, ok, f"{len(r.ratios)} members, spread {r.spread:.2f}, "
           f"doubling change {100 * change:.2f}%", dt, 300)
    assert r.passed
    assert len(r.ratios) >= 10
    assert r.spread < 50
    assert change < 0.10
    assert dt < 300


def test_criterion_3_localization():
    r, dt = run("localization")
    ok = r.passed and r.spread < 50 and dt < 600
    report(3, ok, f"{len(r.ratios)} members, spread {r.spread:.2f}", dt, 600)
    assert r.passed
    assert r.spread < 50
    assert dt < 600


def test_criterion_4_sharpness_divergence():
    r, dt = run("divergence")
    ok = r.passed and dt < 60
    report(4, ok, f"fitted exponent {r.fitted_exponent:.4f} "
           f"(predicted {r.predicted_exponent:.4f}), "
           f"K-ladder Cauchy: {r.kondratiev_cauchy}", dt, 60)
    assert r.passed
    assert abs(r.fitted_exponent - r.predicted_exponent) <= 0.05
    assert r.kondratiev_cauchy
    assert dt < 60


def test_criterion_5_embedding_positive_direction():
    r, dt = run("embedding-ratio")
    tails = r.notes.get("tailShares", [])
    ok = (r.passed and len(r.ratios) == 3
          and all(np.isfinite(r.ratios))
          and all(t < 0.10 for t in tails) and dt < 1800)
    report(5, ok, f"ratios {[round(x, 3) for x in r.ratios]}, "
           f"max tail share {max(tails):.2e}", dt, 1800)
    assert r.passed
    assert len(r.ratios) == 3
    assert all(np.isfinite(r.ratios))
    assert all(t < 0.10 for t in tails)
    assert "CRITICAL" not in r.notes
    assert dt < 1800


def test_criterion_6_scaling_identity():
    r, dt = run("scaling")
    errs = [c["relativeError"] for c in r.result["cases"]]
    ok = all(e <= 1e-10 for e in errs) and dt < 60
    report(6, ok, f"relative errors {errs}", dt, 60)
    assert r.passed
    assert len(errs) == 2
    assert all(e <= 1e-10 for e in errs)
    assert dt < 60


def test_criterion_7_geometry_invariants():
    r, dt = run("geometry")
    results = {v["ell"]: v for v in r.result["domains"]}
    ok = all(v["passed"] for v in results.values()) and dt < 60
    report(7, ok, "; ".join(
        f"ell={ell}: sum err {v['partitionSumError']:.1e}, certs "
        f"{v['certificatesExact']}, growth {[round(g, 2) for g in v['growthRates']]}"
        for ell, v in results.items()), dt, 60)
    assert r.passed
    assert set(results) == {0, 1}
    for ell, v in results.items():
        assert v["partitionSumError"] <= 1e-10
        assert v["certificatesExact"]
        # level 0 holds cubes, so its own certificate is checked too
        assert v["levelCounts"].get(0, 0) > 0
        assert all(abs(g - ell) <= 0.2 for g in v["growthRates"])
    assert dt < 60


def test_criterion_8_membership_vs_quadrature():
    r, dt = run("classification-grid")
    out = r.result
    n_div = sum(1 for c in out["cells"] if not c["oracleMember"])
    ok = out["passed"] and dt < 300
    report(8, ok, f"{len(out['cells'])} cells ({n_div} divergent), "
           f"all agree: {out['passed']}", dt, 300)
    assert out["passed"]
    assert n_div > 0
    assert dt < 300


def test_criterion_9_wavelet_route_consistency():
    r, dt = run("dual-route")
    parseval = r.notes["parsevalRelativeError"]
    ok = r.passed and r.spread < 100 and parseval < 0.01 and dt < 900
    report(9, ok, f"{len(r.ratios)} members, spread {r.spread:.2f}, "
           f"Parseval error {parseval:.2e}", dt, 900)
    assert r.passed
    assert r.spread < 100
    assert parseval < 0.01
    assert dt < 900
