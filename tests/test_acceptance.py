"""Acceptance gate: the nine headline checks at their stated tolerances.

Each test prints a single PASS/FAIL line with its headline statistic and
measured runtime, appends it to acceptance.log at the repository root, then
asserts the stated tolerance and budget.
"""

import time
from pathlib import Path

import numpy as np

from klab.geometry import ModelDomain, PartitionOfUnity
from klab.norms import SpaceParams
from klab.testfns import make_test_function
from klab.verify import (check_counterexample_divergence, check_dual_route,
                         check_embedding_ratio, check_localization,
                         check_norm_equivalence_Kmm,
                         check_classification_grid,
                         check_partition_diagnostics,
                         check_scaling_homogeneity, check_truth_table,
                         default_family, standard_cover)


# every run appends its CRITERION lines here, outside pytest's capture
ACCEPTANCE_LOG = Path(__file__).resolve().parent.parent / "acceptance.log"


def report(n, ok, detail, seconds, budget):
    status = "PASS" if ok else "FAIL"
    line = (f"CRITERION {n}: {status} — {detail} "
            f"[{seconds:.1f}s / budget {budget:.0f}s]")
    print(line)
    with open(ACCEPTANCE_LOG, "a", encoding="utf-8") as log:
        log.write(line + "\n")


def test_criterion_1_decision_truth_table():
    t0 = time.perf_counter()
    out = check_truth_table(n=200)
    dt = time.perf_counter() - t0
    ok = out["passed"] and dt < 1.0
    report(1, ok, f"{out['tuples']} tuples, "
           f"{len(out['mismatches'])} mismatches", dt, 1)
    assert out["passed"]
    assert dt < 1.0


def test_criterion_2_norm_equivalence_with_quadrature_doubling():
    t0 = time.perf_counter()
    dom = ModelDomain(2, 0)
    cover = standard_cover(dom, radius=2, j_max=12)
    fam = default_family(dom)
    r8 = check_norm_equivalence_Kmm(fam, 1, 2.0, dom, cover,
                                    nodes_per_dim=8)
    r16 = check_norm_equivalence_Kmm(fam, 1, 2.0, dom, cover,
                                     nodes_per_dim=16)
    dt = time.perf_counter() - t0
    change = abs(r16.spread - r8.spread) / r8.spread
    ok = (r8.passed and len(r8.ratios) >= 10 and r8.spread < 50
          and change < 0.10 and dt < 300)
    report(2, ok, f"{len(r8.ratios)} members, spread {r8.spread:.2f}, "
           f"doubling change {100 * change:.2f}%", dt, 300)
    assert len(r8.ratios) >= 10
    assert r8.spread < 50
    assert change < 0.10
    assert dt < 300


def test_criterion_3_localization():
    t0 = time.perf_counter()
    dom = ModelDomain(2, 0)
    cover = standard_cover(dom, radius=2, j_max=8)
    pou = PartitionOfUnity(cover)
    fam = default_family(dom)
    r = check_localization(fam, 1, 0.5, 2.0, cover, pou)
    dt = time.perf_counter() - t0
    ok = r.passed and r.spread < 50 and dt < 600
    report(3, ok, f"{len(r.ratios)} members, spread {r.spread:.2f}", dt, 600)
    assert r.spread < 50
    assert dt < 600


def test_criterion_4_sharpness_divergence():
    t0 = time.perf_counter()
    r = check_counterexample_divergence(m=1, a=0.0, p=2.0, tau=1.0, d=2,
                                        delta=0, lam=-0.7)
    dt = time.perf_counter() - t0
    ok = r.passed and dt < 60
    report(4, ok, f"fitted exponent {r.fitted_exponent:.4f} "
           f"(predicted {r.predicted_exponent:.4f}), "
           f"K-ladder Cauchy: {r.kondratiev_cauchy}", dt, 60)
    assert abs(r.fitted_exponent - r.predicted_exponent) <= 0.05
    assert r.kondratiev_cauchy
    assert dt < 60


def test_criterion_5_embedding_positive_direction():
    t0 = time.perf_counter()
    dom = ModelDomain(2, 0)
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    fam = default_family(dom, betas=(1.2, 1.5, 2.0), lambdas=(0.0,))
    cover = standard_cover(dom, radius=2, j_max=12)
    r = check_embedding_ratio(params, fam, cover=cover, J=10)
    dt = time.perf_counter() - t0
    tails = r.notes.get("tailShares", [])
    ok = (r.passed and len(r.ratios) == 3
          and all(np.isfinite(r.ratios))
          and all(t < 0.10 for t in tails) and dt < 1800)
    report(5, ok, f"ratios {[round(x, 3) for x in r.ratios]}, "
           f"max tail share {max(tails):.2e}", dt, 1800)
    assert len(r.ratios) == 3
    assert all(np.isfinite(r.ratios))
    assert all(t < 0.10 for t in tails)
    assert "CRITICAL" not in r.notes
    assert dt < 1800


def test_criterion_6_scaling_identity():
    t0 = time.perf_counter()
    errs = []
    for m, p, d, k in ((1, 2, 2, 3), (2, 2, 2, 2)):
        dom = ModelDomain(d, 0)
        u = make_test_function(2.5, 0.0, 1.0, dom)
        cover = standard_cover(dom, radius=2, j_max=10)
        out = check_scaling_homogeneity(u, m, p, k, cover=cover)
        errs.append(out["relativeError"])
    dt = time.perf_counter() - t0
    ok = all(e <= 1e-10 for e in errs) and dt < 60
    report(6, ok, f"relative errors {errs}", dt, 60)
    assert all(e <= 1e-10 for e in errs)
    assert dt < 60


def test_criterion_7_geometry_invariants():
    t0 = time.perf_counter()
    results = {}
    for d, ell in ((2, 0), (3, 1)):
        results[ell] = check_partition_diagnostics(ModelDomain(d, ell))
    dt = time.perf_counter() - t0
    ok = all(v["passed"] for v in results.values()) and dt < 60
    report(7, ok, "; ".join(
        f"ell={ell}: sum err {v['partitionSumError']:.1e}, certs "
        f"{v['certificatesExact']}, growth {[round(g, 2) for g in v['growthRates']]}"
        for ell, v in results.items()), dt, 60)
    for ell, v in results.items():
        assert v["partitionSumError"] <= 1e-10
        assert v["certificatesExact"]
        assert all(abs(g - ell) <= 0.2 for g in v["growthRates"])
    assert dt < 60


def test_criterion_8_membership_vs_quadrature():
    t0 = time.perf_counter()
    out = check_classification_grid()
    dt = time.perf_counter() - t0
    n_div = sum(1 for c in out["cells"] if not c["oracleMember"])
    ok = out["passed"] and dt < 300
    report(8, ok, f"25 cells ({n_div} divergent), all agree: "
           f"{out['passed']}", dt, 300)
    assert out["passed"]
    assert n_div > 0
    assert dt < 300


def test_criterion_9_wavelet_route_consistency():
    t0 = time.perf_counter()
    r = check_dual_route()
    dt = time.perf_counter() - t0
    parseval = r.notes["parsevalRelativeError"]
    ok = r.passed and r.spread < 100 and parseval < 0.01 and dt < 900
    report(9, ok, f"{len(r.ratios)} members, spread {r.spread:.2f}, "
           f"Parseval error {parseval:.2e}", dt, 900)
    assert r.spread < 100
    assert parseval < 0.01
    assert dt < 900
