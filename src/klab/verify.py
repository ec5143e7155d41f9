"""Experiment harness: each theorem becomes a falsifiable numerical check.

All experiments are deterministic given (cover constants, quadrature order,
family); reports carry the data needed to re-audit the decision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import check_params, compare
from .errors import EmptyFamily, InvalidParams
from .geometry import (C0_LEVEL0, PSI_FLOOR, ModelDomain, PartitionOfUnity,
                       whitney_cover)
from .profiles import WINDOW
from . import norms
from .norms import (SpaceParams, cover_norms, kondratiev_piece_power,
                    kondratiev_terms, multiply_by_rho_power,
                    radial_reference_integral, rloc_weighted_terms,
                    sharp_terms, sobolev_terms, weighted_lp_terms,
                    FINITE)
from .testfns import (Sample, classify_radial_exponent,
                      f_space_membership_radial, kondratiev_membership,
                      make_test_function)

SPREAD_SAME_INTEGRABILITY = 50.0
SPREAD_CROSS_INTEGRABILITY = 100.0
DEFAULT_BETAS = (0.2, 0.5, 0.8, 1.2, 1.6, 2.0, 2.5)
DEFAULT_LAMBDAS = (0.0, -0.7)
FAMILY_R = 1.0             # cutoff radius R of the test functions
DIVERGENCE_K = range(4, 17)    # the divergence ladder's eps = 2^-k
SCALING_TOL = 1e-10        # relative error bound of the dilation identity
DOUBLING_TOL = 0.10        # relative spread change from 8 to 16 nodes


# ---------------------------------------------------------------------------
# Report types
#
# Every experiment returns a report with `passed`, `to_json()` and
# `csv_rows()` (a header, then one row per record).  `recompute(rows)` takes
# the stored CSV back as dicts of strings and returns statistics that must
# equal the same keys of `to_json()`; `klab report` checks that they do.
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    family: list                       # descriptors of included members
    numerator_kind: str
    denominator_kind: str
    ratios: list
    spread: float
    passed: bool
    spread_bound: float
    excluded: list = field(default_factory=list)   # (descriptor, reason)
    notes: dict = field(default_factory=dict)

    def to_json(self):
        return {"family": self.family,
                "numeratorKind": self.numerator_kind,
                "denominatorKind": self.denominator_kind,
                "ratios": self.ratios, "spread": self.spread,
                "spreadBound": self.spread_bound, "passed": self.passed,
                "excluded": self.excluded, "notes": self.notes}

    def csv_rows(self):
        yield ("beta", "lambda", "R", "numerator_kind", "denominator_kind",
               "ratio")
        for desc, ratio in zip(self.family, self.ratios):
            yield (desc["beta"], desc["lambda"], desc["R"],
                   self.numerator_kind, self.denominator_kind, ratio)

    @staticmethod
    def recompute(rows):
        return {"spread": _spread([float(r["ratio"]) for r in rows])}


@dataclass
class DivergenceReport:
    ladder: list                       # (eps, value)
    fitted_exponent: float
    predicted_exponent: float
    residual: float
    kondratiev_cauchy: bool
    passed: bool
    notes: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)     # the resolved arguments

    def to_json(self):
        return {"ladder": [[e, v] for e, v in self.ladder],
                "fittedExponent": self.fitted_exponent,
                "predictedExponent": self.predicted_exponent,
                "residual": self.residual,
                "kondratievCauchy": self.kondratiev_cauchy,
                "passed": self.passed, "notes": self.notes}

    def csv_rows(self):
        yield ("eps", "value")
        yield from self.ladder

    @staticmethod
    def recompute(rows):
        return {"ladder": [[float(r["eps"]), float(r["value"])]
                           for r in rows]}


@dataclass
class TableReport:
    """A check's result dict with one CSV row per record in `result[KEY]`.

    Subclasses choose KEY, COLUMNS and `row_passed`, the check's pass rule
    for one record, which `recompute` applies to every stored row.
    """

    result: dict
    KEY = None
    COLUMNS = ()

    @property
    def passed(self):
        return self.result["passed"]

    def to_json(self):
        return self.result

    def csv_rows(self):
        yield self.COLUMNS
        for rec in self.result[self.KEY]:
            yield tuple(rec[c] for c in self.COLUMNS)

    @classmethod
    def recompute(cls, rows):
        return {"passed": all(cls.row_passed(r) for r in rows)}


class TruthTableReport(TableReport):
    KEY = "rows"
    COLUMNS = ("m", "a", "p", "tau", "d", "delta", "verdict", "literal")

    @staticmethod
    def row_passed(row):
        return row["verdict"] == row["literal"]


class GridReport(TableReport):
    KEY = "cells"
    COLUMNS = ("beta", "a", "oracleMember", "classification", "agree")

    @staticmethod
    def row_passed(row):
        return (row["classification"] == FINITE) == (
            row["oracleMember"] == "True")


class ScalingReport(TableReport):
    KEY = "cases"
    COLUMNS = ("k", "m", "p", "predictedFactor", "scaledSeminormPower",
               "baseSeminormPower", "relativeError")

    @staticmethod
    def row_passed(row):
        return _scaling_error(float(row["scaledSeminormPower"]),
                              float(row["predictedFactor"]),
                              float(row["baseSeminormPower"])) <= SCALING_TOL


class GeometryReport(TableReport):
    KEY = "domains"
    COLUMNS = ("ell", "partitionSumError", "certificatesExact",
               "growthRates")

    @staticmethod
    def row_passed(row):
        return _partition_passed(float(row["partitionSumError"]),
                                 row["certificatesExact"] == "True",
                                 json.loads(row["growthRates"]),
                                 int(row["ell"]))


@dataclass
class CoverReport:
    """A Whitney cover (`klab whitney`): one CSV row per cube."""

    cover: object
    passed = True

    def to_json(self):
        cover = self.cover
        return {"counts": {str(j): c for j, c in sorted(cover.counts.items())},
                "totalVolume": cover.total_volume(),
                "boxVolume": cover.box_volume(),
                "uncoveredVolume": cover.uncovered_volume}

    def csv_rows(self):
        yield ("level", "k", "dist")
        for j in sorted(self.cover.levels):
            for k, dist in zip(self.cover.levels[j], self.cover.dists[j]):
                yield (j, " ".join(map(str, k)), float(dist))

    @staticmethod
    def recompute(rows):
        counts = {}
        for r in rows:
            counts[r["level"]] = counts.get(r["level"], 0) + 1
        return {"counts": counts}


@dataclass
class SummaryReport:
    """Statistics without a table (`klab norm`)."""

    stats: dict
    passed = True

    def to_json(self):
        return self.stats

    def csv_rows(self):
        return ()


REPORT_TYPES = {cls.__name__: cls for cls in (
    RatioReport, DivergenceReport, TruthTableReport, GridReport,
    ScalingReport, GeometryReport, CoverReport)}


# ---------------------------------------------------------------------------
# Families, covers, wrappers
# ---------------------------------------------------------------------------

def default_family(domain, betas=DEFAULT_BETAS, lambdas=DEFAULT_LAMBDAS):
    return [make_test_function(b, l, FAMILY_R, domain)
            for b in betas for l in lambdas]


def standard_cover(domain, radius, j_max):
    r = int(math.ceil(radius))
    box = ((-r,) * domain.d, (r,) * domain.d)
    return whitney_cover(domain, box, j_max)


def _spread(ratios):
    """max / min of the ratios; inf unless all are finite and positive."""
    if ratios and all(np.isfinite(r) and r > 0 for r in ratios):
        return max(ratios) / min(ratios)
    return float("inf")


def _scaling_error(lhs, factor, rhs):
    """Relative error of the dilation identity lhs = factor * rhs."""
    return abs(lhs - factor * rhs) / (factor * rhs) if rhs else 0.0


def _partition_passed(sum_err, cert_ok, growth, ell):
    """Pass rule of the partition diagnostics: sums of the partition exact
    to 1e-10, exact certificates, level counts growing like 2^(j ell)."""
    return (sum_err <= 1e-10 and cert_ok and bool(growth)
            and all(abs(g - ell) <= 0.2 for g in growth))


class PulledBackFunction:
    """u(A x) for a linear map A (diffeomorphism catalog entries)."""

    def __init__(self, u, matrix):
        self.u = u
        self.matrix = np.asarray(matrix, dtype=float)

    def jet_from_sample(self, sample):
        coords = sample.coords
        ycoords = []
        for i in range(self.matrix.shape[0]):
            acc = coords[0] * self.matrix[i, 0]
            for jj in range(1, self.matrix.shape[1]):
                if self.matrix[i, jj] != 0.0:
                    acc = acc + coords[jj] * self.matrix[i, jj]
            ycoords.append(acc)
        return self.u.jet_from_sample(Sample(ycoords, self.u.domain))


class WindowedFunction:
    """phi_j(x) u(x) with the dyadic annular window phi_j = w(log2(1/|x|)-j).

    The window is a one-variable jet in |x|^2, composed into the
    coordinates by `Sample.radial`.  The windows of one sample share its
    |x|, its log2(1/|x|) and u's jet."""

    def __init__(self, u, j):
        self.u = u
        self.j = j

    def jet_from_sample(self, sample):
        t = sample.shared("log2(1/|x|)", lambda: sample.norm().log()
                          * (-1.0 / math.log(2.0))) - float(self.j)
        w = t.compose(WINDOW.derivs(t.value, t.order))
        return sample.radial(None, w) * self.u.jet_from_sample(sample)


def _norm_values(norms, cover, nodes_per_dim):
    """Values of several norms (term lists) from one pass over the cover."""
    return [nv.value for nv in cover_norms(norms, cover, nodes_per_dim)]


def _filter_family(family, oracle, reason):
    """Members the oracle admits, and the excluded ones with the reason;
    raises EmptyFamily when it admits none."""
    kept, excluded = [], []
    for u in family:
        if oracle(u):
            kept.append(u)
        else:
            excluded.append((u.to_json(), reason))
    if not kept:
        raise EmptyFamily("no admissible family members")
    return kept, excluded


def _in_kondratiev(family, m, a, p, space="K^m_{a,p}"):
    """_filter_family by the exponent oracle of K^m_{a,p}."""
    return _filter_family(
        family, lambda u: kondratiev_membership(u, m, a, p).member,
        f"not in {space} by the exponent oracle")


def _in_f_space(family, m, tau, domain, space):
    """_filter_family by the radial rule of F^m_{tau,2} on the domain."""
    return _filter_family(
        family,
        lambda u: f_space_membership_radial(u.beta, max(u.lam, 0.0),
                                            float(m), tau, domain.ell,
                                            domain.d).member,
        f"not in {space} by the radial rule")


def _sequence_norms(family, m, tau, J):
    """The wavelet route: the system of smoothness m, the box from the
    members' R, and f_sequence_norm of each member's level-J transform.

    The wavelet functions are looked up on the module at call time, so
    that wrappers set on klab.wavelets see every call.
    """
    from . import wavelets
    system = wavelets.build_wavelet_system(m)
    half = max(int(math.ceil(2 * max(u.R for u in family))), 1)
    d = family[0].domain.d
    box = ((-float(half),) * d, (float(half),) * d)
    seqs = []
    # a loop, not one nested comprehension: freeing each grid before the
    # next transform lowers the peak memory, but measured slower, with
    # more page faults and system time
    for u in family:
        grid = wavelets.wavelet_coefficients(u, system, J, box)
        seqs.append(wavelets.f_sequence_norm(grid, s=float(m), tau=tau))
    return system, box, seqs


def _ratio_report(kept, excluded, num_kind, den_kind, pairs, bound,
                  notes=None):
    ratios = [n / d for n, d in pairs]
    spread = _spread(ratios)
    return RatioReport(family=[u.to_json() for u in kept],
                       numerator_kind=num_kind, denominator_kind=den_kind,
                       ratios=ratios, spread=spread,
                       passed=bool(spread < bound), spread_bound=bound,
                       excluded=excluded, notes=notes or {})


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def check_norm_equivalence_Kmm(family, m, p, domain, cover,
                               nodes_per_dim=norms.DEFAULT_NODES):
    """K^m_{m,p} vs the weighted refined-localization norm (same space)."""
    kept, excluded = _in_kondratiev(family, m, m, p, "K^m_{m,p}")
    params = SpaceParams(m=m, a=m, p=p, d=domain.d, ell=domain.ell, tau=p)
    pairs = [_norm_values([kondratiev_terms(u, params),
                           rloc_weighted_terms(u, params)],
                          cover, nodes_per_dim) for u in kept]
    return _ratio_report(kept, excluded, "kondratiev(a=m)", "rloc_weighted",
                         pairs, SPREAD_SAME_INTEGRABILITY)


def check_sharp_norm(family, m, a, p, domain, cover,
                     nodes_per_dim=norms.DEFAULT_NODES):
    """Two-term sharp norm vs the full Kondratiev norm."""
    kept, excluded = _in_kondratiev(family, m, a, p)
    params = SpaceParams(m=m, a=a, p=p, d=domain.d, ell=domain.ell)
    pairs = [_norm_values([sharp_terms(u, params), kondratiev_terms(u, params)],
                          cover, nodes_per_dim) for u in kept]
    return _ratio_report(kept, excluded, "kondratiev_sharp", "kondratiev",
                         pairs, SPREAD_SAME_INTEGRABILITY)


def check_localization(family, m, a, p, cover, pou,
                       nodes_per_dim=norms.DEFAULT_NODES):
    """Global Kondratiev p-power vs the sum over Whitney pieces.

    The global sides of all members come from one pass over the cover; the
    local side is sum_{j,k} ||phi_{j,k} u | K^m_{a,p}||^p, one
    kondratiev_piece_power call per non-empty level of the cover.
    """
    domain = cover.domain
    kept, excluded = _in_kondratiev(family, m, a, p)
    params = SpaceParams(m=m, a=a, p=p, d=domain.d, ell=domain.ell)
    globs = _norm_values([kondratiev_terms(u, params) for u in kept], cover,
                         nodes_per_dim)
    pairs = []
    for u, glob in zip(kept, globs):
        local = sum(kondratiev_piece_power(u, pou, j, ks, m, a, p,
                                           nodes_per_dim)
                    for j, ks in sorted(cover.levels.items()) if len(ks))
        pairs.append((glob ** p, local))
    return _ratio_report(kept, excluded, "kondratiev^p",
                         "sum of piece powers", pairs,
                         SPREAD_SAME_INTEGRABILITY)


def check_rho_power_isomorphism(family, m, a, a2, p, domain, cover,
                                nodes_per_dim=norms.DEFAULT_NODES):
    """The multiplication map u -> rho^{a2-a} u between weight classes."""
    kept, excluded = _in_kondratiev(family, m, a, p)
    pin = SpaceParams(m=m, a=a, p=p, d=domain.d, ell=domain.ell)
    pout = SpaceParams(m=m, a=a2, p=p, d=domain.d, ell=domain.ell)
    pairs = [_norm_values([kondratiev_terms(multiply_by_rho_power(u, a2 - a),
                                            pout),
                           kondratiev_terms(u, pin)], cover, nodes_per_dim)
             for u in kept]
    return _ratio_report(kept, excluded, f"kondratiev(a={a2}) after rho^g",
                         f"kondratiev(a={a})", pairs,
                         SPREAD_SAME_INTEGRABILITY)


def check_embedding_ratio(params, family, cover, J=10,
                          nodes_per_dim=norms.DEFAULT_NODES):
    """Embedding K^m_{a,p} -> F^{m,rloc}_{tau,2}: ratio boundedness.

    The numerator uses the weighted form; its smoothness term routes through
    W^m_tau for tau > 1 and through the wavelet sequence norm for tau <= 1.
    A divergent numerator under a Holds verdict is a critical failure.
    """
    from .embeddings import decide_embedding, HOLDS
    if not family:
        raise EmptyFamily("empty test family")
    domain = family[0].domain
    if (params.d, params.ell) != (domain.d, domain.ell):
        raise InvalidParams(f"params give (d, ell) = ({params.d}, {params.ell}"
                            f"), the family lives on {domain.d, domain.ell}")
    m, a, p = params.m, params.a, params.p
    tau = params.tau
    verdict = decide_embedding(m, a, p, tau, domain.d, domain.ell)
    if verdict.outcome != HOLDS:
        raise InvalidParams(f"embedding does not hold: {verdict.trigger}")
    kept, excluded = _in_kondratiev(family, m, a, p)
    notes = {"verdict": verdict.to_json()}
    pairs = [_norm_values([rloc_weighted_terms(u, params) if tau > 1
                           else weighted_lp_terms(u, -m, tau),
                           kondratiev_terms(u, params)], cover, nodes_per_dim)
             for u in kept]
    if tau <= 1:
        system, _, seqs = _sequence_norms(kept, m, tau, J)
        notes["waveletOrder"] = system.order
        pairs = [(seq.value + low, den)
                 for seq, (low, den) in zip(seqs, pairs)]
        notes["tailShares"] = [seq.tail_share for seq in seqs]
    report = _ratio_report(kept, excluded, f"rloc_weighted(tau={tau})",
                           f"kondratiev(p={p})", pairs,
                           SPREAD_CROSS_INTEGRABILITY, notes)
    if not all(np.isfinite(r) for r in report.ratios):
        report.notes["CRITICAL"] = ("divergent numerator under a Holds "
                                    "verdict")
        report.passed = False
    return report


def _fit_growth(xs, ys, predicted):
    """Fit y = A + B x^c and report (c, max relative residual)."""
    from scipy.optimize import curve_fit

    def model(x, A, B, c):
        return A + B * x ** c

    p0 = (0.0, max(ys[-1], 1e-8), max(predicted, 0.05))
    popt, _ = curve_fit(model, np.asarray(xs), np.asarray(ys), p0=p0,
                        maxfev=20000)
    fit = model(np.asarray(xs), *popt)
    residual = float(np.max(np.abs(fit - ys) / np.abs(ys)))
    return float(popt[2]), residual


def critical_a(m, p, tau, d, delta):
    """The weight a = m - (d - delta)(1/tau - 1/p) of the critical line."""
    check_params(m, d, delta, p, tau)
    return m - (d - delta) * (1.0 / tau - 1.0 / p)


def check_counterexample_divergence(m=1, a=None, p=2.0, tau=1.0, d=2,
                                    delta=0, lam=-0.7):
    """Sharpness at the critical line via the exact 1D radial reduction.

    u_lam = rho^{m - (d-delta)/tau} (1 + |log rho|)^lam: the truncated power
    ||rho^{-m} u_lam||^tau_{L_tau(rho>eps)} reduces to
    int_eps^R t^{e}(1+|log t|)^{lam*tau} dt with e = (beta-m)tau + d-delta-1;
    its growth in eps is fitted against (1 + log(1/eps))^{1 + lam tau}.
    `a` defaults to `critical_a`; an `a` off that line (by
    `embeddings.compare`) fails with a note naming the line's a.
    """
    line_a = critical_a(m, p, tau, d, delta)
    if a is None:
        a = line_a
    params = {"m": m, "a": a, "p": p, "tau": tau, "d": d, "delta": delta,
              "lam": lam}
    beta = m - (d - delta) / tau
    # -1 by the choice of beta; recomputed from beta, e rounds off the
    # critical line for large tau
    e = -1.0
    g = lam * tau
    verdict = classify_radial_exponent(0.0, g)
    notes = {"beta": beta, "radialExponent": e, "logPower": g}
    ladder = [(2.0 ** -k, radial_reference_integral(e, g, FAMILY_R, 2.0 ** -k))
              for k in DIVERGENCE_K]
    eps = np.array([x for x, _ in ladder])
    vals = np.array([y for _, y in ladder])
    if verdict.member:
        notes["flag"] = "not a counterexample: weighted power is finite"
        return DivergenceReport(ladder=ladder, fitted_exponent=0.0,
                                predicted_exponent=0.0, residual=0.0,
                                kondratiev_cauchy=True, passed=False,
                                notes=notes, params=params)
    predicted = 1.0 + g
    fitted, residual = _fit_growth(1.0 + np.log(1.0 / eps), vals, predicted)

    # Kondratiev-side Cauchy check, also via the radial reduction: the worst
    # norm term is int t^{(beta-a)p + d-delta-1} (1+|log t|)^{lam p} dt.
    ek_t = (beta - a) * p + (d - delta)
    ek = ek_t - 1
    gk = lam * p
    member = classify_radial_exponent(ek_t, gk).member
    notes["kondratievMember"] = member
    cauchy = False
    if member:
        # one quad per shell: see radial_reference_integral's accurate range
        rungs, power, top = [], 0.0, FAMILY_R
        for k in range(4, 200, 4):
            power += radial_reference_integral(ek, gk, top, 2.0 ** -k)
            top = 2.0 ** -k
            rungs.append([top, power])
            truncs = [(e, v ** (1.0 / p)) for e, v in rungs]
            if norms.classify_truncations(truncs) == FINITE:
                cauchy = True
                notes["kondratievCauchyEps"] = top
                break
        notes["kondratievLadder"] = rungs
    on_line = compare(a, line_a) == 0
    if not on_line:
        notes["flag"] = (f"off the critical line: a = {a!r}, the line's a = "
                         f"{line_a!r}")
    passed = (abs(fitted - predicted) <= 0.05 and residual < 0.10
              and cauchy and on_line)
    return DivergenceReport(ladder=ladder, fitted_exponent=fitted,
                            predicted_exponent=predicted, residual=residual,
                            kondratiev_cauchy=cauchy, passed=passed,
                            notes=notes, params=params)


def _shifted(terms, alpha):
    """The terms of d^alpha u, read from u's own jet: d^gamma d^alpha u is
    d^(gamma + alpha) u, so each term's orders move up by |alpha|, its
    density sees gamma, and a slot of u not >= alpha adds 0.0."""
    k = sum(alpha)

    def on(density):
        def shifted(rho, al, v):
            gamma = tuple(i - j for i, j in zip(al, alpha))
            return density(rho, gamma, v) if min(gamma) >= 0 else 0.0
        return shifted

    return [(u, lo + k, hi + k, on(density), p)
            for u, lo, hi, density, p in terms]


def check_derivative_mapping(family, m, alpha, p, domain, cover,
                             nodes_per_dim=norms.DEFAULT_NODES):
    """||d^alpha u|F^{m-|alpha|,rloc}|| <= c ||u|F^{m,rloc}|| ratios; the
    terms of d^alpha u read u's own jet (`_shifted`), one per slice."""
    k = sum(alpha)
    if m - k < 1:
        raise InvalidParams("need m - |alpha| >= 1")
    kept, excluded = _in_f_space(family, m, p, domain, "F^{m,rloc}")
    pairs = []
    for u in kept:
        pairs.append(_norm_values(
            [_shifted(sobolev_terms(u, m - k, p)
                      + weighted_lp_terms(u, -(m - k), p), alpha),
             sobolev_terms(u, m, p) + weighted_lp_terms(u, -m, p)],
            cover, nodes_per_dim))
    return _ratio_report(kept, excluded, f"rloc(m-{k}) of derivative",
                         "rloc(m)", pairs, SPREAD_CROSS_INTEGRABILITY)


DIFFEO_CATALOG = {
    "identity": {"matrix": ((1.0, 0.0), (0.0, 1.0)), "bound": (0.999, 1.001)},
    "rotation": {"matrix": ((0.0, -1.0), (1.0, 0.0)), "bound": (0.9, 1.1)},
    "shear": {"matrix": ((1.0, 0.3), (0.0, 1.0)), "bound": (0.1, 10.0)},
}


def check_diffeo_invariance(u, diffeo, m, p, cover,
                            nodes_per_dim=norms.DEFAULT_NODES):
    """Pullback along a catalog diffeomorphism: rloc norm ratio within the
    catalog-stored bound; for isometries the weighted term is exactly
    invariant (node set maps onto itself).

    The catalog's maps are linear maps of the plane that fix the vertex, so
    u must live on ModelDomain(2, 0); other domains raise InvalidParams.
    """
    if diffeo not in DIFFEO_CATALOG:
        raise InvalidParams(f"unknown diffeomorphism {diffeo!r}")
    if u.domain != ModelDomain(2, 0):
        raise InvalidParams("the diffeomorphism catalog acts on "
                            "ModelDomain(2, 0) only")
    entry = DIFFEO_CATALOG[diffeo]
    v = PulledBackFunction(u, entry["matrix"])
    num_s, num_w, den_s, den_w = _norm_values(
        [sobolev_terms(v, m, p), weighted_lp_terms(v, -m, p),
         sobolev_terms(u, m, p), weighted_lp_terms(u, -m, p)],
        cover, nodes_per_dim)
    ratio = (num_s + num_w) / (den_s + den_w)
    lo, hi = entry["bound"]
    notes = {"diffeo": diffeo, "weightedTermRatio": num_w / den_w,
             "bound": [lo, hi]}
    return RatioReport(family=[u.to_json()], numerator_kind="rloc(pullback)",
                       denominator_kind="rloc", ratios=[ratio],
                       spread=1.0, passed=lo <= ratio <= hi,
                       spread_bound=hi / lo, notes=notes)


def _sector_cover(j_max):
    """Whitney cover of the quarter plane with vertex singularity at 0."""
    return whitney_cover(ModelDomain(2, 0), ((0, 0), (4, 4)), j_max)


def check_cone_localization(u, m, a, p, cover,
                            nodes_per_dim=norms.DEFAULT_NODES):
    """Dyadic annular localization on a planar sector (quarter plane)."""
    domain = cover.domain
    params = SpaceParams(m=m, a=a, p=p, d=domain.d, ell=domain.ell)
    js = range(-3, max(cover.levels) + 2)
    glob, *pieces = [v ** p for v in _norm_values(
        [kondratiev_terms(f, params)
         for f in [u] + [WindowedFunction(u, j) for j in js]],
        cover, nodes_per_dim)]
    local = sum(pieces)
    ratio = glob / local
    notes = {"annulusShares": {j: s / local for j, s in zip(js, pieces)
                               if s > 0}}
    return RatioReport(family=[u.to_json()], numerator_kind="kondratiev^p",
                       denominator_kind="sum of annulus powers",
                       ratios=[ratio], spread=1.0,
                       passed=np.isfinite(ratio) and
                       1.0 / SPREAD_SAME_INTEGRABILITY < ratio
                       < SPREAD_SAME_INTEGRABILITY,
                       spread_bound=SPREAD_SAME_INTEGRABILITY, notes=notes)


def check_scaling_homogeneity(u, m, p, k, cover,
                              nodes_per_dim=norms.DEFAULT_NODES):
    """Change-of-variables identity for the top-order seminorm.

    sum_{|alpha|=m} ||d^alpha u(2^k .)||_p^p over the dilated cover equals
    2^{k(mp-d)} times the same sum for u.  The dilated cover is the cover
    with each level j moved to j + k: its quadrature nodes and weights are
    the cover's scaled by powers of 2, exactly, so the identity holds to
    rounding.
    """
    d = u.domain.d
    uk = PulledBackFunction(u, 2.0 ** k * np.eye(d))
    dilated = replace(cover, levels={j + k: ks
                                     for j, ks in cover.levels.items()})

    def seminorm_power(f, cov):
        term = (f, m, m, lambda rho, al, v: np.abs(v) ** p, 1.0)
        return _norm_values([[term]], cov, nodes_per_dim)[0]

    rhs = seminorm_power(u, cover)
    lhs = seminorm_power(uk, dilated)
    factor = 2.0 ** (k * (m * p - d))
    rel = _scaling_error(lhs, factor, rhs)
    return {"k": k, "m": m, "p": p, "predictedFactor": factor,
            "scaledSeminormPower": lhs, "baseSeminormPower": rhs,
            "relativeError": rel, "passed": rel <= SCALING_TOL}


def check_truth_table(n=200, seed=20260826):
    """decide_embedding vs a literal transcription of the sufficient and
    necessary conditions, over randomized admissible parameter tuples."""
    from .embeddings import decide_embedding, sigma, HOLDS, FAILS
    rng = np.random.default_rng(seed)
    mismatches = []
    rows = []
    count = 0
    while count < n:
        m = int(rng.integers(1, 4))
        a = float(rng.uniform(-1.0, 3.0))
        p = float(rng.uniform(1.0 + 1e-6, 4.0))
        tau = float(rng.uniform(0.5, 4.0))
        d = int(rng.choice([2, 3]))
        delta = int(rng.choice([0, 1]))
        if m <= sigma(tau, 2.0, d):
            continue
        count += 1
        verdict = decide_embedding(m, a, p, tau, d, delta)
        if tau > p:
            literal = FAILS
        elif tau == p:
            literal = HOLDS if m <= a else FAILS
        else:
            literal = HOLDS if (m - a) < (d - delta) * (1 / tau - 1 / p) \
                else FAILS
        row = {"m": m, "a": a, "p": p, "tau": tau, "d": d, "delta": delta,
               "verdict": verdict.outcome, "literal": literal}
        rows.append(row)
        if verdict.outcome != literal:
            mismatches.append(row)
    return {"tuples": count, "mismatches": mismatches,
            "passed": not mismatches, "rows": rows}


def check_partition_diagnostics(domain, j_max=8, n_points=10000,
                                seed=20260826):
    """Partition sums, certificate exactness, level-count growth and the
    most bumps nonzero at one point (`maxOverlap`) on the box [-4, 4]^d,
    which holds level-0 cubes, so every certificate, C0_LEVEL0 too, is
    checked on some cube.  The sums are checked on every
    covered point and on every point with |x''| >= (c1 + 2 sqrt(d - ell))
    2^-j_max, which a selected cube holds; there an uncovered point counts
    as a sum of 0."""
    box = ((-4,) * domain.d, (4,) * domain.d)
    cover = whitney_cover(domain, box, j_max)
    pou = PartitionOfUnity(cover)
    rng = np.random.default_rng(seed)
    lo = np.array(box[0], dtype=float)
    hi = np.array(box[1], dtype=float)
    pts = (lo + (hi - lo) * rng.random((n_points, domain.d))).T
    pts = pts[:, ~np.isclose(domain.distance(pts), 0.0)]
    psi = pou.psi_jet(pts, order=0).value
    covered = psi > PSI_FLOOR
    # accumulate the normalized pieces independently so that floating-point
    # error in the sum is actually measured
    total = np.zeros(pts.shape[1])
    overlap = np.zeros(pts.shape[1], dtype=int)   # nonzero bumps per point
    safe = np.where(covered, psi, 1.0)
    for j, kk, ixs in pou._neighbor_batches(pts):
        vals = pou.bump_jet(j, kk, pts.take(ixs, axis=1), order=0).value
        total[ixs] += vals / safe[ixs]
        overlap[ixs] += vals != 0.0
    sums = np.where(covered, total, 0.0)
    collar = (cover.c1 + 2.0 * math.sqrt(domain.d - domain.ell)) \
        * 2.0 ** -j_max
    measured = covered | (domain.distance(pts) >= collar)
    sum_err = float(np.max(np.abs(sums[measured] - 1.0), initial=0.0))
    cert_ok = True
    for j, ks in cover.levels.items():
        if not len(ks):
            continue
        h = 2.0 ** (-j)
        dist = domain.cube_distance(ks * h - 0.5 * h, ks * h + 1.5 * h)
        stored = cover.dists[j]
        lo_c = cover.c1 * h if j >= 1 else C0_LEVEL0
        cert_ok &= bool(np.array_equal(dist, stored)
                        and np.all(stored >= lo_c))
        if j >= 1:
            cert_ok &= bool(np.all(stored <= cover.c2 * h))
    counts = cover.counts
    js = sorted(j for j in counts if counts[j] > 0)
    growth = [math.log2(counts[j + 1] / counts[j]) for j in js[:-1]
              if j + 1 in counts and counts[j + 1] > 0 and j >= 2]
    tail = growth[-3:] if growth else []
    return {"partitionSumError": sum_err, "coveredFraction":
            float(covered.mean()), "certificatesExact": cert_ok,
            "levelCounts": {int(j): int(c) for j, c in counts.items()},
            "growthRates": tail, "ell": domain.ell,
            "maxOverlap": int(overlap.max(initial=0)),
            "passed": _partition_passed(sum_err, cert_ok, tail, domain.ell)}


def check_classification_grid(domain=None, m=1, p=2.0,
                              betas=(0.0, 0.5, 1.0, 1.5, 2.0),
                              a_values=(-0.5, 0.0, 0.5, 1.0, 1.5),
                              j_max=16, nodes_per_dim=norms.DEFAULT_NODES):
    """Truncation-Cauchy classification vs the exponent oracle, cellwise."""
    domain = domain or ModelDomain(2, 0)
    cover = standard_cover(domain, radius=2, j_max=j_max)
    cells = []
    ok = True
    for beta in betas:
        u = make_test_function(beta, 0.0, 1.0, domain)
        params = [SpaceParams(m=m, a=a, p=p, d=domain.d, ell=domain.ell)
                  for a in a_values]
        oracles = [kondratiev_membership(u, m, a, p) for a in a_values]
        row = cover_norms([kondratiev_terms(u, q) for q in params], cover,
                          nodes_per_dim, [o.member for o in oracles])
        for a, oracle, nv in zip(a_values, oracles, row):
            agree = (nv.classification == FINITE) == oracle.member
            ok = ok and agree
            cells.append({"beta": beta, "a": a, "oracleMember":
                          oracle.member, "classification": nv.classification,
                          "agree": agree})
    return {"cells": cells, "passed": ok}


def check_dual_route(family=None, m=1, tau=1.5, J=9, j_max=12,
                     nodes_per_dim=norms.DEFAULT_NODES,
                     parseval_J=10):
    """Sequence-space vs Sobolev-route F-norms, plus a Parseval check.

    Both routes realize F^m_{tau,2} up to equivalence; the ratio spread over
    the family must stay below the cross-integrability bound.  The Parseval
    check compares the summed squared coefficients of the plateau cutoff to
    its squared L_2 norm.  The Sobolev norms of all members and the L_2
    norm of the cutoff come from one pass over the cover.
    """
    from . import wavelets
    domain = ModelDomain(2, 0)
    if family is None:
        family = default_family(domain)
    kept, excluded = _in_f_space(family, m, tau, domain, "F^m_{tau,2}")
    cover = standard_cover(domain, radius=3, j_max=j_max)
    zeta = make_test_function(0.0, 0.0, 1.0, domain)
    *sobs, l2 = _norm_values([sobolev_terms(u, m, tau) for u in kept]
                             + [weighted_lp_terms(zeta, 0.0, 2.0)],
                             cover, nodes_per_dim)
    system, box, seqs = _sequence_norms(kept, m, tau, J)
    report = _ratio_report(kept, excluded, "f_sequence_norm",
                           "sobolev_norm",
                           [(seq.value, sob) for seq, sob in zip(seqs, sobs)],
                           SPREAD_CROSS_INTEGRABILITY)
    grid = wavelets.wavelet_coefficients(zeta, system, parseval_J, box)
    parseval_rel = abs(grid.sum_of_squares() - l2 ** 2) / l2 ** 2
    report.notes["parsevalRelativeError"] = parseval_rel
    report.passed = report.passed and parseval_rel < 0.01
    return report


# ---------------------------------------------------------------------------
# Named experiments: acceptance criteria 1-9, in order, and `klab verify`
# ---------------------------------------------------------------------------

def _exp_truth_table():
    return TruthTableReport(check_truth_table())


def _exp_norm_equivalence():
    """The 8-node report; it passes only if doubling the quadrature to 16
    nodes per dimension moves the spread by less than DOUBLING_TOL."""
    domain = ModelDomain(2, 0)
    cover = standard_cover(domain, radius=2, j_max=12)
    r8, r16 = (check_norm_equivalence_Kmm(default_family(domain), 1, 2.0,
                                          domain, cover, n) for n in (8, 16))
    change = abs(r16.spread - r8.spread) / r8.spread
    r8.notes["doublingChange"] = change
    r8.passed = r8.passed and change < DOUBLING_TOL
    return r8


def _exp_localization():
    domain = ModelDomain(2, 0)
    cover = standard_cover(domain, radius=2, j_max=8)
    return check_localization(default_family(domain), m=1, a=0.5, p=2.0,
                              cover=cover, pou=PartitionOfUnity(cover))


def _exp_embedding_ratio():
    domain = ModelDomain(2, 0)
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    fam = default_family(domain, betas=(1.2, 1.5, 2.0), lambdas=(0.0,))
    cover = standard_cover(domain, radius=2, j_max=12)
    return check_embedding_ratio(params, fam, cover=cover, J=10)


def _exp_scaling():
    out = []
    for m, p, d, k in ((1, 2, 2, 3), (2, 2, 2, 2)):
        domain = ModelDomain(d, 0)
        u = make_test_function(2.5, 0.0, 1.0, domain)
        cover = standard_cover(domain, radius=2, j_max=10)
        out.append(check_scaling_homogeneity(u, m, p, k, cover=cover))
    return ScalingReport({"cases": out,
                          "passed": all(c["passed"] for c in out)})


def _exp_geometry():
    out = [check_partition_diagnostics(ModelDomain(2 + ell, ell))
           for ell in (0, 1)]
    return GeometryReport({"domains": out,
                           "passed": all(v["passed"] for v in out)})


def _exp_classification_grid():
    return GridReport(check_classification_grid())


EXPERIMENTS = {
    "truth-table": _exp_truth_table,
    "norm-equivalence": _exp_norm_equivalence,
    "localization": _exp_localization,
    "divergence": check_counterexample_divergence,
    "embedding-ratio": _exp_embedding_ratio,
    "scaling": _exp_scaling,
    "geometry": _exp_geometry,
    "classification-grid": _exp_classification_grid,
    "dual-route": check_dual_route,
}
