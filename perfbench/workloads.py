"""The benchmark's workloads, built from klab's acceptance experiments.

A workload's set-up builds what its experiments share: the Whitney cover,
the partition of unity and the filtered family grid.  An operation calls
one public ``klab.verify.check_*`` function on one family member, one
classification cell, the truth table or the divergence ladder, and judges
the result by the experiment's own pass conditions.  A pass is the list of
operations a seed draws.  Whatever the seed, a pass holds the same kinds
and numbers of operations, so that runs with different seeds do the same
work up to the members drawn.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from klab.embeddings import HOLDS
from klab.geometry import ModelDomain, PartitionOfUnity
from klab.norms import TAIL_SHARE_LIMIT, SpaceParams
from klab.testfns import kondratiev_membership
from klab.verify import (SPREAD_CROSS_INTEGRABILITY,
                         SPREAD_SAME_INTEGRABILITY, check_classification_grid,
                         check_counterexample_divergence,
                         check_embedding_ratio, check_localization,
                         check_norm_equivalence_Kmm, check_truth_table,
                         default_family, standard_cover)


@dataclass
class Op:
    key: str                    # entry of the reference table
    span: str                   # the klab.verify function it calls
    call: Callable[[], object]  # the timed call
    judge: Callable[[object], tuple]   # result -> (statistics, failures)
    group: Optional[str] = None        # a family whose spread is bounded
    bound: Optional[float] = None


def _admissible(family, m, a, p):
    return [u for u in family if kondratiev_membership(u, m, a, p).member]


def _member_key(u):
    return f"beta={u.beta!r},lambda={u.lam!r}"


def _ratio_judge(report):
    stats = {"ratio": report.ratios[0]}
    failures = [] if report.passed else ["ratio not finite and positive"]
    return stats, failures


class WaveletRoute:
    """Criterion 5: K^2_{1,2} into F^{2,rloc}_{0.9,2}, whose smoothness term
    goes through wavelet_coefficients and f_sequence_norm.  A pass is every
    member of the criterion's family, in an order drawn by the seed."""

    name = "wavelet-route"
    PROBE = ("python", "small", "large")    # see calibration.py
    SIZES = {"full": {"J": 6, "j_max": 12}, "tiny": {"J": 5, "j_max": 6}}
    PARAMS = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    BETAS = (1.2, 1.5, 2.0)

    def __init__(self, size):
        sizes = self.SIZES[size]
        domain = ModelDomain(2, 0)
        self.J = sizes["J"]
        self.cover = standard_cover(domain, radius=2, j_max=sizes["j_max"])
        p = self.PARAMS
        self.family = _admissible(
            default_family(domain, betas=self.BETAS, lambdas=(0.0,)),
            p.m, p.a, p.p)

    def _op(self, u):
        def call():
            return check_embedding_ratio(self.PARAMS, [u], cover=self.cover,
                                         J=self.J)

        def judge(report):
            tail = report.notes["tailShares"][0]
            stats, failures = _ratio_judge(report)
            stats["tailShare"] = tail
            if "CRITICAL" in report.notes:
                failures.append(report.notes["CRITICAL"])
            if not tail < TAIL_SHARE_LIMIT:
                failures.append(f"tail share {tail} >= {TAIL_SHARE_LIMIT}")
            return stats, failures

        return Op(_member_key(u), "verify.check_embedding_ratio", call, judge,
                  "embedding", SPREAD_CROSS_INTEGRABILITY)

    def ops(self):
        return [self._op(u) for u in self.family]

    def draw(self, rng):
        ops = self.ops()
        rng.shuffle(ops)
        return ops


class NormLadders:
    """Criteria 2, 8, 1 and 4: whole-level quadrature and truncation
    ladders.  A pass draws norm-equivalence members from the 14-member
    default family (the same number for each log power, at each node
    count), one classification cell per beta row, and adds the truth
    table and the divergence ladder."""

    name = "norm-ladders"
    PROBE = ("python", "small", "large")
    SIZES = {"full": {"j_max": 12, "draws": {8: 3}},
             "tiny": {"j_max": 6, "draws": {4: 1, 8: 1}}}
    CELL_BETAS = (0.0, 0.5, 1.0, 1.5, 2.0)
    CELL_AS = (-0.5, 0.0, 0.5, 1.0, 1.5)

    def __init__(self, size):
        sizes = self.SIZES[size]
        self.domain = ModelDomain(2, 0)
        self.draws = sizes["draws"]
        self.cover = standard_cover(self.domain, radius=2,
                                    j_max=sizes["j_max"])
        self.family = _admissible(default_family(self.domain), 1, 1.0, 2.0)

    def _equivalence_op(self, u, nodes):
        def call():
            return check_norm_equivalence_Kmm([u], 1, 2.0, self.domain,
                                              self.cover,
                                              nodes_per_dim=nodes)

        return Op(f"equivalence{nodes}:{_member_key(u)}",
                  "verify.check_norm_equivalence_Kmm", call, _ratio_judge,
                  f"equivalence{nodes}", SPREAD_SAME_INTEGRABILITY)

    def _cell_op(self, beta, a):
        def call():
            return check_classification_grid(self.domain, m=1, p=2.0,
                                             betas=(beta,), a_values=(a,))

        def judge(out):
            cell = out["cells"][0]
            stats = {"classification": cell["classification"],
                     "oracleMember": cell["oracleMember"]}
            return stats, [] if cell["agree"] else ["disagrees with oracle"]

        return Op(f"cell:beta={beta!r},a={a!r}",
                  "verify.check_classification_grid", call, judge)

    def _truth_table_op(self):
        def judge(out):
            holds = sum(1 for row in out["rows"] if row["verdict"] == HOLDS)
            stats = {"tuples": out["tuples"],
                     "mismatches": len(out["mismatches"]), "holds": holds}
            return stats, [] if out["passed"] else ["verdict mismatches"]

        return Op("truth-table", "verify.check_truth_table",
                  check_truth_table, judge)

    def _divergence_op(self):
        def call():
            return check_counterexample_divergence(m=1, a=0.0, p=2.0, tau=1.0,
                                                   d=2, delta=0, lam=-0.7)

        def judge(report):
            stats = {"fittedExponent": report.fitted_exponent,
                     "predictedExponent": report.predicted_exponent,
                     "residual": report.residual}
            return stats, [] if report.passed else [
                "fitted exponent, residual or Cauchy test failed"]

        return Op("divergence", "verify.check_counterexample_divergence",
                  call, judge)

    def ops(self):
        return ([self._equivalence_op(u, n)
                 for n in self.draws for u in self.family]
                + [self._cell_op(b, a)
                   for b in self.CELL_BETAS for a in self.CELL_AS]
                + [self._truth_table_op(), self._divergence_op()])

    def draw(self, rng):
        ops = []
        lams = sorted({u.lam for u in self.family})
        for nodes, count in self.draws.items():
            for lam in lams:
                members = [u for u in self.family if u.lam == lam]
                ops += [self._equivalence_op(u, nodes)
                        for u in rng.sample(members, count)]
        ops += [self._cell_op(b, rng.choice(self.CELL_AS))
                for b in self.CELL_BETAS]
        ops += [self._truth_table_op(), self._divergence_op()]
        rng.shuffle(ops)
        return ops


class Localization:
    """Criterion 3: the global Kondratiev power against the sum of
    partition-of-unity pieces, one 64-node cube at a time.  A pass is every
    member of the `klab verify localization` family, in an order drawn by
    the seed."""

    name = "localization"
    PROBE = ("python", "small")
    SIZES = {"full": {"j_max": 2, "nodes": 8}, "tiny": {"j_max": 2, "nodes": 4}}
    BETAS = (0.5, 1.2, 2.0)
    M, A, P = 1, 0.5, 2.0

    def __init__(self, size):
        sizes = self.SIZES[size]
        domain = ModelDomain(2, 0)
        self.nodes = sizes["nodes"]
        self.cover = standard_cover(domain, radius=2, j_max=sizes["j_max"])
        self.pou = PartitionOfUnity(self.cover)
        self.family = _admissible(
            default_family(domain, betas=self.BETAS, lambdas=(0.0,)),
            self.M, self.A, self.P)

    def _op(self, u):
        def call():
            return check_localization([u], self.M, self.A, self.P,
                                      self.cover, self.pou,
                                      nodes_per_dim=self.nodes)

        return Op(_member_key(u), "verify.check_localization", call,
                  _ratio_judge, "localization", SPREAD_SAME_INTEGRABILITY)

    def ops(self):
        return [self._op(u) for u in self.family]

    def draw(self, rng):
        ops = self.ops()
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (WaveletRoute, NormLadders, Localization)}

