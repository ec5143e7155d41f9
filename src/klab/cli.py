"""Command-line front end: decisions, norms, covers, experiments, reports.

Exit codes: 0 success / check passed / Holds, 1 failed check / Fails,
2 invalid input, 3 an UndeterminedByPaper verdict.  Every experiment writes
and re-reads its results through one report protocol (klab.verify).
Every JSON output embeds the resolved run configuration (cover constants,
quadrature order, the BLAS thread variables the process saw,
Python/numpy/scipy versions) under schema "klab-report/1".
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

SCHEMA = "klab-report/1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_UNDETERMINED = 3

# numpy's BLAS reads these once, when it loads, so reports record them as
# the process started with them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _versions():
    """Python, numpy and scipy versions; scipy's comes from its installed
    metadata, so reporting it does not import scipy."""
    import platform
    from importlib import metadata
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy")}


def _run_config(args, extra=None):
    from . import geometry, norms
    cfg = {"command": args.command,
           "coverConstants": {"c1": geometry.C1,
                              "c2Factor": geometry.C2_FACTOR,
                              "c0Level0": geometry.C0_LEVEL0},
           "quadratureNodesPerDim": getattr(args, "nodes",
                                            norms.DEFAULT_NODES),
           "threads": {var: os.environ.get(var) for var in THREAD_VARS},
           "versions": _versions()}
    for key in ("m", "a", "p", "tau", "d", "delta", "ell", "beta", "lam",
                "R", "j_max", "J", "out"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key) if key != "out" \
                else str(getattr(args, key))
    if extra:
        cfg.update(extra)
    return cfg


def _emit(args, name, config, report):
    """Print a report's JSON document; with --out also store it and the
    report's CSV rows (csv writes floats by repr: they round-trip exactly)."""
    doc = {"schema": SCHEMA, "experiment": name,
           "report": type(report).__name__, "params": config,
           "pass": bool(report.passed), "statistics": report.to_json()}
    print(json.dumps(doc, indent=2, default=str))
    out = getattr(args, "out", None)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{name}.json").write_text(
            json.dumps(doc, indent=2, default=str))
        rows = list(report.csv_rows())
        if rows:
            with open(outdir / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
    return EXIT_OK if report.passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# decision command -> (embeddings function, the sixth argument, help)
DECISIONS = {
    "decide": ("decide_embedding", "delta", "embedding K^m_{a,p} -> F-rloc"),
    "decide-reverse": ("decide_reverse_embedding", "delta",
                       "reverse embedding"),
    "decide-holder": ("decide_embedding_holder_route", "ell",
                      "Hoelder-route sufficiency"),
}


def _cmd_decide(args):
    """decide, decide-reverse, decide-holder: print the verdict and its
    JSON; exit 0 for Holds, 1 for Fails, 3 for UndeterminedByPaper."""
    from . import embeddings as emb
    fn, last, _ = DECISIONS[args.command]
    v = getattr(emb, fn)(args.m, args.a, args.p, args.tau, args.d,
                         getattr(args, last))
    print(v.outcome)
    print(json.dumps({"schema": SCHEMA, "params": _run_config(args),
                      "verdict": v.to_json()}, indent=2))
    return {emb.HOLDS: EXIT_OK, emb.FAILS: EXIT_FAILED,
            emb.UNDETERMINED: EXIT_UNDETERMINED}[v.outcome]


def _cmd_pde_tau(args):
    from .embeddings import pde_regularity_tau
    tau = pde_regularity_tau(args.m, args.a, args.d, args.delta,
                             a_bar=args.a_bar)
    print(tau)
    return EXIT_OK


def _cmd_adaptivity(args):
    from .embeddings import adaptivity_scale
    print(adaptivity_scale(args.d, args.m))
    return EXIT_OK


def _cmd_norm(args):
    from .geometry import ModelDomain, PartitionOfUnity
    from .norms import (SpaceParams, cover_norms, kondratiev_terms,
                        rloc_norm_localized, rloc_weighted_terms, sharp_terms,
                        sobolev_terms)
    from .testfns import make_test_function, kondratiev_membership
    from .verify import SummaryReport, standard_cover
    domain = ModelDomain(args.d, args.ell)
    u = make_test_function(args.beta, args.lam, args.R, domain)
    cover = standard_cover(domain, 2 * args.R, args.j_max)
    params = SpaceParams(m=args.m, a=args.a, p=args.p, d=args.d,
                         ell=args.ell, tau=args.tau)
    member = kondratiev_membership(u, args.m, args.a, args.p).member
    terms = {"kondratiev": lambda: kondratiev_terms(u, params),
             "sobolev": lambda: sobolev_terms(u, args.m, args.p),
             "sharp": lambda: sharp_terms(u, params),
             "rloc-weighted": lambda: rloc_weighted_terms(u, params)}
    if args.kind in terms:
        # only the Kondratiev norm has a membership oracle
        oracle = member if args.kind == "kondratiev" else None
        nv, = cover_norms([terms[args.kind]()], cover, args.nodes, [oracle])
    else:
        nv = rloc_norm_localized(u, params, PartitionOfUnity(cover),
                                 args.nodes)
    stats = nv.to_json()
    stats["oracleMember"] = member
    return _emit(args, f"norm-{args.kind}",
                 _run_config(args, {"function": u.to_json()}),
                 SummaryReport(stats))


def _cmd_whitney(args):
    from .geometry import ModelDomain
    from .verify import CoverReport, standard_cover
    domain = ModelDomain(args.d, args.ell)
    cover = standard_cover(domain, args.radius, args.j_max)
    return _emit(args, "whitney", _run_config(args), CoverReport(cover))


DIVERGENCE_FLAGS = ("m", "a", "p", "tau", "d", "delta", "lam")


def _cmd_verify(args):
    """Run a registry entry.  The flags given override the divergence
    entry's own defaults; no other entry takes them."""
    from .verify import EXPERIMENTS
    name = "divergence" if args.name == "counterexample" else args.name
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; known: "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return EXIT_INVALID
    given = {k: getattr(args, k) for k in DIVERGENCE_FLAGS
             if getattr(args, k) is not None}
    if given and name != "divergence":
        print(f"only divergence takes --m, --a, --p, --tau, --d, --delta "
              f"and --lambda, not {name}", file=sys.stderr)
        return EXIT_INVALID
    report = EXPERIMENTS[name](**given)
    if name == "divergence":
        vars(args).update(report.params)   # the report records all seven
    return _emit(args, name, _run_config(args), report)


def _cmd_report(args):
    """Recompute each stored CSV's statistics with its report type and
    check that they equal the stored JSON (`roundTrip`)."""
    from .verify import REPORT_TYPES
    outdir = Path(args.out)
    if not outdir.is_dir():
        print(f"no such directory: {outdir}", file=sys.stderr)
        return EXIT_INVALID
    ok = True
    found = False
    for jf in sorted(outdir.glob("*.json")):
        doc = json.loads(jf.read_text())
        if doc.get("schema") != SCHEMA:
            continue
        found = True
        name = doc["experiment"]
        cf = outdir / f"{name}.csv"
        line = {"experiment": name, "pass": doc["pass"]}
        if cf.exists():
            with open(cf, newline="") as fh:
                rows = list(csv.DictReader(fh))
            report = REPORT_TYPES.get(doc.get("report"))
            recomputed = report.recompute(rows) if report else {}
            line["recomputed"] = recomputed
            line["roundTrip"] = bool(recomputed) and all(
                doc["statistics"].get(k) == v for k, v in recomputed.items())
            ok = ok and line["roundTrip"]
        ok = ok and doc["pass"]
        print(json.dumps(line))
    if not found:
        print("no stored reports found", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_space_args(sp, tau_required=True):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--tau", type=float, default=None, required=tau_required)
    sp.add_argument("--d", type=int, required=True)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="klab",
        description="Kondratiev / refined-localization space laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (_, last, help_) in DECISIONS.items():
        sp = sub.add_parser(name, help=help_)
        _add_space_args(sp)
        sp.add_argument(f"--{last}", type=int, required=True)
        sp.set_defaults(func=_cmd_decide)

    sp = sub.add_parser("pde-tau", help="critical tau for PDE regularity")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--a-bar", type=float, default=None)
    sp.set_defaults(func=_cmd_pde_tau)

    sp = sub.add_parser("adaptivity", help="adaptivity scale tau(d, m)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=_cmd_adaptivity)

    sp = sub.add_parser("norm", help="evaluate a norm of rho^beta family")
    sp.add_argument("--kind", choices=["kondratiev", "sobolev", "sharp",
                                       "rloc-weighted", "rloc-localized"],
                    required=True)
    _add_space_args(sp, tau_required=False)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--j-max", type=int, default=12)
    sp.add_argument("--nodes", type=int, default=8)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("whitney", help="construct a Whitney cover")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--j-max", type=int, default=8)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_whitney)

    sp = sub.add_parser("verify", help="run a named experiment")
    sp.add_argument("name")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--delta", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("report", help="regenerate summaries from a run dir")
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=_cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    out = getattr(args, "out", None)
    if out and Path(out).exists() and not Path(out).is_dir():
        print(f"error: --out {out} exists and is not a directory",
              file=sys.stderr)
        return EXIT_INVALID
    from .errors import KlabError
    try:
        return args.func(args)
    except KlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
