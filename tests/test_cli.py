"""Command-line interface: exit codes, JSON schema, report round-trip."""

import csv
import json
import os
import platform
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

from klab import norms, verify
from klab.cli import (DIVERGENCE_FLAGS, EXIT_FAILED, EXIT_INVALID, EXIT_OK,
                      EXIT_UNDETERMINED, main)
from klab.geometry import ModelDomain, PartitionOfUnity, whitney_cover
from klab.norms import SpaceParams
from klab.testfns import make_test_function


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decide_holds(capsys):
    code, out = run(capsys, "decide", "--m", "2", "--a", "2", "--p", "2",
                    "--tau", "2", "--d", "2", "--delta", "0")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "Holds"
    doc = json.loads("\n".join(out.splitlines()[1:]))
    assert doc["schema"] == "klab-report/1"
    assert doc["params"]["coverConstants"]["c1"] == 1.0


DECIDE = ["decide", "--m", "2", "--a", "2", "--p", "2", "--tau", "2",
          "--d", "2", "--delta", "0"]


def test_report_names_versions(capsys):
    code, out = run(capsys, *DECIDE)
    doc = json.loads("\n".join(out.splitlines()[1:]))
    assert doc["params"]["versions"] == {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy")}


def test_decide_loads_no_scipy():
    src = Path(verify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = ("import sys\nfrom klab.cli import main\n"
              f"main({DECIDE!r})\n"
              "print(sorted(k for k in sys.modules "
              "if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "Holds"
    assert out.stdout.splitlines()[-1] == "[]"


def test_decide_fails_exit_code(capsys):
    code, out = run(capsys, "decide", "--m", "2", "--a", "0", "--p", "2",
                    "--tau", "2", "--d", "2", "--delta", "0")
    assert code == EXIT_FAILED
    assert out.splitlines()[0] == "Fails"


def test_missing_flag_is_invalid(capsys):
    code = main(["decide", "--m", "2"])
    assert code == EXIT_INVALID


def test_pde_tau_printed_value(capsys):
    code, out = run(capsys, "pde-tau", "--m", "1", "--a", "0", "--d", "2",
                    "--delta", "0")
    assert code == EXIT_OK
    assert float(out.strip()) == 1.0


def test_adaptivity(capsys):
    code, out = run(capsys, "adaptivity", "--m", "1", "--d", "2")
    assert code == EXIT_OK
    assert float(out.strip()) == 1.0


def test_decide_reverse(capsys):
    code, out = run(capsys, "decide-reverse", "--m", "1", "--a", "1",
                    "--p", "2", "--tau", "2", "--d", "2", "--delta", "0")
    assert code == EXIT_OK


def test_decide_holder(capsys):
    code, out = run(capsys, "decide-holder", "--m", "1", "--a", "0.5",
                    "--p", "2.5", "--tau", "1", "--d", "3", "--ell", "0")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "Holds"


def test_decide_holder_undetermined_exit_code(capsys):
    # outside the Hoelder route's window: its own code, not invalid input
    code, out = run(capsys, "decide-holder", "--m", "3", "--a", "0",
                    "--p", "2", "--tau", "1", "--d", "2", "--ell", "0")
    assert code == EXIT_UNDETERMINED
    assert out.splitlines()[0] == "UndeterminedByPaper"


def test_norm_negative_tau_is_invalid(capsys):
    # --tau has no sentinel value: a negative tau is an error, not "no tau"
    code = main(["norm", "--kind", "rloc-weighted", "--m", "1", "--a", "0.5",
                 "--p", "2", "--d", "2", "--ell", "0", "--beta", "1.2",
                 "--j-max", "6", "--tau", "-3"])
    assert code == EXIT_INVALID


def test_norm_subcommand(capsys):
    code, out = run(capsys, "norm", "--kind", "kondratiev", "--m", "1",
                    "--a", "0.5", "--p", "2", "--d", "2", "--ell", "0",
                    "--beta", "1.2", "--j-max", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["statistics"]["classification"] == "Finite"
    assert doc["statistics"]["value"] > 0


# each cover kind of `klab norm`: its terms, and whether the Kondratiev
# membership oracle classifies it
NORM_KINDS = {
    "kondratiev": (norms.kondratiev_terms, True),
    "sobolev": (lambda u, q: norms.sobolev_terms(u, q.m, q.p), False),
    "sharp": (norms.sharp_terms, False),
    "rloc-weighted": (norms.rloc_weighted_terms, False),
}


@pytest.mark.parametrize("kind", sorted(NORM_KINDS))
def test_norm_kind_equals_cover_norms_of_its_terms(capsys, kind):
    # beta = -0.6 is outside K^1_{1/2,2}, so the oracle says "Divergent"
    code, out = run(capsys, "norm", "--kind", kind, "--m", "1", "--a", "0.5",
                    "--p", "2", "--tau", "1.5", "--d", "2", "--ell", "0",
                    "--beta", "-0.6", "--lambda", "-0.7", "--j-max", "6",
                    "--nodes", "4")
    assert code == EXIT_OK
    stats = json.loads(out)["statistics"]
    domain = ModelDomain(2, 0)
    u = make_test_function(-0.6, -0.7, 1.0, domain)
    params = SpaceParams(m=1, a=0.5, p=2.0, d=2, ell=0, tau=1.5)
    cover = whitney_cover(domain, ((-2, -2), (2, 2)), 6)
    terms, oracle = NORM_KINDS[kind]
    nv, = norms.cover_norms([terms(u, params)], cover, 4,
                            [stats["oracleMember"] if oracle else None])
    assert stats.pop("oracleMember") is False
    assert stats == json.loads(json.dumps(nv.to_json()))
    assert (stats["classification"] == "Divergent") is oracle


THREADS_REPORT = """
import json, os, sys
from klab.cli import main
main({argv!r})
print(json.dumps(os.environ.get("OMP_NUM_THREADS")))
"""


def test_report_records_the_thread_variables_the_process_saw():
    # the report names the BLAS thread variables as the process started
    # with them and sets none of them itself
    src = Path(verify.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1", KLAB_THREADS="1")
    out = subprocess.run([sys.executable, "-c",
                          THREADS_REPORT.format(argv=DECIDE)], env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    doc = json.loads("\n".join(lines[1:-1]))
    assert doc["params"]["threads"] == {"OMP_NUM_THREADS": None,
                                        "OPENBLAS_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": None}
    assert json.loads(lines[-1]) is None


NORM = ["norm", "--kind", "kondratiev", "--a", "0.5", "--p", "2", "--d", "2",
        "--ell", "0", "--beta", "1.2", "--j-max", "4"]


@pytest.mark.parametrize("argv", [
    # each raised ZeroDivisionError or ValueError, a traceback with exit 1
    ["decide-holder", "--m", "1", "--a", "0", "--p", "2", "--tau", "0",
     "--d", "2", "--ell", "0"],
    ["pde-tau", "--m", "1", "--a", "0", "--d", "2", "--delta", "2"],
    ["adaptivity", "--m", "1", "--d", "0"],
    ["verify", "divergence", "--tau", "0"],
    NORM + ["--m", "-1"],
    NORM + ["--m", "1", "--nodes", "0"],
    NORM[:2] + ["rloc-localized"] + NORM[3:] + ["--m", "1", "--nodes", "0"],
    # each printed a verdict on a tuple that `decide` rejects
    ["decide-reverse", "--m", "1", "--a", "0", "--p", "2", "--tau", "1",
     "--d", "2", "--delta", "5"],
    ["decide-reverse", "--m", "0", "--a", "0", "--p", "2", "--tau", "2",
     "--d", "2", "--delta", "0"],
    ["decide-holder", "--m", "-5", "--a", "0", "--p", "2", "--tau", "1",
     "--d", "2", "--ell", "0"],
    ["decide-holder", "--m", "1", "--a", "0", "--p", "0.5", "--tau", "0.2",
     "--d", "2", "--ell", "0"],
    ["verify", "divergence", "--d", "2", "--delta", "2"],
    ["verify", "divergence", "--m", "0"],
], ids=["holder-tau-0", "pde-tau-delta-d", "adaptivity-d-0",
        "divergence-tau-0", "norm-m-negative", "norm-nodes-0",
        "localized-nodes-0",
        "reverse-delta-5", "reverse-m-0", "holder-m-negative",
        "holder-p-below-1", "divergence-delta-d", "divergence-m-0"])
def test_out_of_range_input_is_invalid(capsys, argv):
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


def test_norm_out_writes_json_and_no_csv(capsys, tmp_path):
    code, _ = run(capsys, *NORM, "--m", "1", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "norm-kondratiev.json"]


@pytest.mark.parametrize("argv", [
    ["whitney", "--d", "2", "--ell", "0", "--j-max", "3"],
    ["verify", "scaling"],
    NORM + ["--m", "1"],
    ["report"],
], ids=["whitney", "verify", "norm", "report"])
def test_out_naming_a_file_is_invalid_before_the_run(capsys, tmp_path, argv):
    # each printed its report, then raised FileExistsError with exit 1
    path = tmp_path / "taken"
    path.write_text("kept")
    assert main(argv + ["--out", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert path.read_text() == "kept"
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]


def test_norm_rloc_localized(capsys):
    code, out = run(capsys, "norm", "--kind", "rloc-localized", "--m", "1",
                    "--a", "0.5", "--p", "2", "--d", "2", "--ell", "0",
                    "--beta", "1.2", "--j-max", "6")
    assert code == EXIT_OK
    assert json.loads(out)["statistics"]["value"] > 0


def test_whitney_subcommand(capsys, tmp_path):
    code, out = run(capsys, "whitney", "--d", "2", "--ell", "0",
                    "--radius", "2", "--j-max", "5", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "whitney.json").exists()
    assert (tmp_path / "whitney.csv").exists()


def test_verify_unknown_experiment(capsys):
    code = main(["verify", "nonexistent"])
    assert code == EXIT_INVALID


def test_verify_divergence_and_report_roundtrip(capsys, tmp_path):
    code, _ = run(capsys, "verify", "counterexample", "--m", "1", "--p", "2",
                  "--tau", "1", "--a", "0", "--lambda", "-0.7",
                  "--out", str(tmp_path))
    assert code == EXIT_OK
    code2, _ = run(capsys, "verify", "truth-table", "--out", str(tmp_path))
    assert code2 == EXIT_OK
    code3, out = run(capsys, "report", "--out", str(tmp_path))
    assert code3 == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    names = {rec["experiment"] for rec in lines}
    assert {"divergence", "truth-table"} <= names
    tt = next(rec for rec in lines if rec["experiment"] == "truth-table")
    assert tt["roundTrip"]


@pytest.mark.parametrize("flags", [[], ["--m", "1"]])
def test_verify_divergence_flags_override_the_entry_defaults(capsys, flags):
    # a flag overrides one default; the others, lambda = -0.7 among them,
    # stay the entry's own, and params record all seven resolved values
    code, out = run(capsys, "verify", "divergence", *flags)
    assert code == EXIT_OK
    params = json.loads(out)["params"]
    assert {k: params[k] for k in DIVERGENCE_FLAGS} == {
        "m": 1, "a": 0.0, "p": 2.0, "tau": 1.0, "d": 2, "delta": 0,
        "lam": -0.7}


@pytest.mark.parametrize("flags,a", [(["--d", "3"], -0.5),
                                     (["--tau", "0.5"], -2.0)])
def test_verify_divergence_stays_on_its_critical_line(capsys, flags, a):
    # a defaults to the line m - (d - delta)(1/tau - 1/p), so one
    # overridden flag moves a with it; params record the resolved a
    code, out = run(capsys, "verify", "divergence", *flags)
    assert code == EXIT_OK
    assert json.loads(out)["params"]["a"] == a


def test_verify_divergence_off_its_critical_line_fails(capsys):
    code, out = run(capsys, "verify", "divergence", "--d", "3", "--a", "0")
    assert code == EXIT_FAILED
    flag = json.loads(out)["statistics"]["notes"]["flag"]
    assert "the line's a = -0.5" in flag


@pytest.mark.parametrize("name", sorted(set(verify.EXPERIMENTS)
                                        - {"divergence"}))
def test_verify_flags_are_refused_off_divergence(capsys, name):
    assert main(["verify", name, "--m", "3"]) == EXIT_INVALID
    assert "only divergence" in capsys.readouterr().err


def _readme_csv_columns():
    """Experiment name -> CSV header, from the README's column table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    columns = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if line.startswith("| `") and len(cells) >= 2:
            for name in re.findall(r"`([^`]+)`", cells[0]):
                columns[name] = cells[1].strip("`").split(", ")
    return columns


def _light_experiments():
    """Every registry entry on a small family and j_max <= 6."""
    dom = ModelDomain(2, 0)
    cover = verify.standard_cover(dom, radius=2, j_max=6)
    small = verify.standard_cover(dom, radius=2, j_max=3)
    fam = verify.default_family(dom, betas=(1.2, 2.0), lambdas=(0.0,))
    u = make_test_function(2.5, 0.0, 1.0, dom)
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)

    def scaling():
        case = verify.check_scaling_homogeneity(u, 1, 2, 3, cover=cover)
        return verify.ScalingReport({"cases": [case],
                                     "passed": case["passed"]})

    def geometry():
        diag = verify.check_partition_diagnostics(dom, j_max=6,
                                                  n_points=500)
        return verify.GeometryReport({"domains": [diag],
                                      "passed": diag["passed"]})

    return {
        "truth-table": lambda: verify.TruthTableReport(
            verify.check_truth_table(n=20)),
        "norm-equivalence": lambda: verify.check_norm_equivalence_Kmm(
            fam, 1, 2.0, dom, cover),
        "localization": lambda: verify.check_localization(
            fam[:1], 1, 0.5, 2.0, small, PartitionOfUnity(small)),
        "divergence": verify.EXPERIMENTS["divergence"],
        "embedding-ratio": lambda: verify.check_embedding_ratio(
            params, fam[:1], cover=cover, J=5),
        "scaling": scaling,
        "geometry": geometry,
        "classification-grid": lambda: verify.GridReport(
            verify.check_classification_grid(betas=(1.0,),
                                             a_values=(0.0, 1.5), j_max=6)),
        "dual-route": lambda: verify.check_dual_route(
            family=fam[:1], J=5, j_max=6, parseval_J=5),
    }


def test_every_experiment_writes_readme_columns_and_round_trips(
        capsys, tmp_path, monkeypatch):
    light = _light_experiments()
    assert set(light) == set(verify.EXPERIMENTS)
    for name, entry in light.items():
        monkeypatch.setitem(verify.EXPERIMENTS, name, entry)
    columns = _readme_csv_columns()
    main(["whitney", "--d", "2", "--ell", "0", "--radius", "2",
          "--j-max", "5", "--out", str(tmp_path)])
    for name in light:
        main(["verify", name, "--out", str(tmp_path)])
    for name in [*light, "whitney"]:
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            assert next(csv.reader(fh)) == columns[name], name
    # only the divergence report records the divergence parameters
    for name in light:
        params = json.loads((tmp_path / f"{name}.json").read_text())["params"]
        expect = set(DIVERGENCE_FLAGS) if name == "divergence" else set()
        assert set(DIVERGENCE_FLAGS) & set(params) == expect, name
    capsys.readouterr()
    main(["report", "--out", str(tmp_path)])
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    assert {rec["experiment"] for rec in lines} == {*light, "whitney"}
    assert all(rec["roundTrip"] is True for rec in lines), lines

    # a ratio changed in the CSV no longer matches the stored spread
    path = tmp_path / "norm-equivalence.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][-1] = repr(float(rows[1][-1]) * 2.0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code, out = run(capsys, "report", "--out", str(tmp_path))
    assert code == EXIT_FAILED
    bad = next(json.loads(line) for line in out.splitlines()
               if json.loads(line)["experiment"] == "norm-equivalence")
    assert bad["roundTrip"] is False


def test_report_empty_dir(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_INVALID


def test_verify_scaling(capsys, tmp_path):
    code, out = run(capsys, "verify", "scaling", "--out", str(tmp_path))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "scaling.json").read_text())
    assert doc["pass"] is True
    assert doc["schema"] == "klab-report/1"
