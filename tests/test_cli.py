import json
import math
import os
import subprocess
import sys

import pytest

from negwit import conic
from negwit.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_torpedo_classical(capsys):
    code, out = run_cli(capsys, "torpedo", "--d-in", "2", "--d-msg", "2", "--mode", "classical")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.75
    assert payload["value_exact"] == "3/4"


def test_torpedo_quantum(capsys):
    code, out = run_cli(capsys, "torpedo", "--d-in", "3", "--d-msg", "3", "--mode", "quantum")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_cf_examples(capsys):
    code, out = run_cli(capsys, "cf", "--example", "pr_box")
    assert code == 0
    payload = json.loads(out)
    assert payload["cf"] == pytest.approx(1.0, abs=1e-8)
    assert payload["violation"] == pytest.approx(1.0, abs=1e-6)
    code, out = run_cli(capsys, "cf", "--example", "identity_mix")
    assert json.loads(out)["cf"] == pytest.approx(0.0, abs=1e-9)


def test_cf_model_file(tmp_path, capsys):
    from negwit import contextuality as C

    path = tmp_path / "model.json"
    path.write_text(C.example_model("chsh").to_json())
    code, out = run_cli(capsys, "cf", "--model-file", str(path))
    assert code == 0
    assert json.loads(out)["cf"] == pytest.approx(math.sqrt(2) - 1, abs=1e-6)


def test_cf_model_file_with_nan_entry_names_its_table(tmp_path, capsys):
    # the NaN passed every check and failed only inside SciPy's linprog
    from negwit import contextuality as C

    doc = json.loads(C.example_model("chsh").to_json())
    doc["tables"][1]["rows"][0][1] = math.nan
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = main(["cf", "--model-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: table for context ('a1', 'b2') sums to nan")


def test_witness_command(capsys):
    code, out = run_cli(
        capsys,
        "witness",
        "--state",
        "lossy_fock:n=3,eta=0.2",
        "--n",
        "3",
        "--threshold-upper",
        "0.427",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation"] == pytest.approx(0.8**3)
    assert payload["delta"] == pytest.approx(0.8**3 - 0.427)
    code, out = run_cli(
        capsys,
        "witness",
        "--state",
        "lossy_fock:n=3,eta=0.6",
        "--n",
        "3",
        "--threshold-upper",
        "0.427",
    )
    assert json.loads(out)["delta"] is None


def test_witness_n_takes_alpha(capsys):
    # --n 1 is the witness --weights 1, displaced by --alpha alike
    common = ("witness", "--state", "fock:n=1", "--alpha", "0.5",
              "--threshold-upper", "0.5")
    _, by_n = run_cli(capsys, *common, "--n", "1")
    _, by_weights = run_cli(capsys, *common, "--weights", "1")
    by_n, by_weights = json.loads(by_n), json.loads(by_weights)
    assert by_n["alpha"] == [0.5, 0.0]
    assert by_n["expectation"] == by_weights["expectation"] == 0.438075440478


def test_witness_strongly_squeezed_pssvs(capsys):
    code, out = run_cli(
        capsys, "witness", "--state", "pssvs:r=1", "--n", "1", "--threshold-upper", "0.5"
    )
    assert code == 0
    assert json.loads(out)["expectation"] == pytest.approx(1 / math.cosh(1) ** 3, abs=1e-9)


def test_threshold_small(capsys):
    code, out = run_cli(capsys, "threshold", "--n", "1", "--m-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,lower,upper"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert abs(float(first[1]) - 0.5) < 1e-6


def test_threshold_weighted(capsys):
    code, out = run_cli(capsys, "threshold", "--weights", "1,1", "--m-max", "7")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[2]) < 0.875


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "plotdata", "--figure", "pssvs")
    _, out2 = run_cli(capsys, "plotdata", "--figure", "pssvs")
    assert out1 == out2


def test_plotdata_curves(capsys):
    code, out = run_cli(capsys, "plotdata", "--figure", "lossy3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for eta, f3, delta in rows:
        if float(eta) >= 0.5:
            assert float(delta) <= 0.0
    code, out = run_cli(capsys, "plotdata", "--figure", "cat2")
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
    assert vals[2.0] > 0.5 and vals[1.0] < 0.5 and vals[3.0] < 0.5


def test_emit_sdpa(tmp_path, capsys):
    # the file holds the top-level upper program as solved, at a shallow
    # level and at a deep one
    path = tmp_path / "prog.dat-s"
    for n, m_max in (("1", "3"), ("3", "11")):
        code, out = run_cli(
            capsys, "threshold", "--n", n, "--m-max", m_max, "--emit-sdpa", str(path)
        )
        assert code == 0
        upper = float(out.strip().splitlines()[-1].split(",")[2])
        prob = oracles.parse_sdpa(path.read_text())
        assert prob.sense == "min"
        sol = conic.solve(prob, tol=1e-8)
        if sol.status != "optimal":
            sol = conic.solve(prob, tol=1e-8, precision="extended")
        assert abs(-sol.primal_value - upper) < 1e-7, (n, m_max)


def test_bad_input_exit_code(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "witness", "--state", "bogus:x=1", "--n", "1", "--threshold-upper", "0.5"
    )
    assert code == 1
    code, _ = run_cli(capsys, "cf")
    assert code == 1
    # levels below the witness index are bad input, not a numerical failure
    for argv in (("--n", "3", "--m-max", "2"), ("--weights", "1,1", "--m-max", "1")):
        code, out = run_cli(capsys, "threshold", *argv)
        assert code == 1 and out == "", argv
    # a model file of the wrong shape raised a TypeError traceback
    for i, text in enumerate(('{"labels": 5}', "[]")):
        path = tmp_path / f"shape{i}.json"
        path.write_text(text)
        code = main(["cf", "--model-file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: model document"), text
    # the tables must match the contexts: an extra table was ignored, and a
    # reversed context ended in the bare KeyError ('a1', 'b1')
    from negwit import contextuality as C

    chsh = json.loads(C.example_model("chsh").to_json())
    extra = json.loads(json.dumps(chsh))
    extra["tables"].append({"context": ["a1", "a2"], "rows": [[[0, 0], 1.0]]})
    reversed_ = json.loads(json.dumps(chsh))
    table = reversed_["tables"][0]
    table["context"] = ["b1", "a1"]
    table["rows"] = [[[b, a], p] for (a, b), p in table["rows"]]
    cases = ((extra, "('a1', 'a2')"), (reversed_, "('a1', 'b1')"))
    for i, (doc, context) in enumerate(cases):
        path = tmp_path / f"contexts{i}.json"
        path.write_text(json.dumps(doc))
        code = main(["cf", "--model-file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", context
        assert captured.err.startswith("error: ") and context in captured.err, context
    # an outcome given as a list ended in a TypeError traceback
    unhashable = {
        "labels": ["x", "y"],
        "contexts": [["x", "y"]],
        "outcomes": {"x": [0, [1]], "y": [0, 1]},
        "tables": [{"context": ["x", "y"], "rows": [[[0, 0], 0.5], [[0, 1], 0.5]]}],
    }
    path = tmp_path / "unhashable.json"
    path.write_text(json.dumps(unhashable))
    code = main(["cf", "--model-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "label 'x'" in captured.err
    # ncf mode, as quantum mode, plays at d_msg = d_in; it ignored --d-msg
    for mode in ("quantum", "ncf"):
        code = main(["torpedo", "--d-in", "3", "--d-msg", "2", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", mode
        assert captured.err == f"error: {mode} mode uses message dimension d_in\n"
    # a directory given for a file raises IsADirectoryError, an OSError
    for argv in (
        ("cf", "--model-file", str(tmp_path)),
        ("torpedo", "--d-in", "2", "--d-msg", "2", "--mode", "classical",
         "--out", str(tmp_path)),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: "), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--n", "3", "--weights", "1,1", "--m-max", "2"),
        ("threshold", "--m-max", "2"),
        ("witness", "--state", "fock:n=1", "--n", "1", "--weights", "1",
         "--threshold-upper", "0.5"),
        ("witness", "--state", "fock:n=1", "--threshold-upper", "0.5"),
        ("cf", "--example", "chsh", "--model-file", "no-such-model.json"),
    ],
    ids=["threshold-both", "threshold-neither", "witness-both", "witness-neither", "cf-both"],
)
def test_options_that_exclude_each_other(argv, capsys):
    # exactly one of --n and --weights, and of --example and --model-file;
    # threshold solved the (1, 1) witness from level 2 when given both, and
    # cf read the example and never opened the model file
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "not allowed with argument" in captured.err or "is required" in captured.err


def test_bad_input_names_its_cause(capsys):
    # --n 0 read as "no --n given", and --d-msg 0 failed inside numpy
    for argv, cause in (
        (("threshold", "--n", "0", "--m-max", "3"), "witness index must be >= 1"),
        (("torpedo", "--d-in", "2", "--d-msg", "0", "--mode", "classical"),
         "message dimension must be at least 1"),
        (("plotdata", "--figure", "threshold", "--m-max", "2"),
         "at least the top witness index"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert cause in captured.err, argv


WITNESS = ("witness", "--state", "fock:n=1")


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--n", "2", "--m-max", "3", "--tol", "inf"),
        ("threshold", "--n", "2", "--m-max", "3", "--tol", "nan"),
        (*WITNESS, "--weights", "1,nan", "--threshold-upper", "0.5"),
        (*WITNESS, "--n", "1", "--threshold-upper", "nan"),
        (*WITNESS, "--n", "1", "--threshold-upper", "inf"),
        (*WITNESS, "--weights", "1", "--alpha", "nanj", "--threshold-upper", "0.5"),
    ],
    ids=["tol-inf", "tol-nan", "weight-nan", "threshold-nan", "threshold-inf", "alpha-nan"],
)
def test_nonfinite_input_exit_code(argv, capsys):
    # every comparison with NaN is False, so range checks written as v < 0
    # let it through; the outputs then held NaN (not valid JSON), or bounds
    # from a solve that "converged" at tol=inf
    code, out = run_cli(capsys, *argv)
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        (*WITNESS, "--weights", "1,,1", "--threshold-upper", "0.5"),
        ("threshold", "--weights=", "--m-max", "3"),
        ("threshold", "--weights", "1,x", "--m-max", "3"),
    ],
    ids=["empty-entry", "empty-list", "not-a-number"],
)
def test_malformed_weights_name_the_option(argv, capsys):
    # the command parsed the list itself, and float()'s error line named no
    # option
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--weights" in captured.err.splitlines()[-1]


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "threshold", "--n", "1", "--m-max", "1", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("m,lower,upper")


def test_plotdata_threshold_small(capsys):
    code, out = run_cli(
        capsys, "plotdata", "--figure", "threshold", "--n-max", "2", "--m-max", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lower,upper"
    assert len(lines) == 3
    for line in lines[1:]:
        _, lo, up = line.split(",")
        assert abs(float(lo) - 0.5) < 1e-9 and abs(float(up) - 0.5) < 1e-9


def test_threshold_rejects_jobs(capsys):
    # levels are solved in order; there is no parallel option
    code, _ = run_cli(capsys, "threshold", "--n", "1", "--m-max", "3", "--jobs", "2")
    assert code == 1


@pytest.mark.parametrize(
    "state,cause",
    [
        ("pssvs:r=inf", "squeezing parameter must be finite"),
        ("pssvs:r=nan", "squeezing parameter must be finite"),
        ("cat2:alpha=nan", "amplitude must be finite"),
        ("cat4:alpha=1e200", "Fock cutoff inf exceeds 100000"),
        ("lossy_fock:n=-1,eta=0.2", "Fock index must be a natural number"),
        ("lossy_fock:n=100001,eta=0.2", "Fock cutoff 100001 exceeds 100000"),
        ("fock:n=100001", "Fock cutoff 100001 exceeds 100000"),
    ],
    ids=[
        "pssvs-inf", "pssvs-nan", "cat2-nan", "cat4-huge", "lossy-negative",
        "lossy-huge", "fock-huge",
    ],
)
def test_bad_state_parameters_name_their_cause(state, cause, capsys):
    # these raised OverflowError tracebacks or named the wrong cause
    code = main(["witness", "--state", state, "--n", "2", "--threshold-upper", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {cause}")


def test_threshold_takes_no_alpha(capsys):
    # thresholds are displacement invariant, so threshold has no --alpha
    code, out = run_cli(capsys, "threshold", "--n", "1", "--m-max", "3", "--alpha", "0.5")
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "state",
    [
        "cat2:alpha=7",
        "coherent:alpha=6.5",
        "cat4:alpha=6.5+0.5j",
        "lossy_fock:n=1100,eta=0.5",
        "lossy_fock:n=5000,eta=0.01",
    ],
)
def test_states_past_factorial_overflow(state, capsys):
    # cutoffs of 171 and more: n! no longer fits a float, nor does C(n, n/2)
    # from n = 1030
    code, out = run_cli(
        capsys, "witness", "--state", state, "--n", "2", "--alpha", "0.5",
        "--threshold-upper", "0.5",
    )
    assert code == 0
    assert 0 <= json.loads(out)["expectation"] <= 1


def test_sdp_commands_load_no_lp_solver():
    # scipy.optimize loads at the first LP, so a threshold sweep imports
    # neither it nor scipy.special, which negwit does not import itself
    code = (
        "import os, sys\n"
        "from negwit import cli, contextuality, multimode\n"
        "cli.main(['threshold', '--n', '2', '--m-max', '4', '--out', os.devnull])\n"
        "print([m in sys.modules for m in ('scipy.optimize', 'scipy.special')])\n"
        "contextuality.ncf(contextuality.example_model('chsh'))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    package_root = os.path.dirname(os.path.dirname(conic.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[False, False]", "True"]
