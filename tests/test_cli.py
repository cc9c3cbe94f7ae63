import json
import os
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import carev
from carev import serialize
from carev.ca import Pattern, RuleSpec, evolve_local
from carev.cli import main
from carev.spectral import GenJordan
from carev.structmat import MATRIX_SIZE_CAP


def _write_rule(tmp_path, p=5, dims=(2, 2, 2), coeff=1):
    rule = {
        "p": p,
        "dims": list(dims),
        "c": 0,
        "eta": 1,
        "axes": [{"ell": [coeff], "r": [coeff]} for _ in dims],
    }
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule))
    return str(path)


def _write_pattern(tmp_path, text):
    path = tmp_path / "pattern.txt"
    path.write_text(text)
    return str(path)


def test_check_reversible(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=7)
    assert main(["check", rule]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reversible"] is True
    assert report["witness"] is None


def test_check_irreversible_with_witness(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=3)
    assert main(["check", rule]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report["reversible"] is False
    assert len(report["witness"]) == 3


def test_check_input_errors(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=4)
    assert main(["check", rule]) == 2
    assert "prime" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert main(["check", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["check", str(bad)]) == 2


@pytest.mark.parametrize("key, value", [
    ("dims", 4), ("p", "x"), ("ell", ["a"]), ("axes", 7), ("ell", 1), ("c", None),
    ("p", float("inf")), ("dims", [4.5]), ("ell", [1.7]),
])
def test_check_rejects_malformed_rule_json(tmp_path, capsys, key, value):
    # A wrong JSON type is bad input (exit 2), never a traceback or a
    # silently truncated float.
    rule = json.loads(Path(_write_rule(tmp_path, dims=(4,))).read_text())
    if key in ("ell", "r"):
        rule["axes"][0][key] = value
    else:
        rule[key] = value
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule))  # inf is written as Infinity
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invert_writes_verified_matrix(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=5)
    out = tmp_path / "tinv.txt"
    assert main(["invert", str(tmp_path / "rule.json"), "--out", str(out)]) == 0
    m = serialize.read_matrix(str(out))
    assert m.rows == m.cols == 8
    assert rule  # rule path reused above


def test_invert_irreversible_writes_nothing(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=3)
    out = tmp_path / "tinv.txt"
    assert main(["invert", rule, "--out", str(out)]) == 10
    assert not out.exists()


def test_reverse_irreversible_names_the_witness_once(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=3)
    pattern = _write_pattern(tmp_path, "3 2 2 2 3\n1 2\n0 1\n2 2\n1 0\n")
    out = tmp_path / "out.txt"
    assert main(["reverse", rule, pattern, "--steps", "1", "--out", str(out)]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error: rule is not reversible; zero eigenvalue witness (")
    assert err.count("not reversible") == 1 and err.count("witness") == 1
    assert not out.exists()


def test_evolve_zero_steps_is_canonical_identity(tmp_path):
    rule = _write_rule(tmp_path, p=5, dims=(2, 2))
    pattern = _write_pattern(tmp_path, "2 2 2 5\n1 2\n3 4\n")
    out = tmp_path / "out.txt"
    assert main(["evolve", rule, pattern, "--steps", "0", "--out", str(out)]) == 0
    assert out.read_text() == "2 2 2 5\n1 2\n3 4\n"


def test_evolve_then_reverse_round_trip(tmp_path):
    rule = _write_rule(tmp_path, p=5, dims=(2, 2, 2))
    pattern = _write_pattern(tmp_path, "3 2 2 2 5\n1 2\n3 4\n0 1\n2 3\n")
    fwd = tmp_path / "fwd.txt"
    back = tmp_path / "back.txt"
    assert main(["evolve", rule, pattern, "--steps", "6", "--out", str(fwd)]) == 0
    assert main(["reverse", rule, str(fwd), "--steps", "6", "--out", str(back)]) == 0
    assert back.read_text() == (tmp_path / "pattern.txt").read_text()


def _write_random_pattern(tmp_path, p, dims, seed):
    cells = np.random.default_rng(seed).integers(0, p, size=dims)
    path = tmp_path / "pattern.txt"
    serialize.write_pattern(Pattern(p, cells), str(path))
    return str(path)


def test_evolve_reverse_round_trip_above_old_cap(tmp_path):
    # 5120 cells, past the old 4096-cell cap of both commands; the per-axis
    # eigenvalues live in GF(5^15).
    dims = (8, 8, 8, 10)
    rule = _write_rule(tmp_path, p=5, dims=dims)
    pattern = _write_random_pattern(tmp_path, 5, dims, seed=1)
    fwd = tmp_path / "fwd.txt"
    back = tmp_path / "back.txt"
    assert main(["evolve", rule, pattern, "--steps", "10", "--out", str(fwd)]) == 0
    assert main(["reverse", rule, str(fwd), "--steps", "10", "--out", str(back)]) == 0
    assert back.read_text() == (tmp_path / "pattern.txt").read_text()


def test_evolve_64_cube_matches_stencil_steps(tmp_path):
    dims = (64, 64, 64)
    rule_obj = {
        "p": 7, "dims": list(dims), "c": 3, "eta": 2,
        "axes": [{"ell": [1, 2], "r": [4, 0]}, {"ell": [0, 5], "r": [6, 1]},
                 {"ell": [2, 0], "r": [3, 3]}],
    }
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(rule_obj))
    rule = RuleSpec.from_json(rule_obj)
    assert rule.size > MATRIX_SIZE_CAP
    pattern = _write_random_pattern(tmp_path, 7, dims, seed=2)
    out = tmp_path / "out.txt"
    assert main(["evolve", str(rule_path), pattern, "--steps", "3", "--out", str(out)]) == 0
    want = serialize.read_pattern(pattern)
    for _ in range(3):
        want = evolve_local(rule, want)
    assert serialize.read_pattern(str(out)) == want


def test_internal_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    rule = _write_rule(tmp_path, p=5, dims=(2, 2, 2))
    pattern = _write_pattern(tmp_path, "3 2 2 2 5\n1 2\n3 4\n0 1\n2 3\n")
    out = tmp_path / "out.txt"
    monkeypatch.setattr(GenJordan, "solve", lambda self, x: x)  # a wrong J^-1
    assert main(["reverse", rule, pattern, "--steps", "1", "--out", str(out)]) == 3
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()


def test_unsupported_range_exits_4(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=2**31 + 11)
    assert main(["check", rule]) == 4
    assert "supported range" in capsys.readouterr().err


def test_axis_past_the_cap_exits_4_at_once(tmp_path, capsys):
    # A 1-D axis of 10^20 cells: its characteristic polynomial is refused
    # before any work, by every command that decides reversibility.
    n = 10**20
    rule = _write_rule(tmp_path, p=5, dims=(n,))
    for argv in (["check"], ["roots"], ["jordan"], ["invert", "--out", str(tmp_path / "m")]):
        t0 = time.perf_counter()
        assert main(argv[:1] + [rule] + argv[1:]) == 4
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert str(MATRIX_SIZE_CAP) in err and str(n) in err
    # evolve never decides, so a 5000-cell axis still runs.
    rule = _write_rule(tmp_path, p=5, dims=(5000,))
    pattern = _write_random_pattern(tmp_path, 5, (5000,), seed=3)
    out = tmp_path / "out.txt"
    assert main(["evolve", rule, pattern, "--steps", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_evolve_dimension_mismatch(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=5, dims=(2, 2))
    pattern = _write_pattern(tmp_path, "1 4 5\n1 2 3 4\n")
    out = tmp_path / "out.txt"
    assert main(["evolve", rule, pattern, "--steps", "1", "--out", str(out)]) == 2


def test_evolve_writes_pgm(tmp_path):
    rule = _write_rule(tmp_path, p=5, dims=(2, 2, 2))
    pattern = _write_pattern(tmp_path, "3 2 2 2 5\n1 2\n3 4\n0 1\n2 3\n")
    out = tmp_path / "out.txt"
    prefix = tmp_path / "img"
    assert (
        main(
            ["evolve", rule, pattern, "--steps", "1", "--out", str(out), "--pgm", str(prefix)]
        )
        == 0
    )
    assert (tmp_path / "img_slice0.pgm").exists()
    assert (tmp_path / "img_slice1.pgm").exists()


def test_pgm_past_three_axes_writes_nothing(tmp_path, capsys):
    # Reversible (c = 1 over GF(5)), so only the image export can refuse it.
    dims = (3, 3, 3, 3)
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({
        "p": 5, "dims": list(dims), "c": 1, "eta": 1,
        "axes": [{"ell": [1], "r": [1]} for _ in dims],
    }))
    pattern = _write_random_pattern(tmp_path, 5, dims, seed=3)
    for command in ("evolve", "reverse"):
        out = tmp_path / f"{command}.txt"
        argv = [command, str(rule), pattern, "--steps", "1", "--out", str(out),
                "--pgm", str(tmp_path / "img")]
        assert main(argv) == 2
        assert "at most three axes" in capsys.readouterr().err
        assert not out.exists()
    assert not list(tmp_path.glob("img*"))


def test_roots_and_jordan_reports(tmp_path, capsys):
    rule = _write_rule(tmp_path, p=3, dims=(4, 4, 4))
    assert main(["roots", rule]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == {"p": 3, "degree": 2, "modulus": [1, 0, 1]}
    assert main(["jordan", rule]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["diagonal"]) == 64


def test_jordan_report_of_a_defective_rule(tmp_path, capsys):
    # The length-4 unit band over GF(5) has eigenvalues 2 and 3, each with
    # one size-2 Jordan block.
    rule = _write_rule(tmp_path, p=5, dims=(4,))
    assert main(["jordan", rule]) == 0
    report = json.loads(capsys.readouterr().out)
    (axis,) = report["axes"]
    assert axis["blocks"] == [
        {"eigenvalue": {"render": "2", "coeffs": [2]}, "size": 2},
        {"eigenvalue": {"render": "3", "coeffs": [3]}, "size": 2},
    ]
    assert axis["eps"] == [1, 0, 1]
    assert axis["diagonalizable"] is False
    assert report["diagonalizable"] is False


def test_paper_examples_all_pass(capsys):
    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 11


def test_paper_examples_list(capsys):
    assert main(["paper-examples", "--list"]) == 0
    out = capsys.readouterr().out
    assert "cube222-inverse-p7" in out


def test_cli_ignores_removed_backend_variable():
    # The kernel backend switch is gone; a stale setting must not break import.
    src = str(Path(carev.__file__).resolve().parent.parent)
    env = dict(os.environ, CAREV_BACKEND="numba")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "carev.cli", "paper-examples", "--list"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cube222-inverse-p7" in proc.stdout


def test_commands_do_not_import_sympy(tmp_path):
    # sympy serves only the rational gcd check of paper-examples; the other
    # commands must start without paying for its import.
    rule = _write_rule(tmp_path, p=5, dims=(2, 3))
    pattern = _write_pattern(tmp_path, "2 2 3 5\n1 2\n3 4\n0 1\n")
    script = (
        "import sys\n"
        "from carev.cli import main\n"
        f"rule, pattern, out = {rule!r}, {pattern!r}, {str(tmp_path)!r}\n"
        "codes = [\n"
        "    main(['check', rule, '--report', out + '/check.json']),\n"
        "    main(['invert', rule, '--out', out + '/tinv.txt']),\n"
        "    main(['evolve', rule, pattern, '--steps', '3', '--out', out + '/fwd.txt']),\n"
        "    main(['reverse', rule, out + '/fwd.txt', '--steps', '3', '--out', out + '/back.txt']),\n"
        "]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
        "assert 'sympy' not in sys.modules, sorted(m for m in sys.modules if 'sympy' in m)[:5]\n"
    )
    src = str(Path(carev.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "back.txt").read_text() == (tmp_path / "pattern.txt").read_text()


def test_paper_examples_perturbed_golden_fails(tmp_path, capsys):
    golden_dir = tmp_path / "goldens"
    golden_dir.mkdir()
    src = resources.files("carev") / "goldens"
    for entry in src.iterdir():
        shutil.copy(str(entry), golden_dir / entry.name)
    target = golden_dir / "triple_table_p5.txt"
    target.write_text(target.read_text().replace("1 1 4", "1 2 4"))
    code = main(
        ["paper-examples", "--only", "triple-table-p5", "--golden-dir", str(golden_dir)]
    )
    assert code == 1
    assert "FAIL triple-table-p5" in capsys.readouterr().out


def test_paper_examples_unknown_id(capsys):
    assert main(["paper-examples", "--only", "nope"]) == 2


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--dims", "2,2,2", "--p", "5", "--repeats", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,t_structured,t_dense,ratio"
    assert lines[1].startswith("8,")


def test_bench_bad_dims(capsys):
    assert main(["bench", "--dims", "banana"]) == 2


def test_bench_rejects_zero_repeats(capsys):
    assert main(["bench", "--dims", "2,2", "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err
