import hashlib
import json

import pytest

from rfw.cli import main

TABLE_CSV = """n,f_n,A_n,F_n,F_A_next,c_n
0,0,0,,,
1,1,1,2,1,
2,1,1,2,2,
3,2,2,4,3,2.0
4,3,3,7,7,2.0
5,5,8,22,22,2.0
6,8,30,108,108,2.13333
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "6", "--format", "csv")
    assert code == 0
    assert out == TABLE_CSV


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[4] == {"n": 4, "f_n": 3, "A_n": "3", "F_n": "7",
                       "F_A_next": "7", "c_n": {"num": 2, "den": 1, "rounded": "2.0"}}
    assert rows[0]["F_n"] is None and rows[0]["c_n"] is None


def test_table_to_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, _, _ = run(capsys, "table", "--max-n", "5", "--format", "csv",
                     "-o", str(target))
    assert code == 0
    assert target.read_text().splitlines()[6] == "5,5,8,22,22,2.0"


def test_table_resource_error(capsys):
    code, _, err = run(capsys, "--budget", "100", "table", "--max-n", "7")
    assert code == 2
    assert "budget" in err


def test_table_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "table", "--max-n", "8", "--format", "csv", "-o", str(a))
    run(capsys, "table", "--max-n", "8", "--format", "csv", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_entropy(capsys):
    code, out, _ = run(capsys, "entropy", "--max-n", "6")
    assert code == 0
    assert "0.444399" in out
    assert "1.5595" in out


def test_entropy_bad_tol(capsys):
    code, _, _ = run(capsys, "entropy", "--tol", "1e-15")
    assert code == 2


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5")
    assert code == 0
    assert "FAIL" not in out


def test_verify_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--prop", "superset")
    assert code == 0


def test_verify_selected_prop(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--prop",
                       "reversal,factor-instability-n3")
    assert code == 0
    assert "factor-instability-n3" in out


def test_verify_reports_limits_and_goes_on(capsys):
    code, out, err = run(capsys, "--item-cap", "10", "verify", "--max-n", "5",
                         "--prop", "reversal,factor-bound")
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 7 + ["RESOURCE"] * 2
    assert lines[-2] == ("RESOURCE  factor-bound           n=5  "
                         "[windowed F_5 projects 96 candidates, above item cap 10]")
    assert lines[-1] == "7/9 checks passed, 2 hit a limit"


def test_verify_exit_code_prefers_fail_to_limit(capsys, monkeypatch):
    from rfw.inflation import BudgetError, VerifyResult

    def over_budget():
        raise BudgetError("too big")

    checks = [("cut-bound", "n=3", over_budget),
              ("overlap", "n=4", lambda: VerifyResult(False, "w"))]
    monkeypatch.setattr("rfw.cli._verify_checks", lambda *args: iter(checks))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out.splitlines()[-1] == "0/2 checks passed, 1 hit a limit"


def test_sample_deterministic(capsys):
    argv = ("sample", "-n", "6", "-p", "0.4", "--seed", "11", "--count", "4")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert len(first.splitlines()) == 4


def test_sample_membership_check(capsys):
    code, out, _ = run(capsys, "sample", "-n", "5", "-p", "0.5",
                       "--seed", "3", "--count", "10", "--check")
    assert code == 0
    assert all(len(line) == 5 for line in out.splitlines())


def test_sample_deterministic_p1(capsys):
    code, out, _ = run(capsys, "sample", "-n", "5", "-p", "1.0",
                       "--seed", "99", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["01101"] * 3


def test_sample_capacity_error(capsys):
    code, _, _ = run(capsys, "sample", "-n", "11")
    assert code == 2


# sha256 of the stream the per-symbol sampler printed before the block sampler.
@pytest.mark.parametrize("argv,digest", [
    ("-n 10 -p 0.5 --seed 7 --count 5000",
     "e33184b022a975b7bcff61882e6f9ae102b42b217bc3e35c2ef93a0a89b6a57a"),
    ("-n 7 -p 0.25 --seed 3 --count 1000",
     "23540f56d637ab32f92c26387969a17f5b01a80b04d79f33652d0e66203df525"),
    ("-n 10 -p 0.9 --seed 123456789 --count 20000",
     "8f6851a90f6bc08409abed23156c1ba6a37af2583de2dca241b27ba4f8189d0a"),
])
def test_sample_stream_matches_pinned_digest(capsys, argv, digest):
    code, out, err = run(capsys, "sample", *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_export_text(capsys):
    code, out, _ = run(capsys, "export", "-n", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "11010"  # smallest packed value in A_5


def test_export_import_round_trip(tmp_path, capsys):
    from rfw import WordSet, enumerate_A
    target = tmp_path / "a6.rfw"
    code, _, _ = run(capsys, "export", "-n", "6", "-o", str(target), "--binary")
    assert code == 0
    with open(target, "rb") as fh:
        assert WordSet.read_binary(fh) == enumerate_A(6)


def test_factors_command(capsys):
    code, out, _ = run(capsys, "factors", "-n", "4")
    assert code == 0
    assert len(out.splitlines()) == 7


@pytest.mark.parametrize("command,builder", [
    ("factors", "rfw.factors.factor_set_Fn"), ("export", "rfw.inflation.enumerate_A")])
def test_binary_without_output_fails_before_building(capsys, monkeypatch, command, builder):
    def build(*args):
        raise AssertionError(f"{command} built its set")

    monkeypatch.setattr(builder, build)
    code, out, err = run(capsys, command, "-n", "9", "--binary")
    assert (code, out, err) == (2, "", f"{command}: a binary export needs -o FILE\n")


def test_factors_item_cap(capsys):
    code, _, err = run(capsys, "--item-cap", "10", "factors", "-n", "6")
    assert code == 2
    assert "item cap" in err


@pytest.mark.parametrize("argv", [
    ("sample", "-n", "5", "-p", "1.5"),
    ("factors", "-n", "0"),
    ("export", "-n", "-1"),
    ("export", "-n", "3", "-o", "{missing}/a3.txt"),
    ("verify", "--prop", "bogus"),
    ("export", "-n", "3", "--binary"),
    ("sample", "-n", "1", "-p", "1.5"),
    ("sample", "-n", "11", "--count", "0"),
    ("sample", "-n", "5", "-p", "1.5", "--count", "0"),
])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"{argv[0]}: ")


@pytest.mark.parametrize("argv", [
    ("sample", "-n", "5", "--count", "-3"),
    ("--budget", "-5", "table"),
    ("--budget", "0", "table"),
    ("--item-cap", "0", "factors", "-n", "4"),
    ("table", "--max-n", "-1"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "is below" in capsys.readouterr().err


def test_sample_count_zero_prints_nothing(capsys):
    assert run(capsys, "sample", "-n", "5", "--count", "0") == (0, "", "")
