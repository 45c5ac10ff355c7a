import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rfw
from rfw import PrngHandle, Word, enumerate_A, inflation, sample_packed
from rfw.cli import _SAMPLE_BLOCK, main
from rfw.inflation import VerifyResult, halves, membership

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
    for command in ("export", "factors"):
        code, _, err = run(capsys, command, "-n", "10")
        assert code == 2
        assert err == f"{command}: |A_10| = 37623398400 exceeds budget 100000000\n"


def test_budget_is_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "1000000000", "table", "--max-n", "3"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


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


# At the default item cap the gap row n = 9 stops the command after every
# log-growth row: F_9 needs --item-cap 2^29.
ITEM_CAP_F9 = "entropy: windowed F_9 projects 272490624 candidates, above item cap 67108864\n"


def test_entropy_stdout_matches_pinned_digest(capsys):
    code, out, err = run(capsys, "entropy", "--max-n", "300")
    assert (code, err) == (2, ITEM_CAP_F9)
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "be2c10fceacec31b93e83848cce06b447da33ee1093f664f37d6edb757187c41")


def test_entropy_rows_past_the_float_range_of_f_n(capsys):
    # f_1477 is beyond the float range.
    code, out, err = run(capsys, "entropy", "--max-n", "2000")
    assert (code, err) == (2, ITEM_CAP_F9)
    assert "  n = 2000  log|A_n|/f_n = 0.444399\n" in out


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


# numpy's MemoryError names the allocation; a bare one is named by its type.
MEMORY_ERRORS = [
    ("Unable to allocate 249. GiB for an array", "Unable to allocate 249. GiB for an array"),
    ("", "MemoryError")]


@pytest.mark.parametrize("message,shown", MEMORY_ERRORS)
def test_verify_reports_memory_error_and_goes_on(capsys, monkeypatch, message, shown):
    def out_of_memory():
        raise MemoryError(message)

    checks = [("overlap", "n=4", out_of_memory), ("cut-bound", "n=3", lambda: VerifyResult(True))]
    monkeypatch.setattr("rfw.cli._verify_checks", lambda *args: iter(checks))
    code, out, err = run(capsys, "verify")
    assert (code, err) == (2, "")
    assert out.splitlines() == [f"RESOURCE  overlap                n=4  [{shown}]",
                                "PASS  cut-bound              n=3",
                                "1/2 checks passed, 1 hit a limit"]


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


@pytest.mark.parametrize("message,shown", MEMORY_ERRORS)
def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, message, shown):
    def build(*args):
        raise MemoryError(message)

    monkeypatch.setattr("rfw.inflation.enumerate_A", build)
    target = tmp_path / "F"
    code, out, err = run(capsys, "export", "-n", "10", "--binary", "-o", str(target))
    assert (code, out, err) == (2, "", f"export: {shown}\n")
    assert not target.exists()


def test_factors_item_cap(capsys):
    code, _, err = run(capsys, "--item-cap", "10", "factors", "-n", "6")
    assert code == 2
    assert "item cap" in err


@pytest.mark.parametrize("argv", [
    ("sample", "-n", "5", "-p", "1.5"),
    ("factors", "-n", "0"),
    ("factors", "-n", "40"),
    ("factors", "-n", "100"),
    ("export", "-n", "-1"),
    ("export", "-n", "3", "-o", "{missing}/a3.txt"),
    ("verify", "--prop", "bogus"),
    ("export", "-n", "3", "--binary"),
    ("sample", "-n", "1", "-p", "1.5"),
    ("sample", "-n", "11", "--count", "0"),
    ("sample", "-n", "5", "-p", "1.5", "--count", "0"),
    ("export", "-n", "3000000"),
    ("factors", "-n", "3000000"),
    ("sample", "-n", "3000000"),
    ("export", "-n", "25000"),
])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"{argv[0]}: ")
    n = int(argv[argv.index("-n") + 1]) if "-n" in argv else 0
    if n > inflation.MAX_GENERATION:
        assert f"generation {n} " in err


@pytest.mark.parametrize("argv", [
    ("sample", "-n", "5", "--count", "-3"),
    ("--item-cap", "0", "factors", "-n", "4"),
    ("table", "--max-n", "-1"),
    ("entropy", "--max-n", "-3"),
    ("verify", "--max-n", "-3"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "is below" in capsys.readouterr().err


def test_sample_count_zero_prints_nothing(capsys):
    assert run(capsys, "sample", "-n", "5", "--count", "0") == (0, "", "")


# --- sample --check at n = 10, through A_9 and A_8 -------------------------


def test_sample_check_at_n10_passes_and_prints_the_same_stream(capsys):
    argv = ("sample", "-n", "10", "-p", "0.9", "--seed", "123456789", "--count", "20000")
    code, out, err = run(capsys, *argv, "--check")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "8f6851a90f6bc08409abed23156c1ba6a37af2583de2dca241b27ba4f8189d0a")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, (1 << 34) - 1), max_size=50),
       st.lists(st.integers(0, 3317760 - 1), max_size=50))
def test_split_membership_equals_direct_lookup(others, picks):
    a9 = enumerate_A(9)
    words = np.concatenate([np.array(others, dtype=np.uint64), a9.packed[picks]])
    split = [any(Word(int(w) & (1 << u.length) - 1, u.length) in u
                 and Word(int(w) >> u.length, v.length) in v for u, v in halves(9))
             for w in words]
    direct = membership(9)(words)
    assert split == direct.tolist()
    assert direct.tolist() == [Word(int(w), 34) in a9 for w in words]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, (1 << 55) - 1), max_size=20),
       st.lists(st.tuples(st.booleans(), st.integers(0, 3317760 - 1), st.integers(0, 10080 - 1)),
                max_size=20))
def test_membership_above_the_enumerated_generations_splits_in_halves(others, picks):
    (a9, a8), _ = halves(10)
    built = [int(a9.packed[i]) | int(a8.packed[j]) << 34 if first
             else int(a8.packed[j]) | int(a9.packed[i]) << 21 for first, i, j in picks]
    words = np.array(others + built, dtype=np.uint64)
    oracle = [any(Word(w & (1 << u.length) - 1, u.length) in u
                  and Word(w >> u.length, v.length) in v for u, v in halves(10))
              for w in map(int, words)]
    assert membership(10)(words).tolist() == oracle
    assert all(oracle[len(others):])


@pytest.mark.parametrize("bad", [0, (1 << 55) - 1], ids=["zeros", "ones"])
@pytest.mark.parametrize("at", [0, _SAMPLE_BLOCK + 3])
def test_check_at_n10_prints_up_to_the_first_non_member(capsys, monkeypatch, at, bad):
    stream = sample_packed(10, 0.5, PrngHandle(8), 2 * _SAMPLE_BLOCK)
    stream[at] = bad
    drawn = 0

    def stub(n, p, rng, count):
        nonlocal drawn
        drawn += count
        return stream[drawn - count:drawn]

    monkeypatch.setattr(inflation, "sample_packed", stub)
    code, out, err = run(capsys, "sample", "-n", "10", "--count", str(len(stream)), "--check")
    assert code == 1
    assert out == "".join(f"{Word(int(x), 55)}\n" for x in stream[:at])
    assert err == f"sample: {Word(bad, 55)} not in A_10\n"


def test_closed_stdout_ends_quietly():
    # `rfw sample ... | head -1`: the reader closes the pipe after one line.
    env = {**os.environ, "PYTHONPATH": str(Path(rfw.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfw.cli", "sample", "-n", "10", "--count", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.readline()) == 56
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


# --- argv fuzz: every command line ends in exit 0, 1 or 2 ------------------

PROPS = ["reversal", "prefix-stability", "superset", "superset-reversed",
         "factor-stability", "factor-instability-n3", "overlap", "cut-bound",
         "factor-bound", "bogus"]


def sometimes_junk(values, junk):
    """Flag values as text, one in ten of them a token the flag must reject."""
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(junk) if k == 0 else values.map(str))


def ints(low, high):
    return sometimes_junk(st.integers(low, high), ["x", "", "1.5"])


def floats(low, high):
    return sometimes_junk(st.floats(low, high), ["nan", "inf", "x"])


@st.composite
def argvs(draw, out_dir):
    # The fixed budget admits A_9, whose scans and exports take seconds, so n
    # and --max-n stay <= 7 (--max-n is always given: its default is 8), plus
    # values each command rejects before any work: -n 10 for export and
    # factors (the budget refuses A_10), -n 11..10^7 (beyond 64 symbols) and
    # table --max-n 10..12 (not computable).  Neither cap admits F_9, which
    # needs --item-cap >= 2^29.
    argv = []
    if draw(st.booleans()):
        argv += ["--item-cap", draw(ints(0, 10_000))]
    n = ints(-3, 7)
    any_n = st.one_of(n, ints(11, 10**7))
    set_n = st.one_of(any_n, st.just("10"))
    command = draw(st.sampled_from(["table", "entropy", "verify", "sample", "factors",
                                    "export"]))
    argv.append(command)
    flags = {
        "table": {"--max-n": st.one_of(n, ints(10, 12)),
                  "--format": st.sampled_from(["text", "csv", "json", "xml"])},
        "entropy": {"--max-n": n, "--tol": floats(1e-16, 1.0)},
        "verify": {"--max-n": n,
                   "--prop": st.one_of(st.just("all"), st.lists(
                       st.sampled_from(PROPS), min_size=1, max_size=3).map(",".join))},
        "sample": {"-n": any_n, "-p": floats(-0.25, 1.25), "--seed": ints(-5, 2**70),
                   "--count": ints(-1, 50)},
        "factors": {"-n": set_n},
        "export": {"-n": set_n},
    }[command]
    for flag, values in flags.items():
        if flag in ("-n", "--max-n") or draw(st.booleans()):
            argv += [flag, draw(values)]
    if command in ("table", "factors", "export") and draw(st.booleans()):
        argv += ["-o", str(draw(st.sampled_from(
            [out_dir / "out", out_dir / "missing" / "out", out_dir])))]
    if command in ("factors", "export") and draw(st.booleans()):
        argv.append("--binary")
    if command == "sample" and draw(st.booleans()):
        argv.append("--check")
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, data):
    argv = data.draw(argvs(tmp_path))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
