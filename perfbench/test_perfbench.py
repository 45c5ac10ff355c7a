"""Tests of the benchmark itself: its references are right and its checks bite.

    python3 -m pytest perfbench -q

Each test fakes an operation's steps with a child that copies prepared
outputs, so no test runs the library's slow paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import checks
import run
import workloads
from checks import A_COUNTS, TABLE_CSV, reference_A

REGISTRY = workloads.load_registry()


def render(packed: np.ndarray, length: int) -> bytes:
    """Text export of packed words, one per line, position 1 first, built
    without the library."""
    bits = (packed[:, None] >> np.arange(length, dtype=np.uint64)) & np.uint64(1)
    rows = np.full((len(packed), length + 1), ord("\n"), dtype=np.uint8)
    rows[:, :length] = ord("0") + bits.astype(np.uint8)
    return rows.tobytes()


def explicit_count(n: int) -> int:
    """|A_n| = (n-1) prod_{i=2}^{n-1} (n-i)^{f_{i-2}}, written out again here."""
    if n <= 2:
        return (0, 1, 1)[n]
    out = n - 1
    for i in range(2, n):
        out *= (n - i) ** checks.length_A(i - 2)
    return out


@pytest.fixture(scope="module")
def count_lines() -> bytes:
    top = int(REGISTRY["tasks"]["count"]["steps"][0][2])
    rows = []
    for n in range(top + 1):
        v = explicit_count(n)
        d = checks.int_digest(v)
        rows.append(f"{n} {d} {d} {d} {v if n <= 10 else '-'}\n")
    return "".join(rows).encode()


def good_outputs(name: str, count_lines: bytes) -> dict[str, bytes]:
    """File name -> content of a correct operation of `name`."""
    if name == "table":
        return {"table.csv": TABLE_CSV.encode(), "0.out": b""}
    if name == "verify":
        return {f"{i}.out": f"PASS  x\n{n}/{n} checks passed\n".encode()
                for i, n in enumerate(REGISTRY["tasks"]["verify"]["expect_passed"])}
    if name == "export":
        (l9, a9), (l8, a8) = reference_A(9), reference_A(8)
        payload = a9.astype("<u8").tobytes()
        reload = (f"A9.bin {len(a9)} {hashlib.sha256(payload).hexdigest()}\n"
                  f"A8.txt {len(a8)} {checks.packed_digest(a8)}\n")
        return {"A9.bin": struct.pack("<4sBBI", b"RFW1", 1, l9, len(a9)) + payload,
                "A8.txt": render(a8, l8), "0.out": b"", "1.out": b"",
                "2.out": reload.encode()}
    if name == "sample":
        argv = REGISTRY["tasks"]["sample"]["steps"][0]
        count = int(argv[argv.index("--count") + 1])
        a9, a8 = reference_A(9)[1], reference_A(8)[1]
        rng = np.random.default_rng(0)
        u, v = rng.choice(a9, count), rng.choice(a8, count)
        first = rng.random(count) < 0.5
        words = np.where(first, u | (v << np.uint64(34)), v | (u << np.uint64(21)))
        return {"0.out": render(words, 55)}
    if name == "count":
        return {"0.out": count_lines}
    raise KeyError(name)


def corrupt(name: str, files: dict[str, bytes]) -> dict[str, bytes]:
    files = dict(files)
    if name == "table":  # one CSV cell: |F_8| 65800 -> 65801
        files["table.csv"] = files["table.csv"].replace(b",65800,", b",65801,", 1)
    elif name == "verify":
        files["1.out"] = files["1.out"].replace(b"PASS", b"FAIL")
    elif name == "export":  # one flipped byte of the text export
        data = bytearray(files["A8.txt"])
        data[100] ^= 1
        files["A8.txt"] = bytes(data)
    elif name == "sample":  # one dropped line
        files["0.out"] = files["0.out"].split(b"\n", 1)[1]
    elif name == "count":  # one perturbed count
        lines = files["0.out"].split(b"\n")
        n, d, _, e, v = lines[20].split()
        lines[20] = b" ".join([n, d, checks.int_digest(explicit_count(20) + 1).encode(), e, v])
        files["0.out"] = b"\n".join(lines)
    return files


def alone(task: str) -> workloads.Workload:
    """A workload whose operation is the one task `task`."""
    return workloads.Workload(task, [workloads.build_task(task, 1)])


def fake_steps(monkeypatch, source: Path) -> None:
    """Make every step print source/<i>.out and copy the other files of `source`."""
    code = ("import shutil, sys; from pathlib import Path; src = Path(sys.argv[1]); "
            "[shutil.copy(p, '.') for p in src.iterdir() if not p.name.endswith('.out')]; "
            "sys.stdout.buffer.write((src / (sys.argv[2] + '.out')).read_bytes())")
    steps = iter(range(100))
    monkeypatch.setattr(workloads, "step_argv", lambda step, trace_file=None:
                        [sys.executable, "-c", code, str(source), str(next(steps))])


def write(files: dict[str, bytes], where: Path) -> Path:
    where.mkdir(parents=True, exist_ok=True)
    for fname, data in files.items():
        (where / fname).write_bytes(data)
    return where


def test_references_match_the_seed_digests():
    (l9, a9), (l8, a8) = reference_A(9), reference_A(8)
    assert [len(reference_A(n)[1]) for n in range(1, 10)] == list(A_COUNTS[1:])
    header = struct.pack("<4sBBI", b"RFW1", 1, l9, len(a9))
    assert hashlib.sha256(header + a9.astype("<u8").tobytes()).hexdigest() == checks.A9_BIN_SHA256
    assert hashlib.sha256(render(a8, l8)).hexdigest() == checks.A8_TXT_SHA256
    assert explicit_count(10) == checks.A_10


def test_membership_splits_like_the_recursion():
    refs = {7: reference_A(7), 8: reference_A(8)}
    a9 = reference_A(9)[1]
    assert checks.member_of_A(a9, 9, refs).all()
    assert not checks.member_of_A(a9 ^ np.uint64(1), 9, refs).any()


@pytest.mark.parametrize("name", list(REGISTRY["tasks"]))
def test_good_outputs_pass(name, tmp_path, count_lines):
    op_dir = write(good_outputs(name, count_lines), tmp_path)
    checks.check(name, op_dir)


@pytest.mark.parametrize("name", list(REGISTRY["tasks"]))
def test_corruption_counts_as_failed(name, tmp_path, monkeypatch, count_lines):
    source = write(corrupt(name, good_outputs(name, count_lines)), tmp_path / "src")
    with pytest.raises(checks.CheckFailed):
        checks.check(name, source)
    fake_steps(monkeypatch, source)
    w = alone(name)
    work = tmp_path / "work"
    work.mkdir()
    results, _, groups, failed = run.measure(w, work, 0, perf_counter())
    assert failed / len(results) == 1.0 and results[0].error
    assert len(groups[0]) == run.REFS_FIRST


def test_same_inputs_must_give_the_same_output(tmp_path, monkeypatch, count_lines):
    w = workloads.build_task("verify", 1)
    for i in range(2):
        files = good_outputs("verify", count_lines)
        files["0.out"] = files["0.out"].replace(b"PASS  x", f"PASS  y{i}".encode())
        fake_steps(monkeypatch, write(files, tmp_path / f"src{i}"))
        res = w.run_op(tmp_path / f"op{i}")
        assert (res.error is None) == (i == 0)


def test_timeout_counts_as_failed_and_does_not_hang(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "step_argv", lambda step, trace_file=None:
                        [sys.executable, "-c", "import time; time.sleep(60)"])
    monkeypatch.setattr(workloads, "STEP_TIMEOUT_S", 0.5)
    t0 = perf_counter()
    results, _, _, failed = run.measure(alone("table"), tmp_path, 0, t0)
    assert perf_counter() - t0 < 15
    assert failed == len(results) == 1 and "timed out" in results[0].error


def test_steps_are_timed_against_the_references_beside_them(tmp_path, monkeypatch):
    # The reference runs slow down from one group to the next, as they would
    # on a host that slows down; each step is divided by the groups around it.
    times = iter([0.5, 0.5, 1.0, 2.0] + [3.0] * 100)
    monkeypatch.setattr(workloads, "reference", lambda work, kind: next(times))
    source = write(good_outputs("verify", b""), tmp_path / "src")
    fake_steps(monkeypatch, source)
    work = tmp_path / "work"
    work.mkdir()
    results, rels, groups, failed = run.measure(alone("verify"), work, 0, perf_counter())
    assert failed == 0 and groups == [[0.5, 0.5], [1.0], [2.0]]
    a, b = results[0].step_walls
    assert results[0].wall == a + b
    assert rels == [pytest.approx(a / 0.75 + b / 1.5)]


def test_a_workload_runs_its_tasks_in_turn(tmp_path, monkeypatch):
    # Each task's run is faked; the second one fails, so the third never runs.
    runs = []

    def fake_run(task, op_dir, timeout, trace, check, between):
        runs.append((task.name, op_dir.name))
        error = "step 0 exited 1" if task.name == "verify" else None
        return workloads.OpResult(len(task.steps), [1.0] * len(task.steps), 10.0 * len(runs), error)

    monkeypatch.setattr(workloads.Task, "run_op", fake_run)
    w = workloads.build("sets", 1)
    res = w.run_op(tmp_path)
    assert runs == [("table", "table"), ("verify", "verify")]
    assert res.wall == 3 and res.step_walls == [1.0] * 3 and res.maxrss_mb == 20.0
    assert res.error == "verify: step 0 exited 1"
    assert w.phases == {"table_s": [0], "verify_s": [1, 2], "export_s": [3, 4, 5],
                        "write_s": [3, 4], "read_s": [5]}


def test_reference_routine_ignores_the_library(tmp_path):
    # Run without the library's sources on the path: the routines must not need them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    kinds = {w["reference"] for w in REGISTRY["workloads"].values()}
    assert kinds == {"mixed", "dedup", "bigint"}
    for kind in kinds:
        out = subprocess.run([sys.executable, str(workloads.HERE / "reference.py"), kind],
                             cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
        assert out.returncode == 0 and out.stdout.split()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip() or not out.stdout.strip().splitlines()[-1].startswith("{")


def test_registry_matches_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(REGISTRY["workloads"])
    used = [t for w in REGISTRY["workloads"].values() for t in w["tasks"]]
    assert sorted(used) == sorted(REGISTRY["tasks"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "peak_rss_mb", "setup_s"}
    assert len(spec["per_layer"]) <= 128


def test_sweep_alternates_the_trees_abba(tmp_path, monkeypatch):
    import sweep

    calls = []

    def fake_run_once(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed))
        metrics = {m: {"value": 1.0 + seed / 100, "unit": "s"}
                   for m in ("wall_rel", "peak_rss_mb", "setup_s")}
        return {"python": "x"}, {"correct": True, "attempted": 1, "failed": 0,
                                 "metrics": metrics}

    monkeypatch.setattr(sweep, "run_once", fake_run_once)
    base = tmp_path / "base"
    (base / "perfbench").mkdir(parents=True)
    (base / "perfbench" / "run.py").write_text("")
    sweep.main(["--runs", "4", "--base", str(base), "--base-out", str(tmp_path / "b.json"),
                "--out", str(tmp_path / "n.json")])
    first = calls[0][1]
    order = ["base" if tree == base.resolve() else "new"
             for tree, workload, _ in calls if workload == first]
    assert order == ["base", "new", "new", "base", "base", "new", "new", "base"]
    b, n = (json.loads((tmp_path / f).read_text()) for f in ("b.json", "n.json"))
    assert b["pair_id"] and b["pair_id"] == n["pair_id"]


def summary(values: list[float], pair_id: str | None) -> dict:
    import sweep

    s = sweep.summarise(values)
    s.update(unit="s", bound=0.25)
    return {"env": {"python": "x"}, "pair_id": pair_id, "end_to_end": {"table": {"wall_rel": s}}}


def test_compare_judges_paired_sweeps_seed_by_seed(tmp_path, capsys):
    import compare

    # The host slows down from seed to seed; the change is 10% slower on
    # every seed, which is within the bound, and 30% slower, which is not.
    drift = [10.0 * 1.1 ** i for i in range(10)]
    paths = []
    for name, values in (("b", drift), ("n", [1.1 * v for v in drift])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(summary(values, "p1")))
    assert compare.main([str(p) for p in paths]) == 0
    out = capsys.readouterr().out
    assert "paired" in out and "+10.00%" in out and "wins 0/10" in out

    paths[1].write_text(json.dumps(summary([1.3 * v for v in drift], "p1")))
    assert compare.main([str(p) for p in paths]) == 1
    assert "WORSE" in capsys.readouterr().out
