"""Workloads of the rfw benchmark and how one operation of each runs.

The tasks live in ``registry.json``; one operation of a workload runs one or
more of them.  A task is a list of steps, each either ``["rfw", *argv]``
(one CLI invocation) or ``["lib", name, *args]`` (one call of ``step.py``'s
library routine ``name``).  Every step runs in a fresh interpreter, so the
library's ``lru_cache``s start cold as they do for a user.  After the last
step, outside the timed region, ``checks.py`` checks the outputs in a process
of its own.

This module imports no numpy and builds nothing large, so that run.py's own
memory stays below that of the children it measures: a child's maximum
RSS counts its parent's high-water mark at the moment it was started.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A step that runs longer than this is killed and its operation fails.
STEP_TIMEOUT_S = 120.0
REFERENCE_TIMEOUT_S = 30.0


def load_registry() -> dict:
    return json.loads((HERE / "registry.json").read_text())


def source_digest() -> str:
    """sha256 over the library's source files, which names the code measured
    where no git commit is at hand."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rfw").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- running steps ----------------------------------------------------------


@dataclass
class StepResult:
    wall: float
    code: int
    timed_out: bool
    maxrss_mb: float


def spawn(argv: list[str], cwd: Path, stdout: Path, stderr: Path,
          timeout: float) -> StepResult:
    """Run one child to completion, killing it after `timeout` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    lock, state = threading.Lock(), {"exited": False, "killed": False}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer never signals a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            # Stopped from outside (run.py turns SIGTERM into SystemExit):
            # take the child down too before leaving.
            timer.cancel()
            kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return StepResult(wall, proc.returncode, state["killed"], usage.ru_maxrss / 1024)


def step_argv(step: list[str], trace_file: Path | None = None) -> list[str]:
    argv = [sys.executable, str(HERE / "step.py")]
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    return argv + ["--", *step]


@dataclass
class OpResult:
    wall: float
    step_walls: list[float]
    maxrss_mb: float
    error: str | None
    trace_files: list[Path] = field(default_factory=list)


@dataclass
class Task:
    """One task of registry.json: a command sequence whose steps run one after
    another, and the check of its outputs."""
    name: str
    steps: list[list[str]]
    phases: dict[str, list[int]] = field(default_factory=dict)
    # Digest of the first checked operation's output; every later one must match.
    digest: str | None = None

    def run_op(self, op_dir: Path, timeout: float = STEP_TIMEOUT_S,
               trace: bool = False, check: bool = True,
               between: Callable[[float], None] | None = None) -> OpResult:
        """Run the steps one after another in `op_dir`, then check the outputs.

        `timeout` bounds the steps together.  `between`, if given, is called
        with each step's wall time as soon as the step ends; what it does is
        not part of the operation's `wall`, the sum of its steps' times.  The
        check runs after the timed region; with `check=False` the caller runs
        it.  `error` names the first failure: a step that exits nonzero, one
        that times out, or a check that does not hold.
        """
        op_dir.mkdir(parents=True, exist_ok=True)
        walls, traces, error, rss = [], [], None, 0.0
        t0 = perf_counter()
        for i, step in enumerate(self.steps):
            trace_file = op_dir / f"{i}.trace.json" if trace else None
            res = spawn(step_argv(step, trace_file), op_dir, op_dir / f"{i}.out",
                        op_dir / f"{i}.err", max(0.1, timeout - (perf_counter() - t0)))
            walls.append(res.wall)
            if between is not None:
                between(res.wall)
            rss = max(rss, res.maxrss_mb)
            if trace_file is not None:
                traces.append(trace_file)
            if res.timed_out:
                error = f"step {i} timed out"
                break
            if res.code != 0:
                error = f"step {i} exited {res.code}"
                break
        if error is None and check:
            error = self.check(op_dir)
        return OpResult(sum(walls), walls, rss, error, traces)

    def check(self, op_dir: Path) -> str | None:
        """Run checks.py on the outputs; None when they are right."""
        res = spawn([sys.executable, str(HERE / "checks.py"), self.name, str(op_dir)],
                    op_dir, op_dir / "check.out", op_dir / "check.err", STEP_TIMEOUT_S)
        said = (op_dir / "check.out").read_text().strip()
        if res.timed_out or res.code != 0:
            return said or f"check exited {res.code}: {(op_dir / 'check.err').read_text()}"
        if self.digest is None:
            self.digest = said
        elif said != self.digest:
            return "the same inputs gave a different output"
        return None


def reference(work: Path, kind: str) -> float:
    """Wall time of one run of reference.py's routine `kind` in a fresh
    interpreter."""
    res = spawn([sys.executable, str(HERE / "reference.py"), kind], work,
                work / "reference.out", work / "reference.err", REFERENCE_TIMEOUT_S)
    if res.code != 0:
        raise SystemExit("reference.py failed:\n" + (work / "reference.err").read_text())
    return res.wall


def sample_seed(seed: int) -> int:
    """The `rfw sample --seed` value a benchmark seed stands for."""
    return random.Random(seed).getrandbits(63)


@dataclass
class Workload:
    """A benchmark workload.  One operation of it runs the tasks of
    registry.json named for it, one after another, each in a directory of its
    own; its steps are theirs in that order."""
    name: str
    tasks: list[Task]
    # The routine of reference.py that run.py times beside the steps.
    reference: str = "mixed"

    @property
    def phases(self) -> dict[str, list[int]]:
        """Each task's steps, when there are several tasks, and the tasks' own
        phases, as indexes into the workload's steps."""
        out, first = {}, 0
        for task in self.tasks:
            steps = list(range(first, first + len(task.steps)))
            if len(self.tasks) > 1:
                out[f"{task.name}_s"] = steps
            out.update({k: [first + i for i in v] for k, v in task.phases.items()})
            first += len(task.steps)
        return out

    def run_op(self, op_dir: Path, timeout: float = STEP_TIMEOUT_S, trace: bool = False,
               check: bool = True, between: Callable[[float], None] | None = None) -> OpResult:
        """Run every task as Task.run_op does; the first failure ends it."""
        t0, out = perf_counter(), OpResult(0.0, [], 0.0, None)
        for task in self.tasks:
            left = max(0.1, timeout - (perf_counter() - t0))
            res = task.run_op(op_dir / task.name, left, trace, check, between)
            out.wall += res.wall
            out.step_walls += res.step_walls
            out.maxrss_mb = max(out.maxrss_mb, res.maxrss_mb)
            out.trace_files += res.trace_files
            if res.error is not None:
                out.error = f"{task.name}: {res.error}"
                break
        return out

    def check(self, op_dir: Path) -> str | None:
        """Each task's check, as Task.check; the first failure is the answer."""
        for task in self.tasks:
            error = task.check(op_dir / task.name)
            if error is not None:
                return f"{task.name}: {error}"
        return None


def build_task(name: str, seed: int, registry: dict | None = None) -> Task:
    """The task `name` with its inputs made from `seed`."""
    spec = (registry or load_registry())["tasks"][name]
    steps = [[arg.replace("{seed}", str(sample_seed(seed))) for arg in step]
             for step in spec["steps"]]
    return Task(name, steps, spec.get("phases", {}))


def build(name: str, seed: int, registry: dict | None = None) -> Workload:
    """The workload `name` with its inputs made from `seed`."""
    registry = registry or load_registry()
    spec = registry["workloads"][name]
    return Workload(name, [build_task(task, seed, registry) for task in spec["tasks"]],
                    spec["reference"])
