"""The mutant list of `tools/mutants.py` still matches the code it mutates.

The runner itself runs Tier-1 once a mutant, outside Tier-1; this checks
only that each mutant's old text occurs exactly once in its file, so drift
in the code shows here first.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once_in_its_file():
    runner = load_runner()
    names = [m.name for m in runner.MUTANTS]
    assert len(names) >= 20 and len(set(names)) == len(names)
    assert all(m.old != m.new and m.file.startswith("src/rfw/") for m in runner.MUTANTS)
    assert runner.unmatched() == []


def test_the_drift_check_sees_a_text_gone_or_doubled(tmp_path):
    runner = load_runner()
    for m in runner.MUTANTS:
        path = tmp_path / m.file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text((ROOT / m.file).read_text())
    assert runner.unmatched(tmp_path) == []
    first, path = runner.MUTANTS[0], tmp_path / runner.MUTANTS[0].file
    path.write_text(path.read_text() + first.old)
    assert runner.unmatched(tmp_path) == [first.name]
    path.write_text(path.read_text().replace(first.old, first.new))
    assert runner.unmatched(tmp_path) == [first.name]
