"""benchmarks/make_experiments_md.py rewrites only the paper-artefact sections."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).parents[1]


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md", ROOT / "benchmarks" / "make_experiments_md.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_results_regenerate_the_file_unchanged(tmp_path, monkeypatch, capsys):
    # The hand-written sections after the paper artefacts must survive.
    generator = load_generator()
    copy = tmp_path / "EXPERIMENTS.md"
    shutil.copyfile(ROOT / "EXPERIMENTS.md", copy)
    monkeypatch.setattr(generator, "OUTPUT", copy)
    assert generator.main() == 0
    assert copy.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()

