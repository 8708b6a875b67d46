"""Documentation consistency: the bench targets, modules and examples the
design documents promise must exist on disk."""

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _text(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_referenced_bench_exists(self):
        design = _text("DESIGN.md")
        benches = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert benches, "DESIGN.md names no bench targets?"
        for b in benches:
            assert (ROOT / "benchmarks" / b).exists(), b

    def test_every_referenced_module_exists(self):
        design = _text("DESIGN.md")
        mods = set(re.findall(r"repro/([\w/]+\.py)", design))
        missing = [m for m in mods if not (ROOT / "src" / "repro" / m).exists()]
        assert not missing, missing

    def test_every_table_and_figure_indexed(self):
        design = _text("DESIGN.md")
        for item in ("Table I", "Table II", "Table III", "Table IV",
                     "Table V", "Table VI", "Table VII",
                     "Fig 3", "Fig 4", "Fig 5", "Fig 6"):
            assert item in design, item

    def test_no_title_mismatch_flag(self):
        """DESIGN.md confirms the paper text matched (no collision note)."""
        assert "no title collision" in _text("DESIGN.md")


class TestExperimentsDoc:
    def test_covers_all_evaluation_tables(self):
        exp = _text("EXPERIMENTS.md")
        for sec in ("Table I", "Table II", "Table III", "Table IV",
                    "Table V", "Table VI", "Table VII", "Ablations"):
            assert sec in exp, sec

    def test_references_real_benches(self):
        exp = _text("EXPERIMENTS.md")
        for b in re.findall(r"(bench_\w+\.py)", exp):
            assert (ROOT / "benchmarks" / b).exists(), b

    def test_calibration_constants_match_code(self):
        """The documented calibrated constants are the ones in the code."""
        from repro.baselines.cost import MATLAB_2015A, PYTHON_27

        exp = _text("EXPERIMENTS.md")
        assert "55.4" in exp and f"{MATLAB_2015A.loop_overhead_s*1e6:.1f}" == "55.4"
        assert "55.3" in exp and f"{PYTHON_27.loop_overhead_s*1e6:.1f}" == "55.3"
        assert f"{MATLAB_2015A.vectorized_edge_cost_s*1e6:.3f}" == "1.441"
        assert f"{PYTHON_27.vectorized_edge_cost_s*1e6:.3f}" == "1.571"


class TestReadme:
    def test_examples_table_matches_disk(self):
        readme = _text("README.md")
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"{script.name} missing from README"

    def test_docs_linked(self):
        readme = _text("README.md")
        assert "docs/architecture.md" in readme
        assert "docs/cost_model.md" in readme
        assert (ROOT / "docs" / "architecture.md").exists()
        assert (ROOT / "docs" / "cost_model.md").exists()

    def test_install_instructions_offline_safe(self):
        assert "setup.py develop" in _text("README.md")


class TestCliExamples:
    def test_documented_commands_parse(self):
        """Every ``python -m repro ...`` command in README.md and docs/
        parses with the real CLI parser (``\\``-continued lines joined)."""
        from repro.cli import build_parser

        parser = build_parser()
        commands = []
        for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
            text = path.read_text(encoding="utf-8").replace("\\\n", " ")
            for m in re.finditer(r"python -m repro(?![\w.])([^`\n]*)", text):
                commands.append((path.name, m.group(1)))
        assert commands, "no documented CLI commands found"
        for name, args in commands:
            try:
                parser.parse_args(shlex.split(args, comments=True))
            except SystemExit:
                pytest.fail(f"{name}: `python -m repro{args}` does not parse")
