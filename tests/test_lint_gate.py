"""Lint gate: the full rule set over src/ AND tests/ must be clean.

There is no baseline of tolerated findings: any finding fails the
build, and is either fixed or suppressed on its line with a justified
``# repro: noqa[RULE] reason``.  Every suppression must carry that
justification, and must still suppress something (the engine's NOQA001
rule reports one that does not).
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"


@pytest.fixture(scope="module")
def tree_report():
    """One full-rule-set pass over src/ + tests/, shared by the checks
    below; they never mutate it."""
    return LintEngine().run([SRC, TESTS])


def test_full_tree_is_lint_clean(tree_report):
    assert tree_report.files_checked > 100, \
        "lint gate found too few files; wrong root?"
    assert not tree_report.findings, "\n" + tree_report.format_text()


def test_every_suppression_is_justified(tree_report):
    """Each # repro: noqa in src/ or tests/ must carry a justification."""
    for finding in tree_report.suppressed:
        source_line = Path(finding.path).read_text().splitlines()[finding.line - 1]
        marker = source_line.split("noqa", 1)[1]
        # Strip the [RULE] spec; whatever remains is the justification.
        justification = marker.split("]", 1)[-1].strip(" ]:")
        assert justification, (
            "%s:%d suppresses %s without a justification comment"
            % (finding.path, finding.line, finding.rule)
        )


def test_console_script_is_registered():
    import tomllib

    payload = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    scripts = payload["project"]["scripts"]
    assert scripts["repro-lint"] == "repro.analysis.__main__:main"
    assert scripts["repro-report"] == "repro.evals.__main__:main"
    assert "repro-trace" not in scripts  # folded into `repro-report trace`
    assert scripts["repro-serve"] == "repro.serve.__main__:main"
