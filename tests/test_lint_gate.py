"""CI gate: the full rule set over src/ AND tests/ must be clean modulo
the committed baseline.

This is the tier-1-adjacent enforcement of the repo's static-analysis
conventions — any finding not frozen in ``.repro-lint-baseline.json``
fails the build, every suppression that exists must actually suppress
something (the engine's NOQA001 rule guarantees suppressions cannot go
stale), and the baseline itself only shrinks: frozen debt is paid down
by fixing it and re-running ``--update-baseline``, never by adding new
entries by hand.
"""

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import Baseline, LintEngine, LintReport

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"


@pytest.fixture(scope="module")
def tree_report():
    """One full-rule-set pass over src/ + tests/, shared by the checks
    below; they filter into locals and never mutate it."""
    return LintEngine().run([SRC, TESTS])


def test_src_tree_is_lint_clean():
    """src/ carries zero debt — it must be clean without any baseline."""
    report = LintEngine().run([SRC])
    assert report.files_checked > 50, "lint gate found too few files; wrong root?"
    details = "\n" + report.format_text()
    assert not report.findings, details


def test_full_tree_is_clean_against_baseline(tree_report):
    """src/ + tests/ under the full rule set, modulo the frozen baseline."""
    new, baselined = Baseline.load(BASELINE).filter(tree_report.findings)
    report = LintReport(new, tree_report.suppressed,
                        tree_report.files_checked, baselined=len(baselined))
    details = "\n" + report.format_text()
    assert not report.findings, details


def test_baseline_has_no_dead_entries(tree_report):
    """Every baseline entry must still match a real finding — fixed debt
    must be dropped via --update-baseline, not left to rot."""
    baseline = Baseline.load(BASELINE)
    _, baselined = baseline.filter(tree_report.findings)
    assert len(baselined) == sum(baseline.entries.values()), (
        "stale baseline entries: run "
        "`python -m repro.analysis --update-baseline src tests`"
    )


def test_synthetic_new_violation_fails_the_gate(tmp_path):
    """The baseline must not absorb findings it never froze: a brand-new
    violation anywhere in the tree shows up as a failure."""
    offender = tmp_path / "offender.py"
    offender.write_text(
        textwrap.dedent(
            """
            import numpy as np

            rng = np.random.default_rng()
            """
        ),
        encoding="utf-8",
    )
    report = LintEngine().run([SRC, TESTS, offender])
    new, _ = Baseline.load(BASELINE).filter(report.findings)
    assert any(
        f.rule == "RNG002" and f.path == str(offender) for f in new
    ), "synthetic violation was swallowed by the baseline"


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
