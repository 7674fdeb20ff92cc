"""Tests for the FLOW-DTYPE rule (repro.analysis.rules.dtype): module
naming and the abstract dtype interpretation — plus family selection
and the noqa edge cases of its findings."""

import textwrap

from repro.analysis import LintEngine
from repro.analysis.rules.dtype import module_name_for


def write_tree(root, files):
    """Write ``{relpath: source}`` under root."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def run_flow(root, files, select=("FLOW",)):
    write_tree(root, files)
    report = LintEngine(select=list(select)).run([root])
    return report.findings


def rule_ids(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Module names (the hot-module test reads them)
# ----------------------------------------------------------------------
class TestProjectModel:
    def test_module_name_walks_init_ancestry(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "x = 1\n",
                "loose.py": "y = 2\n",
            },
        )
        assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg/__init__.py") == "pkg"
        assert module_name_for(tmp_path / "loose.py") == "loose"

    def test_source_that_is_not_a_file_is_a_loose_module(
            self, tmp_path, monkeypatch):
        write_tree(tmp_path, {"pkg/__init__.py": ""})
        monkeypatch.chdir(tmp_path / "pkg")
        assert module_name_for("<string>") == "<string>"


# ----------------------------------------------------------------------
# FLOW-DTYPE
# ----------------------------------------------------------------------
class TestFlowDtype:
    def test_mixed_precision_binop_flagged(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "mathy.py": """
                import numpy as np

                def mix():
                    a = np.zeros(3, dtype=np.float32)
                    b = np.zeros(3, dtype=np.float64)
                    return a + b
                """,
            },
        )
        assert any(
            f.rule == "FLOW-DTYPE" and "float64" in f.message
            for f in findings
        )

    def test_uniform_precision_is_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "mathy.py": """
                import numpy as np

                def same():
                    a = np.zeros(3, dtype=np.float32)
                    b = np.ones(3, dtype=np.float32)
                    return a + b
                """,
            },
        )
        assert "FLOW-DTYPE" not in rule_ids(findings)

    def test_implicit_alloc_into_tensor_flagged_with_fix(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "model.py": """
                import numpy as np
                from repro.tensor import Tensor

                def init(n):
                    w = np.zeros(n)
                    return Tensor(w)
                """,
            },
        )
        flagged = [
            f
            for f in findings
            if f.rule == "FLOW-DTYPE" and "implicit" in f.message
        ]
        assert [f.line for f in flagged] == [6]  # the np.zeros(n) line
        assert "pass an explicit dtype" in flagged[0].message

    def test_check_source_runs_flow_dtype(self):
        findings, _ = LintEngine(select=["FLOW"]).check_source(
            textwrap.dedent(
                """
                import numpy as np
                from repro.tensor import Tensor

                def init(n):
                    w = np.zeros(n)
                    return Tensor(w)
                """
            )
        )
        assert [(f.rule, f.line) for f in findings] == [("FLOW-DTYPE", 6)]

    def test_explicit_dtype_alloc_is_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "model.py": """
                import numpy as np
                from repro.tensor import Tensor

                def init(n):
                    w = np.zeros(n, dtype=np.float64)
                    return Tensor(w)
                """,
            },
        )
        assert "FLOW-DTYPE" not in rule_ids(findings)

    def test_float64_signature_default_flagged(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                import numpy as np

                def encode(labels, n, dtype=np.float64):
                    out = np.zeros((len(labels), n), dtype=dtype)
                    return out

                def widen(x, *, out_dtype="float64"):
                    return x.astype(out_dtype)
                """,
            },
        )
        flagged = [
            f
            for f in findings
            if f.rule == "FLOW-DTYPE" and "signature default" in f.message
        ]
        assert len(flagged) == 2
        assert any("'dtype'" in f.message for f in flagged)
        assert any("'out_dtype'" in f.message for f in flagged)

    def test_none_signature_default_is_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                import numpy as np

                def encode(labels, n, dtype=None):
                    if dtype is None:
                        dtype = np.float32
                    out = np.zeros((len(labels), n), dtype=dtype)
                    return out
                """,
            },
        )
        assert not any(
            "signature default" in f.message
            for f in findings
            if f.rule == "FLOW-DTYPE"
        )

    def test_signature_default_ignored_outside_hot_modules(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/cold.py": """
                import numpy as np

                def weights(counts, dtype=np.float64):
                    return np.asarray(counts, dtype=dtype)
                """,
            },
        )
        assert not any(
            "signature default" in f.message
            for f in findings
            if f.rule == "FLOW-DTYPE"
        )


# ----------------------------------------------------------------------
# CLI: family select
# ----------------------------------------------------------------------
MIXED_TREE = {
    "model.py": """
    import numpy as np
    from repro.tensor import Tensor

    def init(n):
        w = np.zeros(n)
        return Tensor(w)
    """,
    "other.py": """
    import numpy as np

    rng = np.random.default_rng()
    """,
}


class TestCli:
    def test_family_select_flow_only(self, tmp_path):
        write_tree(tmp_path, MIXED_TREE)
        findings = LintEngine(select=["FLOW"]).run([tmp_path]).findings
        assert rule_ids(findings) == {"FLOW-DTYPE"}

    def test_family_select_rng_gets_both_generations(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                np.random.seed(0)
                rng = np.random.default_rng()
                """,
            },
        )
        findings = LintEngine(select=["RNG"]).run([tmp_path]).findings
        assert {"RNG001", "RNG002"} <= rule_ids(findings)


# ----------------------------------------------------------------------
# Pins for the real FLOW-DTYPE violations fixed on this tree
# ----------------------------------------------------------------------
class TestTreeDtypeFixes:
    """The FLOW-DTYPE pass found implicit float64 allocations in
    repro.nn.init, repro.nn.layers and repro.losses and pinned them to
    explicit dtypes; the float32 migration then retargeted every one of
    those kwargs at ``repro.tensor.default_dtype()``.  These tests
    freeze that contract: allocations must track the switchable default
    under both settings, with no hard-coded float width left behind."""

    def test_init_helpers_track_default_dtype(self):
        import numpy as np

        from repro.nn import init
        from repro.tensor import default_dtype, using_default_dtype

        assert init.zeros((2, 3)).dtype == default_dtype()
        assert init.ones((2, 3)).dtype == default_dtype()
        with using_default_dtype(np.float64):
            assert init.zeros((2, 3)).dtype == np.float64
            assert init.ones((2, 3)).dtype == np.float64

    def test_layer_parameters_track_default_dtype(self):
        import numpy as np

        from repro.nn.layers import BatchNorm1d, Linear
        from repro.tensor import using_default_dtype

        for dt in (np.float32, np.float64):
            with using_default_dtype(dt):
                layer = Linear(4, 2, bias=True, rng=np.random.default_rng(0))
                assert layer.bias.data.dtype == dt
                bn = BatchNorm1d(3)
                assert bn.weight.data.dtype == dt
                assert bn.running_mean.dtype == dt

    def test_fixed_modules_are_flow_dtype_clean(self):
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent
        report = LintEngine(select=["FLOW-DTYPE"]).run(
            [src / "nn", src / "losses"]
        )
        assert not report.findings, "\n" + report.format_text()


# ----------------------------------------------------------------------
# noqa edge cases for FLOW-DTYPE findings
# ----------------------------------------------------------------------
class TestCrossFileNoqa:
    def test_multi_id_noqa_parses_flow_ids(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                def run():
                    wide = np.ones(3, dtype=np.float64)
                    return wide + np.zeros(3, dtype=np.float32), np.random.default_rng()  # repro: noqa[RNG002,FLOW-DTYPE] both under test
                """,
            },
        )
        report = LintEngine(select=["RNG002", "FLOW-DTYPE", "NOQA001"]).run(
            [tmp_path]
        )
        assert not report.findings
        assert rule_ids(report.suppressed) == {"RNG002", "FLOW-DTYPE"}

    def test_blanket_noqa_suppresses_flow_finding_on_its_line(
        self, tmp_path
    ):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                def mix():
                    a = np.zeros(3, dtype=np.float32)
                    b = np.zeros(3, dtype=np.float64)
                    return a + b  # repro: noqa
                """,
            },
        )
        report = LintEngine(select=["FLOW-DTYPE"]).run([tmp_path])
        assert "FLOW-DTYPE" not in rule_ids(report.findings)
        assert rule_ids(report.suppressed) == {"FLOW-DTYPE"}
