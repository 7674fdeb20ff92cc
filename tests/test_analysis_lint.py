"""Tests for the repro.analysis lint engine: every rule gets a positive
(violating) and a negative (clean) fixture snippet, plus engine-level
behavior — noqa suppression, rule selection, output formats, CLI exit
codes, and the one-violation-per-rule fixture tree."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine, ModuleContext, all_rules, rule_index
from repro.analysis.__main__ import main as lint_main


def lint(source, select=None):
    """Lint a snippet with the full rule set; returns findings."""
    engine = LintEngine(select=select)
    findings, _ = engine.check_source(textwrap.dedent(source))
    return findings


def rule_ids(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Per-rule positive/negative fixtures
# ----------------------------------------------------------------------
class TestRNG001BareNumpyRandom:
    def test_flags_bare_calls(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            y = np.random.choice([1, 2])
            """
        )
        assert sum(1 for f in findings if f.rule == "RNG001") == 2

    def test_allows_modern_api(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.random(3)
            seq = np.random.SeedSequence(7)
            """
        )
        assert "RNG001" not in rule_ids(findings)


class TestRNG002UnseededGenerator:
    def test_flags_unseeded(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert "RNG002" in rule_ids(findings)

    def test_allows_seeded(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            other = np.random.default_rng(seed)
            """
        )
        assert "RNG002" not in rule_ids(findings)


class TestMUT001MutableDefault:
    def test_flags_literals_and_constructors(self):
        findings = lint(
            """
            def f(a, items=[], table={}, s=set()):
                return a
            """
        )
        assert sum(1 for f in findings if f.rule == "MUT001") == 3

    def test_allows_none_default(self):
        findings = lint(
            """
            def f(a, items=None, n=3, name="x"):
                items = items if items is not None else []
                return a
            """
        )
        assert "MUT001" not in rule_ids(findings)


class TestMUT002ParamInPlaceMutation:
    def test_flags_subscript_write(self):
        findings = lint(
            """
            def f(x):
                x[0] = 1.0
                return x
            """
        )
        assert "MUT002" in rule_ids(findings)

    def test_flags_augmented_assign(self):
        findings = lint(
            """
            def f(x, scale):
                x *= scale
                return x
            """
        )
        assert "MUT002" in rule_ids(findings)

    def test_allows_copy_then_mutate(self):
        findings = lint(
            """
            import numpy as np
            def f(x):
                x = np.array(x, copy=True)
                x[0] = 1.0
                x += 2.0
                return x
            """
        )
        assert "MUT002" not in rule_ids(findings)

    def test_allows_local_mutation(self):
        findings = lint(
            """
            def f(x):
                out = [0] * 3
                out[0] = x
                return out
            """
        )
        assert "MUT002" not in rule_ids(findings)

    def test_nested_parameter_shadows_the_outer_one(self):
        findings = lint(
            """
            def outer(x):
                def inner(x):
                    x[0] = 1
                return inner
            """
        )
        assert [f.line for f in findings if f.rule == "MUT002"] == [4]

    def test_nested_local_does_not_rebind_the_outer_parameter(self):
        findings = lint(
            """
            def f(x):
                def g():
                    x = 1
                    return x
                x[0] = 2
                return g
            """
        )
        assert [f.line for f in findings if f.rule == "MUT002"] == [6]

    def test_nested_write_to_enclosing_parameter_reported_once(self):
        findings = lint(
            """
            def f(a):
                def h():
                    a[0] = 2
                h()
            """
        )
        flagged = [f for f in findings if f.rule == "MUT002"]
        assert [f.line for f in flagged] == [4]
        assert "'a'" in flagged[0].message


class TestGRAD001MissingNoGrad:
    def test_flags_eval_without_no_grad(self):
        findings = lint(
            """
            def predict(model, images):
                logits = model(images)
                return logits
            """
        )
        assert "GRAD001" in rule_ids(findings)

    def test_allows_eval_with_no_grad(self):
        findings = lint(
            """
            from repro.tensor import no_grad

            def predict(model, images):
                with no_grad():
                    logits = model(images)
                return logits
            """
        )
        assert "GRAD001" not in rule_ids(findings)

    def test_ignores_training_functions(self):
        findings = lint(
            """
            def train_step(model, images):
                return model(images)
            """
        )
        assert "GRAD001" not in rule_ids(findings)


class TestVAL001SamplerValidation:
    def test_flags_unvalidated_fit_resample(self):
        findings = lint(
            """
            class BadSampler:
                def fit_resample(self, x, y):
                    return x, y
            """
        )
        assert "VAL001" in rule_ids(findings)

    def test_allows_validate_xy(self):
        findings = lint(
            """
            from repro._validation import validate_xy

            class GoodSampler:
                def fit_resample(self, x, y):
                    x, y = validate_xy(x, y)
                    return x, y
            """
        )
        assert "VAL001" not in rule_ids(findings)

    def test_allows_delegation(self):
        findings = lint(
            """
            class Wrapper:
                def fit_resample(self, x, y):
                    return self.inner.fit_resample(x, y)
            """
        )
        assert "VAL001" not in rule_ids(findings)


# ----------------------------------------------------------------------
# Suppression & engine behavior
# ----------------------------------------------------------------------
class TestNoqaSuppression:
    def test_targeted_noqa_suppresses(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: noqa[RNG001] legacy fixture\n"
        )
        report = LintEngine().run([tmp_path])
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "RNG001"

    def test_blanket_noqa_suppresses(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\nx = np.random.rand(3)  # repro: noqa\n"
        )
        report = LintEngine().run([tmp_path])
        assert not report.findings

    def test_wrong_rule_noqa_does_not_suppress(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: noqa[MUT001]\n"
        )
        report = LintEngine().run([tmp_path])
        assert "RNG001" in rule_ids(report.findings)

    def test_unused_noqa_flagged(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("x = 1  # repro: noqa[RNG001]\n")
        report = LintEngine().run([tmp_path])
        assert rule_ids(report.findings) == {"NOQA001"}

    def test_noqa_inside_string_is_not_a_suppression(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text('DOC = "example:  # repro: noqa[RNG001]"\n')
        report = LintEngine().run([tmp_path])
        assert not report.findings

    DISABLED_RULE_SOURCE = (
        "def risky():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:  # repro: noqa[RES002] fixture: justified\n"
        "        pass\n"
        "x = 1  # repro: noqa[RNG001]\n"
        "y = 2  # repro: noqa[NOPE999]\n"
        "z = 3  # repro: noqa\n"
    )

    @pytest.mark.parametrize("config, suppressed, unused_lines", [
        ({}, ["RES002"], [6, 7, 8]),
        ({"ignore": ["RES002"]}, [], [6, 7]),
        ({"select": ["RNG001", "NOQA001"]}, [], [6, 7]),
    ], ids=["all-rules", "ignore", "select"])
    def test_noqa_of_a_disabled_rule_is_not_judged(
            self, tmp_path, config, suppressed, unused_lines):
        """A run that turned RES002 off never looked for the finding its
        noqa suppresses, so it cannot call that noqa (or a blanket one)
        unused; a stale noqa of an enabled rule, or of an unknown id,
        still warns."""
        (tmp_path / "m.py").write_text(self.DISABLED_RULE_SOURCE)
        report = LintEngine(**config).run([tmp_path])
        assert [f.rule for f in report.suppressed] == suppressed
        assert [(f.rule, f.line) for f in report.findings] == [
            ("NOQA001", line) for line in unused_lines]


class TestRES001NonAtomicArtifactWrite:
    def test_flags_numpy_writers(self):
        findings = lint(
            """
            import numpy as np
            def dump(path, arrays):
                np.savez(path, **arrays)
                np.savez_compressed(path, **arrays)
                np.save(path, arrays["x"])
            """
        )
        assert sum(1 for f in findings if f.rule == "RES001") == 3

    def test_flags_write_mode_open(self):
        findings = lint(
            """
            def dump(path, payload):
                with open(path, "wb") as fh:
                    fh.write(payload)
                with open(path, mode="a") as fh:
                    fh.write("tail")
            """
        )
        assert sum(1 for f in findings if f.rule == "RES001") == 2

    def test_allows_reads_and_dynamic_modes(self):
        findings = lint(
            """
            def load(path, mode):
                with open(path) as fh:
                    first = fh.read()
                with open(path, "rb") as fh:
                    second = fh.read()
                with open(path, mode) as fh:
                    third = fh.read()
                return first, second, third
            """
        )
        assert "RES001" not in rule_ids(findings)

    def test_atomic_writer_is_clean(self):
        findings = lint(
            """
            from repro.utils.serialization import atomic_write_json, save_arrays
            def dump(path, arrays, meta):
                save_arrays(path, arrays)
                atomic_write_json(path, meta)
            """
        )
        assert "RES001" not in rule_ids(findings)


class TestRES002SwallowedException:
    def test_flags_bare_except(self):
        findings = lint(
            """
            def risky():
                try:
                    return 1
                except:
                    return 0
            """
        )
        assert "RES002" in rule_ids(findings)

    def test_flags_pass_only_handler(self):
        findings = lint(
            """
            def risky():
                try:
                    return 1
                except ValueError:
                    pass
            """
        )
        assert "RES002" in rule_ids(findings)

    def test_finding_anchors_on_except_line(self):
        findings = lint(
            "def risky():\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        res = [f for f in findings if f.rule == "RES002"]
        assert res and res[0].line == 4

    def test_allows_handlers_that_act(self):
        findings = lint(
            """
            def risky(log):
                try:
                    return 1
                except ValueError as exc:
                    log.append(exc)
                    raise
            """
        )
        assert "RES002" not in rule_ids(findings)

    def test_noqa_on_except_line_suppresses(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "def risky():\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:  # repro: noqa[RES002] probe\n"
            "        pass\n"
        )
        report = LintEngine().run([tmp_path])
        assert "RES002" not in rule_ids(report.findings)
        assert "NOQA001" not in rule_ids(report.findings)
        assert any(f.rule == "RES002" for f in report.suppressed)


class TestRES003RawCheckpointIO:
    def test_flags_direct_np_load(self):
        findings = lint(
            """
            import numpy as np
            def restore(path):
                return np.load(path)
            """
        )
        assert "RES003" in rule_ids(findings)

    def test_flags_direct_np_savez_compressed(self):
        findings = lint(
            """
            import numpy as np
            def persist(path, x):
                np.savez_compressed(path, x=x)
            """
        )
        assert "RES003" in rule_ids(findings)

    def test_allows_serialization_helpers(self):
        findings = lint(
            """
            from repro.utils.serialization import load_arrays, save_arrays
            def roundtrip(path, arrays):
                save_arrays(path, arrays)
                return load_arrays(path)
            """
        )
        assert "RES003" not in rule_ids(findings)

    def test_allows_unrelated_np_calls(self):
        findings = lint(
            """
            import numpy as np
            x = np.zeros(3)
            y = np.loadtxt
            """
        )
        assert "RES003" not in rule_ids(findings)

    def test_serialization_module_is_exempt(self, tmp_path):
        pkg = tmp_path / "utils"
        pkg.mkdir()
        (pkg / "serialization.py").write_text(
            "import numpy as np\n\n"
            "def _load(path):\n    return np.load(path)\n"
        )
        report = LintEngine().run([pkg])
        assert "RES003" not in rule_ids(report.findings)

    def test_other_modules_are_not_exempt(self, tmp_path):
        (tmp_path / "loader.py").write_text(
            "import numpy as np\ndata = np.load('x.npz')\n"
        )
        report = LintEngine().run([tmp_path])
        assert "RES003" in rule_ids(report.findings)


class TestOBS001RawClock:
    def test_flags_raw_clock_reads(self):
        findings = lint(
            """
            import time
            def run():
                t0 = time.perf_counter()
                stamp = time.time()
                return time.perf_counter() - t0, stamp
            """
        )
        assert sum(1 for f in findings if f.rule == "OBS001") == 3

    def test_allows_telemetry_clock(self):
        findings = lint(
            """
            from repro.telemetry import monotonic, wall_time
            def run():
                t0 = monotonic()
                return monotonic() - t0, wall_time()
            """
        )
        assert "OBS001" not in rule_ids(findings)

    def test_telemetry_package_is_exempt(self, tmp_path):
        pkg = tmp_path / "telemetry"
        pkg.mkdir()
        (pkg / "clock.py").write_text(
            "import time\n\ndef monotonic():\n    return time.perf_counter()\n"
        )
        report = LintEngine().run([pkg])
        assert "OBS001" not in rule_ids(report.findings)

    def test_other_packages_are_not_exempt(self, tmp_path):
        mod = tmp_path / "pipeline.py"
        mod.write_text("import time\nt0 = time.monotonic()\n")
        report = LintEngine().run([tmp_path])
        assert "OBS001" in rule_ids(report.findings)


class TestPAR001DirectMultiprocessing:
    def test_flags_multiprocessing_import(self):
        findings = lint("import multiprocessing\n")
        assert "PAR001" in rule_ids(findings)

    def test_flags_concurrent_futures_import(self):
        findings = lint(
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        assert "PAR001" in rule_ids(findings)

    def test_flags_os_fork_call(self):
        findings = lint(
            """
            import os
            def spawn():
                return os.fork()
            """
        )
        assert "PAR001" in rule_ids(findings)

    def test_allows_repro_parallel_usage(self):
        findings = lint(
            """
            from repro.parallel import parallel_map
            def run(fn, items):
                return parallel_map(fn, items, max_workers=4)
            """
        )
        assert "PAR001" not in rule_ids(findings)

    def test_parallel_package_is_exempt(self, tmp_path):
        pkg = tmp_path / "parallel"
        pkg.mkdir()
        (pkg / "pool.py").write_text(
            "import os\n\ndef spawn():\n    return os.fork()\n"
        )
        report = LintEngine().run([pkg])
        assert "PAR001" not in rule_ids(report.findings)

    def test_other_packages_are_not_exempt(self, tmp_path):
        mod = tmp_path / "runners.py"
        mod.write_text("import multiprocessing\n")
        report = LintEngine().run([tmp_path])
        assert "PAR001" in rule_ids(report.findings)


class TestSRV001RawSocketServer:
    def test_flags_socket_import(self):
        findings = lint("import socket\n")
        assert "SRV001" in rule_ids(findings)

    def test_flags_socketserver_import(self):
        findings = lint("import socketserver\n")
        assert "SRV001" in rule_ids(findings)

    def test_flags_http_server_import(self):
        findings = lint("from http.server import HTTPServer\n")
        assert "SRV001" in rule_ids(findings)
        findings = lint("import http.server\n")
        assert "SRV001" in rule_ids(findings)
        findings = lint("from http import server\n")
        assert "SRV001" in rule_ids(findings)

    def test_allows_http_status_enum(self):
        findings = lint(
            "import http\nfrom http import HTTPStatus\ncode = HTTPStatus.OK\n"
        )
        assert "SRV001" not in rule_ids(findings)

    def test_allows_repro_serve_usage(self):
        findings = lint(
            """
            from repro.serve import ServeClient
            def ping(path):
                return ServeClient(path).status()
            """
        )
        assert "SRV001" not in rule_ids(findings)

    def test_serve_package_is_exempt(self, tmp_path):
        pkg = tmp_path / "serve"
        pkg.mkdir()
        (pkg / "service.py").write_text(
            "import socket\n\ndef listen():\n    return socket.socket()\n"
        )
        report = LintEngine().run([pkg])
        assert "SRV001" not in rule_ids(report.findings)

    def test_other_packages_are_not_exempt(self, tmp_path):
        mod = tmp_path / "runners.py"
        mod.write_text("import socketserver\n")
        report = LintEngine().run([tmp_path])
        assert "SRV001" in rule_ids(report.findings)


class TestSRV002JournalFileAccess:
    def test_flags_open_of_journal_variable(self):
        findings = lint(
            "def tail(journal_path):\n"
            "    return open(journal_path).read()\n"
        )
        assert "SRV002" in rule_ids(findings)

    def test_flags_open_of_journal_literal(self):
        findings = lint('handle = open("serve/journal.jsonl")\n')
        assert "SRV002" in rule_ids(findings)

    def test_flags_os_and_io_open(self):
        findings = lint(
            "import os\nfd = os.open(journal_file, os.O_RDONLY)\n"
        )
        assert "SRV002" in rule_ids(findings)
        findings = lint("import io\nh = io.open(cfg.journal)\n")
        assert "SRV002" in rule_ids(findings)

    def test_flags_composed_journal_path(self):
        findings = lint(
            'def seg(base):\n    return open("%s.%08d" % (base.journal, 1))\n'
        )
        assert "SRV002" in rule_ids(findings)

    def test_allows_unrelated_open(self):
        findings = lint(
            "def load(config_path):\n    return open(config_path).read()\n"
        )
        assert "SRV002" not in rule_ids(findings)

    def test_journal_module_is_exempt(self, tmp_path):
        pkg = tmp_path / "serve"
        pkg.mkdir()
        (pkg / "journal.py").write_text(
            "def tail(journal_path):\n"
            "    return open(journal_path).read()\n"
        )
        report = LintEngine().run([pkg])
        assert "SRV002" not in rule_ids(report.findings)

    def test_other_serve_modules_are_not_exempt(self, tmp_path):
        pkg = tmp_path / "serve"
        pkg.mkdir()
        (pkg / "service.py").write_text(
            "def tail(journal_path):\n"
            "    return open(journal_path).read()\n"
        )
        report = LintEngine().run([pkg])
        assert "SRV002" in rule_ids(report.findings)


# ----------------------------------------------------------------------
# Confinement rules ("API X only inside module Y"): every matched form
# and its near-misses, in one module linted outside and at each home
# ----------------------------------------------------------------------
CONFINEMENT_FIXTURE = textwrap.dedent(
    """\
    import multiprocessing
    import multiprocessing.pool
    import os, multiprocessing.connection, concurrent.futures
    from concurrent import futures
    from multiprocessing.pool import Pool, ThreadPool
    import socket, socketserver
    import http
    import http.client
    import http.server
    from http import server
    from http import HTTPStatus
    from http.server import HTTPServer, SimpleHTTPRequestHandler
    import sqlite3
    import sqlite3.dbapi2
    from sqlite3 import connect
    from . import parallel
    from .serve import journal
    from ..evals import store
    import io
    import time
    import numpy
    import numpy as np
    from pathlib import Path

    os.fork()
    os.forkpty()
    sqlite3.connect("results.sqlite")
    time.time()
    time.perf_counter()
    time.monotonic()
    time.process_time()
    time.sleep(0)
    np.load("a.npz")
    np.savez("a.npz", x=1)
    np.savez_compressed("a.npz", x=1)
    numpy.load("a.npz")
    numpy.savez("a.npz", x=1)
    numpy.savez_compressed("a.npz", x=1)
    np.loadtxt("a.txt")


    def tail(journal_path, journal_file, cfg, path, journal):
        import sqlite3
        handle = open(journal_path)
        fd = os.open(journal_file, os.O_RDONLY)
        stream = io.open(cfg.journal)
        plain = open(path)
        bare = open()
        owned = Path(journal).open()
        t0 = 1.0 + time.perf_counter()
        return handle, fd, stream, plain, bare, owned, t0


    import sockets, multiprocessingx, concurrentx, sqlite3x, http.serverx
    """
)

#: rule id -> (the rule's home under a scratch root, sorted (line, col)
#: of its findings in CONFINEMENT_FIXTURE linted outside every home).
CONFINEMENT_PARITY = {
    "PAR001": ("parallel/fixture.py", [
        (1, 0), (2, 0), (3, 0), (3, 0), (4, 0), (5, 0), (25, 0), (26, 0),
    ]),
    "SRV001": ("serve/fixture.py", [
        (6, 0), (6, 0), (9, 0), (10, 0), (12, 0),
    ]),
    "SRV002": ("serve/journal.py", [(44, 13), (45, 9), (46, 13)]),
    "EVAL001": ("evals/store.py", [
        (13, 0), (14, 0), (15, 0), (27, 0), (43, 4),
    ]),
    "OBS001": ("telemetry/fixture.py", [
        (28, 0), (29, 0), (30, 0), (31, 0), (50, 15),
    ]),
    "RES003": ("utils/serialization.py", [
        (33, 0), (34, 0), (35, 0), (36, 0), (37, 0), (38, 0),
    ]),
}


@pytest.mark.parametrize("rid", sorted(CONFINEMENT_PARITY))
def test_confinement_findings_outside_and_at_home(tmp_path, rid):
    home, expected = CONFINEMENT_PARITY[rid]
    found = {}
    for rel in ("lib/fixture.py", home):
        path = tmp_path / rel
        path.parent.mkdir()
        path.write_text(CONFINEMENT_FIXTURE)
        report = LintEngine(select=[rid]).run([path])
        found[rel] = sorted((f.rule, f.line, f.col) for f in report.findings)
    assert found["lib/fixture.py"] == [(rid, line, col) for line, col in expected]
    assert found[home] == []


@pytest.mark.parametrize("rid, package", [
    ("PAR001", "parallel"), ("SRV001", "serve"), ("OBS001", "telemetry"),
])
def test_checkout_below_a_home_named_directory_is_not_exempt(
        tmp_path, rid, package):
    # Only the file's own directory makes it part of a home package: a
    # whole tree checked out under .../telemetry/ keeps its findings.
    path = tmp_path / package / "project" / "lib" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text(CONFINEMENT_FIXTURE)
    report = LintEngine(select=[rid]).run([path])
    assert len(report.findings) == len(CONFINEMENT_PARITY[rid][1])


@pytest.mark.parametrize("rid, module", [
    ("EVAL001", "notevals/store.py"),
    ("RES003", "myutils/serialization.py"),
    ("SRV002", "preserve/journal.py"),
])
def test_lookalike_module_is_not_a_home(tmp_path, rid, module):
    path = tmp_path / module
    path.parent.mkdir()
    path.write_text(CONFINEMENT_FIXTURE)
    report = LintEngine(select=[rid]).run([path])
    assert len(report.findings) == len(CONFINEMENT_PARITY[rid][1])


def test_runtime_packages_do_not_import_the_lint_engine():
    code = (
        "import sys, repro.tensor, repro.experiments, repro.evals, repro.serve\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


class TestEngineConfig:
    def test_select_restricts_rules(self):
        findings = lint(
            """
            import numpy as np
            def f(items=[]):
                return np.random.rand(3)
            """,
            select=["MUT001"],
        )
        assert rule_ids(findings) == {"MUT001"}

    def test_ignore_disables_rule(self):
        engine = LintEngine(ignore=["RNG001"])
        findings, _ = engine.check_source("import numpy as np\nx = np.random.rand(3)\n")
        assert "RNG001" not in rule_ids(findings)

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            LintEngine(select=["NOPE999"])

    def test_context_merges_node_types_in_walk_order(self):
        source = "async def a():\n    def b():\n        pass\ndef c():\n    pass\n"
        ctx = ModuleContext("m.py", source, ast.parse(source))
        merged = ctx.of(ast.FunctionDef, ast.AsyncFunctionDef)
        assert [f.name for f in merged] == ["a", "c", "b"]
        assert [f.name for f in ctx.of(ast.FunctionDef)] == ["c", "b"]
        assert not ctx.of(ast.ClassDef)

    def test_registry_has_sixteen_rules(self):
        assert len(all_rules()) == 16
        assert len(rule_index()) == 16


# ----------------------------------------------------------------------
# Acceptance: fixture tree with one violation per rule, both formats
# ----------------------------------------------------------------------
VIOLATION_FIXTURES = {
    "RNG001": "import numpy as np\nx = np.random.rand(3)\n",
    "RNG002": "import numpy as np\nrng = np.random.default_rng()\n",
    "MUT001": "def f(items=[]):\n    return items\n",
    "MUT002": "def f(x):\n    x[0] = 1\n",
    "GRAD001": "def predict(model, images):\n    return model(images)\n",
    "VAL001": (
        "class S:\n    def fit_resample(self, x, y):\n        return x, y\n"
    ),
    "OBS001": "import time\nt0 = time.perf_counter()\n",
    "PAR001": "import multiprocessing\npool = multiprocessing.Pool(4)\n",
    "SRV001": "import socketserver\n",
    "SRV002": (
        "def tail(journal_path):\n"
        "    return open(journal_path).read()\n"
    ),
    "EVAL001": 'import sqlite3\nconn = sqlite3.connect("x.db")\n',
    "NOQA001": "x = 1  # repro: noqa[RNG001]\n",
    "RES001": (
        "def dump(path, payload):\n"
        '    with open(path, "w") as fh:\n'
        "        fh.write(payload)\n"
    ),
    "RES002": (
        "def risky():\n    try:\n        return 1\n"
        "    except ValueError:\n        pass\n"
    ),
    "RES003": (
        "import numpy as np\n"
        "def restore(path):\n    return np.load(path)\n"
    ),
}


@pytest.fixture
def violation_tree(tmp_path):
    for rid, source in VIOLATION_FIXTURES.items():
        (tmp_path / ("viol_%s.py" % rid.lower())).write_text(source)
    return tmp_path


class TestViolationTree:
    def test_one_finding_per_rule(self, violation_tree):
        report = LintEngine().run([violation_tree])
        assert rule_ids(report.findings) == set(VIOLATION_FIXTURES)

    def test_text_format_has_file_line(self, violation_tree):
        report = LintEngine().run([violation_tree])
        text = report.format_text()
        for f in report.findings:
            assert "%s:%d:" % (f.path, f.line) in text

    def test_json_format_has_file_line(self, violation_tree):
        report = LintEngine().run([violation_tree])
        payload = json.loads(report.format_json())
        assert payload["errors"] > 0
        assert set(f["rule"] for f in payload["findings"]) == set(VIOLATION_FIXTURES)
        for f in payload["findings"]:
            assert f["path"] and f["line"] >= 1

    def test_cli_exits_nonzero_text(self, violation_tree, capsys):
        code = lint_main(["--strict", str(violation_tree)])
        assert code == 1
        out = capsys.readouterr().out
        assert "RNG001" in out and ":%d:" % 2 in out

    def test_cli_exits_nonzero_json(self, violation_tree, capsys):
        code = lint_main(["--strict", "--format", "json", str(violation_tree)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["findings"]) >= len(VIOLATION_FIXTURES)

    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text('"""Clean module."""\nX = 1\n')
        assert lint_main(["--strict", str(tmp_path)]) == 0

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in VIOLATION_FIXTURES:
            assert rid in out

    def test_cli_bad_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope.txt")]) == 2

    def test_cli_lints_a_file_named_twice_once(self, tmp_path, capsys):
        target = tmp_path / "f.py"
        target.write_text("import numpy as np\n\nnp.random.rand(3)\n")
        assert lint_main([str(target), str(target)]) == 1
        out = capsys.readouterr().out
        assert out.count("[RNG001]") == 1
        assert "1 file(s) checked: 1 error(s)" in out

    def test_cli_overlapping_paths_count_as_the_directory(self, capsys):
        package = Path(repro.__file__).parent / "analysis"

        def counts(*paths):
            lint_main(["--format", "json", *map(str, paths)])
            return json.loads(capsys.readouterr().out)

        alone = counts(package)
        assert alone["files_checked"] > 1 and alone["suppressed"] > 0
        assert counts(package, package / "engine.py", package) == alone
