"""Tests for repro.telemetry: tracer round-trips, metrics accuracy on a
known-size fine-tune, the no-op overhead guard (telemetry off must be
allocation-free and byte-identical), RunResult and run_matrix's runner
span, the unified sampler API, the tensor-op profiler, and the `repro-trace`
CLI."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    get_metrics,
    get_tracer,
    load_trace,
    profile_ops,
    render_trace_report,
    set_metrics,
    set_tracer,
    summarize_trace,
)


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Every test starts and ends with telemetry uninstalled."""
    set_tracer(None)
    set_metrics(None)
    yield
    set_tracer(None)
    set_metrics(None)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def imbalanced():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.normal(0.0, 0.5, size=(40, 3)), rng.normal(5.0, 0.5, size=(12, 3))]
    )
    y = np.array([0] * 40 + [1] * 12)
    return x, y


# ----------------------------------------------------------------------
# Tracer core semantics
# ----------------------------------------------------------------------
class TestTracerCore:
    def test_nested_spans_record_depth_and_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        inner, outer = tracer.records
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert inner["parent"] == "outer" and inner["attrs"] == {"k": 1}
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["parent"] is None
        assert outer["dur"] > inner["dur"] > 0

    def test_span_set_merges_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("cell", cell="t2/a") as span:
            span.set(outcome="done", attempts=1)
        record = tracer.records[0]
        assert record["attrs"] == {
            "cell": "t2/a", "outcome": "done", "attempts": 1,
        }

    def test_exception_stamps_error_attr(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("phase1"):
                raise RuntimeError("boom")
        assert tracer.records[0]["attrs"]["error"] == "RuntimeError"

    def test_events_are_instantaneous_markers(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("divergence", epoch=3, batch=17)
        record = tracer.records[0]
        assert record["type"] == "event" and record["name"] == "divergence"
        assert record["attrs"] == {"epoch": 3, "batch": 17}

    def test_flush_closes_dangling_spans(self):
        tracer = Tracer(clock=FakeClock())
        tracer.span("orphan").__enter__()
        records = tracer.flush()
        orphan = [r for r in records if r.get("name") == "orphan"][0]
        assert orphan["attrs"]["unclosed"] is True
        assert records[-1]["type"] == "metrics"


# ----------------------------------------------------------------------
# Satellite: trace round-trip through a JSONL file
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_session_flushes_jsonl_that_summarizes(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            with tracer.span("phase1", loss="ce"):
                with tracer.span("train.epoch", epoch=0):
                    pass
            with tracer.span(
                "sampler.fit_resample", sampler="SMOTE", n_synthetic=38
            ):
                pass
            with tracer.span("cell", cell="t2/a") as span:
                span.set(outcome="done", attempts=2)
            tracer.event("divergence", epoch=1)
            get_metrics().counter("cache.hits").inc(3)

        # Every line is one JSON object; the loader reproduces the
        # in-memory record list exactly.
        lines = out.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == telemetry.load_trace(
            str(out)
        )
        records = load_trace(str(out))
        assert len(records) == len(lines)

        summary = summarize_trace(str(out))
        assert summary["n_spans"] == 4 and summary["n_events"] == 1
        assert summary["phases"]["phase1"]["count"] == 1
        assert summary["phases"]["phase2"]["count"] == 1
        assert summary["cells"] == [{
            "cell": "t2/a",
            "seconds": summary["cells"][0]["seconds"],
            "outcome": "done",
            "attempts": 2,
        }]
        assert summary["samplers"]["SMOTE"]["calls"] == 1
        assert summary["samplers"]["SMOTE"]["synthetic"] == 38
        assert summary["counters"] == {"cache.hits": 3}

    def test_session_restores_previous_instruments(self):
        outer_tracer = Tracer()
        set_tracer(outer_tracer)
        set_metrics(MetricsRegistry())
        with telemetry.session() as inner:
            assert get_tracer() is inner
            assert inner is not outer_tracer
        assert get_tracer() is outer_tracer

    def test_nested_sampler_spans_not_double_counted(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("sampler.fit_resample", sampler="SMOTEENN"):
            with tracer.span("sampler.fit_resample", sampler="SMOTE"):
                pass
        spans = [r for r in tracer.records if r["type"] == "span"]
        phases = summarize_trace(spans)["phases"]
        assert phases["phase2"]["count"] == 1

    def test_corrupt_trace_lines_are_skipped_and_counted(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            with tracer.span("phase1"):
                pass
            tracer.event("divergence", epoch=1)
        # A crash mid-flush tears the file: garbage line, a non-object
        # line, and a truncated final record.
        lines = out.read_text().splitlines()
        lines.insert(1, "\x00\x00 not json \x00")
        lines.insert(2, '"a bare string, not a record"')
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        out.write_text("\n".join(lines))

        seen = []
        records = load_trace(str(out), on_corrupt=lambda n, line: seen.append(n))
        assert seen == [2, 3, len(lines)]
        assert all(isinstance(r, dict) for r in records)

        summary = summarize_trace(str(out))
        assert summary["corrupt_lines"] == 3
        assert summary["n_spans"] == 1 and summary["n_events"] == 1
        report = render_trace_report(summary)
        assert "WARNING: skipped 3 corrupt/truncated trace line(s)" in report

    def test_clean_trace_reports_no_corruption(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            with tracer.span("phase1"):
                pass
        summary = summarize_trace(str(out))
        assert summary["corrupt_lines"] == 0
        assert "WARNING" not in render_trace_report(summary)

    def test_serve_events_render_in_report(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("serve.started", pid=1, socket="s.sock", recovered=2)
        tracer.event("serve.shed", reason="queue_full", client="c", depth=4)
        tracer.event("serve.breaker_opened", kind="fail", signature="boom")
        tracer.event("serve.journal_corrupt", lines=2)
        tracer.event("serve.stopped", reason="SIGTERM", depth=0)
        summary = summarize_trace(tracer.records)
        assert summary["serve"]["shed"] == 1
        assert summary["serve"]["journal_corrupt"] == 2
        assert [e["event"] for e in summary["serve"]["lifecycle"]] == [
            "serve.started", "serve.stopped",
        ]
        report = render_trace_report(summary)
        assert "Serve (daemon lifecycle / admission / breakers):" in report
        assert "1 request(s) shed by admission control" in report
        assert "breaker opened for kind fail: boom" in report
        assert "2 corrupt journal line(s) skipped on replay" in report

    def test_render_report_lists_every_section(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            with tracer.span("phase1"):
                pass
            get_metrics().counter("cells.done").inc()
            get_metrics().histogram("train.epoch_loss").observe(0.5)
        report = render_trace_report(summarize_trace(str(out)))
        for needle in ("Per-phase wall time", "Spans by name", "Counters",
                       "Histograms"):
            assert needle in report


# ----------------------------------------------------------------------
# Satellite: metrics accuracy on a known-size fine-tune
# ----------------------------------------------------------------------
class TestMetricsAccuracy:
    def test_finetune_counts_match_known_sizes(self):
        from repro.core import finetune_classifier
        from repro.nn import SmallConvNet

        rng = np.random.default_rng(3)
        n, epochs, batch_size = 50, 3, 16
        emb = rng.normal(size=(n, 16))
        labels = rng.integers(0, 3, size=n)
        model = SmallConvNet(num_classes=3, width=4, rng=rng)

        with telemetry.session():
            history = finetune_classifier(
                model, emb, labels, epochs=epochs, batch_size=batch_size,
                rng=np.random.default_rng(0),
            )
            snap = get_metrics().snapshot()

        batches_per_epoch = -(-n // batch_size)  # ceil
        assert snap["counters"]["finetune.batches"] == epochs * batches_per_epoch
        curve = snap["histograms"]["finetune.epoch_loss"]
        assert curve["count"] == epochs
        assert curve["series"] == [record["loss"] for record in history]

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("seconds", series=True)
        for value in (2.0, 1.0, 3.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3 and summary["sum"] == 6.0
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == 2.0 and summary["last"] == 3.0
        assert summary["series"] == [2.0, 1.0, 3.0]


# ----------------------------------------------------------------------
# Satellite: no-op overhead guard
# ----------------------------------------------------------------------
class TestNoOpOverhead:
    def test_default_instruments_are_shared_null_singletons(self):
        assert isinstance(get_tracer(), NullTracer)
        assert isinstance(get_metrics(), NullMetricsRegistry)
        assert not telemetry.telemetry_enabled()
        # Disabled calls return shared objects — no per-call allocation.
        tracer = get_tracer()
        assert tracer.span("a") is tracer.span("b", k=1)
        registry = get_metrics()
        assert registry.counter("a") is registry.histogram("b", series=True)
        assert registry.counter("a").inc() == 0
        assert tracer.flush() == []

    def test_disabled_sampler_output_is_byte_identical(self, imbalanced):
        from repro.sampling import SMOTE

        x, y = imbalanced
        x_off, y_off = SMOTE(random_state=0).fit_resample(x, y)
        with telemetry.session():
            x_on, y_on = SMOTE(random_state=0).fit_resample(x, y)
        assert np.array_equal(x_off, x_on)
        assert np.array_equal(y_off, y_on)

    def test_disabled_finetune_history_is_identical(self):
        from repro.core import finetune_classifier
        from repro.nn import SmallConvNet

        emb = np.random.default_rng(5).normal(size=(30, 16))
        labels = np.array([0, 1, 2] * 10)

        def run():
            model = SmallConvNet(
                num_classes=3, width=4, rng=np.random.default_rng(9)
            )
            return finetune_classifier(
                model, emb, labels, epochs=2, batch_size=8,
                rng=np.random.default_rng(0),
            )

        baseline = run()
        with telemetry.session():
            traced = run()
        assert [r["loss"] for r in baseline] == [r["loss"] for r in traced]


# ----------------------------------------------------------------------
# Satellite: RunResult and run_matrix's runner span
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def runner_cache():
    """One micro phase-1 extractor shared by the run_matrix span tests."""
    from repro.experiments import ExtractorCache

    return ExtractorCache()


class TestRunResult:
    def test_dict_consumers_see_original_keys(self):
        from repro.experiments import RunResult

        out = RunResult({"results": {"a": {"acc": 0.9}}, "report": "table"})
        assert out["report"] == "table"
        assert out["results"]["a"]["acc"] == 0.9
        assert "results" in out and "report" in out
        assert set(dict(out)) == {"results", "report", "telemetry", "degraded"}
        assert len(out) == 4

    def test_structured_fields(self):
        from repro.experiments import RunResult

        out = RunResult({"results": {}, "report": "r"}, telemetry={"seconds": 1.0})
        assert out.report == "r"
        assert out.cells == {}
        assert out.telemetry == {"seconds": 1.0}
        assert out.degraded == []

    def test_degraded_lists_cell_failures(self):
        from repro.experiments import RunResult
        from repro.resilience import CellFailure

        out = RunResult({
            "results": {
                "ok": {"acc": 0.9},
                "bad": CellFailure("diverged", "DivergenceError", attempts=3),
            },
            "report": "",
        })
        assert out.degraded == ["bad"]
        assert "degraded=1" in repr(out)

    @pytest.mark.parametrize("view, axes", [
        ("table2", {"losses": ("ce",), "samplers": ("none",)}),
        ("figure4", {}),
    ], ids=["table2", "figure4"])
    def test_run_matrix_wraps_runner_span(self, view, axes, runner_cache):
        from repro.evals import MatrixSpec, run_matrix
        from repro.experiments import bench_config

        spec = MatrixSpec(view, config=bench_config(
            phase1_epochs=2, finetune_epochs=2, model_kwargs={"width": 4}
        ), **axes)
        out = run_matrix(spec, cache=runner_cache)
        assert out.telemetry["runner"] == view
        assert out.telemetry["enabled"] is False
        assert out.telemetry["seconds"] >= 0.0
        assert "metrics" not in out.telemetry

        with telemetry.session() as tracer:
            traced = run_matrix(spec, cache=runner_cache)
            assert "metrics" in traced.telemetry
        top = [r for r in tracer.records
               if r.get("name") == "runner" and r["depth"] == 0]
        assert len(top) == 1 and top[0]["attrs"]["runner"] == view


# ----------------------------------------------------------------------
# Satellite: unified sampler API
# ----------------------------------------------------------------------
def _all_sampler_classes():
    from repro.core import EOS
    from repro.sampling import (
        ADASYN,
        CCR,
        SMOTE,
        SMOTEENN,
        SWIM,
        BalancedSVMSampler,
        BorderlineSMOTE,
        EditedNearestNeighbors,
        RadialBasedOversampler,
        RandomOverSampler,
        RandomUnderSampler,
        Remix,
        SMOTETomek,
        TomekLinks,
    )

    return [
        RandomOverSampler, RandomUnderSampler, SMOTE, BorderlineSMOTE,
        ADASYN, BalancedSVMSampler, Remix, RadialBasedOversampler, CCR,
        SWIM, TomekLinks, EditedNearestNeighbors, SMOTEENN, SMOTETomek,
        EOS,
    ]


class TestUnifiedSamplerAPI:
    @pytest.mark.parametrize(
        "cls", _all_sampler_classes(), ids=lambda c: c.__name__
    )
    def test_get_params_reconstructs_equivalent_sampler(self, cls, imbalanced):
        sampler = cls()
        params = sampler.get_params()
        assert isinstance(params, dict)
        clone = cls(**params)
        assert clone.get_params() == params
        x, y = imbalanced
        xa, ya = sampler.fit_resample(x, y)
        xb, yb = clone.fit_resample(x, y)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    @pytest.mark.parametrize(
        "cls", _all_sampler_classes(), ids=lambda c: c.__name__
    )
    def test_repr_names_class_and_params(self, cls):
        sampler = cls()
        text = repr(sampler)
        assert text.startswith(cls.__name__ + "(")
        for key in sampler.get_params():
            assert key + "=" in text

    def test_fit_resample_emits_span_with_class_histogram(self, imbalanced):
        from repro.sampling import SMOTE

        x, y = imbalanced
        with telemetry.session() as tracer:
            SMOTE(random_state=0).fit_resample(x, y)
            snap = get_metrics().snapshot()
        spans = [
            r for r in tracer.records
            if r.get("name") == "sampler.fit_resample"
        ]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["sampler"] == "SMOTE"
        assert attrs["n_in"] == 52 and attrs["n_out"] == 80
        assert attrs["n_synthetic"] == 28
        assert attrs["classes_in"] == {0: 40, 1: 12}
        assert attrs["classes_out"] == {0: 40, 1: 40}
        assert snap["counters"]["sampler.synthetic.class_1"] == 28
        assert snap["counters"]["sampler.fit_resample.calls"] == 1
        assert snap["histograms"]["sampler.SMOTE.seconds"]["count"] == 1

    def test_template_validates_before_delegating(self):
        from repro.sampling import SMOTE

        with pytest.raises(ValueError):
            SMOTE().fit_resample(np.zeros((3, 2)), np.zeros(2))


# ----------------------------------------------------------------------
# Opt-in tensor-op profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_collects_forward_backward_and_layer_stats(self):
        from repro.nn import Linear
        from repro.tensor import Tensor

        layer = Linear(4, 2, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        assert not telemetry.is_profiling()
        with profile_ops() as prof:
            assert telemetry.is_profiling()
            loss = layer(x).sum()
            loss.backward()
        assert not telemetry.is_profiling()
        stats = prof.stats()
        assert sum(stats["forward_ops"].values()) > 0
        assert stats["layers"]["Linear"]["count"] == 1
        assert stats["layers"]["Linear"]["seconds"] >= 0.0
        assert all(e["count"] >= 1 for e in stats["backward"].values())

    def test_profile_lands_in_trace_as_event(self):
        from repro.tensor import Tensor

        with telemetry.session() as tracer:
            with profile_ops():
                t = Tensor(np.ones((2, 2)), requires_grad=True)
                (t * 2.0).sum().backward()
        events = [r for r in tracer.records if r.get("type") == "event"]
        assert [e["name"] for e in events] == ["profile"]
        assert events[0]["attrs"]["forward_ops"]

    def test_disabled_profiler_leaves_tensor_ops_untouched(self):
        from repro.tensor import Tensor

        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (t * 3.0).sum()
        out.backward()
        assert profile_ops.stats() is not None  # stats readable anytime


# ----------------------------------------------------------------------
# repro-trace CLI
# ----------------------------------------------------------------------
class TestTraceCLI:
    def test_summarizes_trace_file(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as trace_main

        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            with tracer.span("phase1"):
                pass
        assert trace_main([str(out)]) == 0
        text = capsys.readouterr().out
        assert "span(s)" in text and "phase1" in text

    def test_json_format(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as trace_main

        out = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(out)) as tracer:
            tracer.event("divergence", epoch=0)
        assert trace_main(["--format", "json", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as trace_main

        assert trace_main([str(tmp_path / "nope.jsonl")]) == 2
