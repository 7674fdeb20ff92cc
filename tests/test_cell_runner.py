"""``run_cells`` gives the same outcomes at one worker and at many.

One batch holds every kind of outcome a cell can settle with, so the
failure payloads, the retry accounting and the resume path are compared
across worker counts, not only the happy path.  A tripped breaker is
left to ``test_guard.py``: above one worker, which cells it
short-circuits depends on completion order.
"""

import pytest

from repro.parallel import PoolInterrupted, run_cells
from repro.resilience import CellFailure, DivergenceError, RetryPolicy, \
    RunRegistry


def _mixed_tasks():
    def done(_attempt):
        return {"bac": 0.5}

    def diverges(_attempt):
        raise DivergenceError("nan loss", epoch=0, batch=3)

    def crashes(_attempt):
        raise RuntimeError("loss diverged")

    def already_recorded(_attempt):
        return {"bac": -1.0}  # never runs: the registry holds this cell

    return [("grid/done", done), ("grid/retry", diverges),
            ("grid/crash", crashes), ("grid/resumed", already_recorded)]


def _run_mixed(root, workers):
    registry = RunRegistry(root)
    registry.record_cell("grid/resumed", {"bac": 0.9})
    outcomes = run_cells(_mixed_tasks(), registry=registry,
                         retry_policy=RetryPolicy(max_retries=1),
                         max_workers=workers)
    comparable = [out.to_payload() if isinstance(out, CellFailure) else out
                  for out in outcomes]
    return comparable, registry.manifest["cells"]


def test_every_outcome_kind_matches_across_worker_counts(tmp_path):
    serial, serial_cells = _run_mixed(tmp_path / "serial", 1)
    forked, forked_cells = _run_mixed(tmp_path / "forked", 2)

    assert serial == [
        {"bac": 0.5},
        {"reason": serial[1]["reason"], "error_type": "DivergenceError",
         "attempts": 2},
        {"reason": "loss diverged", "error_type": "RuntimeError",
         "attempts": 1},
        {"bac": 0.9},
    ]
    assert forked == serial
    assert forked_cells == serial_cells


def test_one_worker_interrupt_names_settled_and_pending_cells(tmp_path):
    registry = RunRegistry(tmp_path / "run")

    def interrupted(_attempt):
        raise KeyboardInterrupt

    tasks = [("grid/a", lambda _attempt: {"value": 1}),
             ("grid/b", interrupted),
             ("grid/c", lambda _attempt: {"value": 3})]
    # Catch the base class: a bare KeyboardInterrupt escaping a narrower
    # pytest.raises would abort the whole session.
    with pytest.raises(KeyboardInterrupt) as info:
        run_cells(tasks, registry=registry, max_workers=1)

    assert isinstance(info.value, PoolInterrupted)
    assert info.value.completed == [0]
    assert info.value.pending == [1, 2]
    assert registry.cell_statuses() == {"grid/a": "done"}
