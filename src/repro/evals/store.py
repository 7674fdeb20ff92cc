"""Append-only sqlite result store: every finished run, across runs.

One :class:`ResultStore` owns one sqlite database (WAL mode,
schema-versioned) accumulating experiment history:

* ``runs`` — one row per finished ``run_matrix`` invocation: view,
  spec/plan snapshots, config + git fingerprint, final report, wall
  time;
* ``cells`` — one row per recorded cell outcome, unique per
  ``(run_id, cell_id, status)``;
* ``telemetry`` — the metrics snapshot captured as a run finished;
* ``bench`` — ingested benchmark records (``perfbench/bench.py --out``
  files), so the perf-trajectory view can diff speed against prior
  recorded runs.

``run_matrix`` writes a run once, when it has finished: one
:meth:`ResultStore.record_run` transaction holds the run row (as
``complete``), its cells and its telemetry, so a killed run leaves
nothing here.  Its progress lives in the checkpoint manifest of its
:class:`~repro.resilience.RunRegistry`, and the resumed run is
recorded once it finishes.  Rows are never updated or deleted once
written.  Stores written by older code may still hold ``running``
rows, and runs that re-bound to them on resume; the read side
(:mod:`repro.evals.report`) prefers complete runs and refuses to
regenerate a run with missing cells.

EVAL001 pins every other module to this file: direct
``sqlite3.connect`` elsewhere would bypass the schema versioning and
the append-only discipline.
"""

from __future__ import annotations

import json
import os
import sqlite3

from ..telemetry import wall_time

__all__ = ["EvalsStoreError", "ResultStore", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id        INTEGER PRIMARY KEY,
    view          TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'running',
    fingerprint   TEXT,
    git_sha       TEXT,
    config_json   TEXT,
    spec_json     TEXT,
    plan_json     TEXT,
    extras_json   TEXT,
    report        TEXT,
    seconds       REAL,
    created_wall  REAL NOT NULL,
    finished_wall REAL
);
CREATE TABLE IF NOT EXISTS cells (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(run_id),
    position      INTEGER NOT NULL,
    cell_id       TEXT NOT NULL,
    key_json      TEXT NOT NULL,
    status        TEXT NOT NULL,
    payload_json  TEXT NOT NULL,
    recorded_wall REAL NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS cells_run_cell_status
    ON cells(run_id, cell_id, status);
CREATE TABLE IF NOT EXISTS telemetry (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(run_id),
    snapshot_json TEXT NOT NULL,
    recorded_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS bench (
    id            INTEGER PRIMARY KEY,
    name          TEXT NOT NULL,
    source        TEXT,
    payload_json  TEXT NOT NULL,
    ingested_wall REAL NOT NULL
);
"""


class EvalsStoreError(RuntimeError):
    """Schema mismatch or an impossible store operation."""


def _json(value):
    return json.dumps(value, sort_keys=True, default=_coerce)


def _json_or_none(value):
    return None if value is None else _json(value)


def _coerce(value):
    # numpy scalars reach payloads from metric dicts; their float/int
    # conversion is exact for the dtypes the metrics layer produces.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError("not JSON serializable: %r" % (value,))


class ResultStore:
    """Queryable append-only archive of experiment-matrix runs."""

    def __init__(self, path):
        self.path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise EvalsStoreError(
                    "store %s has schema version %s; this code reads "
                    "version %d" % (self.path, row["value"], SCHEMA_VERSION)
                )

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def record_run(self, view, fingerprint=None, spec=None, plan=None,
                   config=None, git_sha=None, report=None, extras=None,
                   cells=(), telemetry=None, seconds=None):
        """Record one finished run, its cells and telemetry; return its id.

        One transaction: a run is in the store whole, as ``complete``,
        or not at all.  ``cells`` are ``{"position", "cell_id", "key",
        "status", "payload"}`` dicts, inserted with ``INSERT OR IGNORE``
        against the ``(run_id, cell_id, status)`` unique index.
        """
        now = wall_time()
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs(view, status, fingerprint, git_sha, "
                "config_json, spec_json, plan_json, extras_json, report, "
                "seconds, created_wall, finished_wall) "
                "VALUES (?, 'complete', ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (view, fingerprint, git_sha, _json_or_none(config),
                 _json_or_none(spec), _json_or_none(plan),
                 _json_or_none(extras), report, seconds, now, now),
            )
            run_id = cursor.lastrowid
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells(run_id, position, cell_id, "
                "key_json, status, payload_json, recorded_wall) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(run_id, row["position"], row["cell_id"],
                  _json(list(row["key"])), row["status"],
                  _json(row["payload"]), now) for row in cells],
            )
            if telemetry is not None:
                self._conn.execute(
                    "INSERT INTO telemetry(run_id, snapshot_json, "
                    "recorded_wall) VALUES (?, ?, ?)",
                    (run_id, _json(telemetry), now),
                )
        return run_id

    def run_row(self, run_id):
        """The full ``runs`` row, or None."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def runs(self, view=None):
        """All run rows (optionally one view), oldest first."""
        if view is None:
            rows = self._conn.execute(
                "SELECT * FROM runs ORDER BY run_id"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM runs WHERE view=? ORDER BY run_id", (view,)
            ).fetchall()
        return [dict(row) for row in rows]

    def latest_run_id(self, view, status=None):
        """Newest run id for a view (optionally restricted by status)."""
        query = "SELECT run_id FROM runs WHERE view=?"
        params = [view]
        if status is not None:
            query += " AND status=?"
            params.append(status)
        row = self._conn.execute(
            query + " ORDER BY run_id DESC LIMIT 1", params
        ).fetchone()
        return row["run_id"] if row is not None else None

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cell_rows(self, run_id):
        """Every raw cell row of a run, in insertion order."""
        rows = self._conn.execute(
            "SELECT * FROM cells WHERE run_id=? ORDER BY id", (run_id,)
        ).fetchall()
        return [dict(row) for row in rows]

    def cell_results(self, run_id):
        """Best outcome per cell id: a ``done`` row wins over ``failed``.

        Returns ``{cell_id: {"status", "key", "payload", "position"}}``.
        """
        chosen = {}
        for row in self.cell_rows(run_id):
            prior = chosen.get(row["cell_id"])
            if prior is not None and prior["status"] == "done":
                continue
            chosen[row["cell_id"]] = {
                "status": row["status"],
                "position": row["position"],
                "key": tuple(json.loads(row["key_json"])),
                "payload": json.loads(row["payload_json"]),
            }
        return chosen

    # ------------------------------------------------------------------
    # BENCH history
    # ------------------------------------------------------------------
    def record_bench(self, name, payload, source=None):
        """Append one bench entry (a parsed benchmark record file)."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO bench(name, source, payload_json, "
                "ingested_wall) VALUES (?, ?, ?, ?)",
                (name, source, _json(payload), wall_time()),
            )

    def bench_rows(self, name=None):
        """Ingested bench entries, oldest first."""
        if name is None:
            rows = self._conn.execute(
                "SELECT * FROM bench ORDER BY id"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM bench WHERE name=? ORDER BY id", (name,)
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    def telemetry_rows(self, run_id):
        """Telemetry snapshots recorded for a run."""
        rows = self._conn.execute(
            "SELECT * FROM telemetry WHERE run_id=? ORDER BY id", (run_id,)
        ).fetchall()
        return [dict(row) for row in rows]

    def summary(self):
        """One-line human summary of the store's contents."""
        runs = self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        cells = self._conn.execute(
            "SELECT COUNT(*) AS n FROM cells"
        ).fetchone()
        bench = self._conn.execute(
            "SELECT COUNT(*) AS n FROM bench"
        ).fetchone()
        return "%d run(s), %d cell row(s), %d bench entr(ies) in %s" % (
            runs["n"], cells["n"], bench["n"], self.path,
        )
