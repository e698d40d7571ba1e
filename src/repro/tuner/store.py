"""Durable per-job-signature run history (the tuner's memory).

RushTI keeps a tiny SQLite table of past task durations and orders future
work by EWMA estimates learned from it; HFSP trains per-signature size
stats from completed runs. :class:`RunHistoryStore` is that idea for
MRapid's *mode* decision: every finished run is recorded under its
``(signature, mode)`` cell — elapsed service time, AM overhead, the mean
per-map phase breakdown (the same sub-phase vocabulary as
:class:`repro.history.PhaseBreakdown`), and the outcome.

:meth:`RunHistoryStore.stats` folds a cell's successful runs into a
:class:`~repro.metrics.SignatureStats` — the one learner the picker,
HFSP and serving admission share — so the picker can answer "how long does
a ``scan`` take under U+ on this cluster?" from measurements instead of
the static Eq. 1–3 model. :meth:`RunHistoryStore.warm` seeds HFSP's and
admission's per-signature tables from the same folds before a replay.

Three backends share one API, selected by path:

* SQLite (any other path) — the durable default; WAL journaling plus a
  busy timeout make two replay processes sharing one file safe, and each
  ``record`` is its own transaction so a crash never corrupts the ring.
* JSON (``*.json``) — a fallback for environments without the ``sqlite3``
  stdlib module: read-merge-write under an exclusive ``.lock`` file,
  written atomically (tmp + rename) so readers never see a torn file.
* memory (``":memory:"`` or ``None``) — learning without persistence.

The store is schema-versioned (``SCHEMA_VERSION``): opening a v0 JSON
file (the flat ``{"version": 0, "history": [...]}`` layout) migrates it
in place; opening a file stamped *newer* than this code refuses loudly
rather than guessing. Every ``(signature, mode)`` cell is a bounded ring:
only the ``ring_size`` most recent runs are retained, so a history file
fed by months of replays stays O(signatures × modes × ring_size).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from ..metrics import SignatureStats

if TYPE_CHECKING:  # pragma: no cover
    from ..mapreduce.spec import JobResult

try:  # the container may lack the sqlite3 stdlib extension; gate, not crash
    import sqlite3
except ImportError:  # pragma: no cover - exercised only on minimal builds
    sqlite3 = None  # type: ignore[assignment]

#: Run outcomes the store accepts (mirrors the replay driver's accounting).
OUTCOME_SUCCESS = "success"
OUTCOME_KILLED = "killed"
OUTCOME_FAILED = "failed"
OUTCOMES = (OUTCOME_SUCCESS, OUTCOME_KILLED, OUTCOME_FAILED)

#: Phase keys persisted per run (mean seconds per finished map task).
PHASE_FIELDS = ("wait", "launch", "setup", "read", "compute", "spill",
                "merge", "shuffle", "write")

_LOCK_TIMEOUT_S = 30.0
_LOCK_POLL_S = 0.01


@dataclass(frozen=True)
class RunRecord:
    """One completed (or aborted) run of a job signature under one mode."""

    signature: str
    mode: str
    elapsed_s: float
    outcome: str = OUTCOME_SUCCESS
    input_mb: float = 0.0
    am_overhead_s: float = 0.0
    phases: Mapping[str, float] = field(default_factory=dict)
    finished_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.signature or not self.mode:
            raise ValueError("signature and mode must be non-empty")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}; "
                             f"use one of {OUTCOMES}")
        if self.elapsed_s < 0:
            raise ValueError("elapsed_s cannot be negative")

    @property
    def success(self) -> bool:
        return self.outcome == OUTCOME_SUCCESS

    def to_dict(self) -> dict:
        return {
            "elapsed_s": round(self.elapsed_s, 9),
            "outcome": self.outcome,
            "input_mb": round(self.input_mb, 9),
            "am_overhead_s": round(self.am_overhead_s, 9),
            "phases": {k: round(float(v), 9)
                       for k, v in sorted(self.phases.items())},
            "finished_at": round(self.finished_at, 9),
        }


def phase_means(result: "JobResult") -> dict[str, float]:
    """Mean seconds per map sub-phase of one result (finished maps only)."""
    finished = [m for m in result.maps if m.finish_time > 0]
    if not finished:
        return {}
    n = len(finished)
    return {name: sum(getattr(m.phases, name) for m in finished) / n
            for name in PHASE_FIELDS}


def record_from_result(result: "JobResult", signature: str, mode: str,
                       input_mb: float = 0.0,
                       finished_at: Optional[float] = None) -> RunRecord:
    """Harvest a :class:`RunRecord` from a finished :class:`JobResult`.

    ``mode`` is the *tuner candidate* label ("stock"/"dplus"/...), not the
    result's concrete mode string — the store learns per decision arm.
    """
    if result.killed:
        outcome = OUTCOME_KILLED
    elif result.failed:
        outcome = OUTCOME_FAILED
    else:
        outcome = OUTCOME_SUCCESS
    return RunRecord(
        signature=signature, mode=mode,
        elapsed_s=max(0.0, result.elapsed), outcome=outcome,
        input_mb=input_mb, am_overhead_s=max(0.0, result.am_overhead),
        phases=phase_means(result),
        finished_at=(result.finish_time if finished_at is None
                     else finished_at))


class RunHistoryStore:
    """Schema-versioned, ring-bounded store of per-(signature, mode) runs."""

    SCHEMA_VERSION = 1

    def __init__(self, path: Optional[str] = None, ring_size: int = 64) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.path = path
        self.ring_size = ring_size
        self._conn = None
        #: signature -> mode -> list[RunRecord] (oldest -> newest); the
        #: authoritative state for the memory/JSON backends and a cache the
        #: SQLite backend keeps in sync with its own writes.
        self._cells: dict[str, dict[str, list[RunRecord]]] = {}
        if path is None or path == ":memory:":
            self.backend = "memory"
        elif path.endswith(".json") or sqlite3 is None:
            self.backend = "json"
            self._load_json()
        else:
            self.backend = "sqlite"
            self._open_sqlite()

    # -- public API ----------------------------------------------------------
    def record(self, rec: RunRecord) -> None:
        """Append one run to its cell; evict beyond the ring bound."""
        if self.backend == "sqlite":
            self._sqlite_insert(rec)
        elif self.backend == "json":
            with self._json_lock():
                self._load_json_unlocked()
                self._cells_append(rec)
                self._write_json_unlocked()
            return
        self._cells_append(rec)

    def runs(self, signature: str, mode: Optional[str] = None,
             outcome: Optional[str] = None) -> list[RunRecord]:
        """Retained runs, oldest first, optionally filtered."""
        modes = self._cells.get(signature, {})
        if mode is not None:
            out = list(modes.get(mode, ()))
        else:
            out = [r for m in sorted(modes) for r in modes[m]]
        if outcome is not None:
            out = [r for r in out if r.outcome == outcome]
        return out

    def count(self, signature: str, mode: str,
              outcome: Optional[str] = None) -> int:
        return len(self.runs(signature, mode, outcome))

    def stats(self, signature: str,
              mode: Optional[str] = None) -> SignatureStats:
        """The successful runs of one cell (every mode's, in mode order,
        when ``mode`` is ``None``) folded oldest-first."""
        stats = SignatureStats()
        for run in self.runs(signature, mode, outcome=OUTCOME_SUCCESS):
            stats.observe(run.elapsed_s)
        return stats

    def warm(self, table: dict[str, SignatureStats]) -> None:
        """Seed ``table`` with :meth:`stats` of every stored signature.

        A learner warmed this way starts a replay where a previous replay
        left it. Signatures already in ``table`` (observed live) and
        signatures without a successful run are left alone.
        """
        for signature in self.signatures():
            if signature not in table:
                stats = self.stats(signature)
                if stats.count:
                    table[signature] = stats

    def signatures(self) -> list[str]:
        return sorted(sig for sig, modes in self._cells.items()
                      if any(modes.values()))

    def modes(self, signature: str) -> list[str]:
        return sorted(m for m, rs in self._cells.get(signature, {}).items()
                      if rs)

    def __len__(self) -> int:
        return sum(len(rs) for modes in self._cells.values()
                   for rs in modes.values())

    def refresh(self) -> None:
        """Re-read the backing file (picks up other writers' records)."""
        if self.backend == "json":
            self._load_json()
        elif self.backend == "sqlite":
            self._load_sqlite()

    def to_dict(self) -> dict:
        """Canonical JSON-stable view (sorted keys, rounded floats)."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "ring_size": self.ring_size,
            "runs": {
                sig: {mode: [r.to_dict() for r in rs]
                      for mode, rs in sorted(modes.items()) if rs}
                for sig, modes in sorted(self._cells.items())
                if any(modes.values())
            },
        }

    def digest(self) -> str:
        """sha256 of the canonical view — the determinism-sanitizer hook."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunHistoryStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- shared cell bookkeeping ----------------------------------------------
    def _cells_append(self, rec: RunRecord) -> None:
        cell = self._cells.setdefault(rec.signature, {}).setdefault(rec.mode, [])
        cell.append(rec)
        if len(cell) > self.ring_size:
            del cell[:len(cell) - self.ring_size]

    # -- SQLite backend -------------------------------------------------------
    def _open_sqlite(self) -> None:
        self._conn = sqlite3.connect(self.path, timeout=_LOCK_TIMEOUT_S)
        self._conn.execute("PRAGMA journal_mode=WAL").close()
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta"
                " (key TEXT PRIMARY KEY, value TEXT)").close()
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                " signature TEXT NOT NULL, mode TEXT NOT NULL,"
                " elapsed_s REAL NOT NULL, outcome TEXT NOT NULL,"
                " input_mb REAL NOT NULL, am_overhead_s REAL NOT NULL,"
                " phases TEXT NOT NULL, finished_at REAL NOT NULL)").close()
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_cell"
                " ON runs(signature, mode, seq)").close()
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'").fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('schema_version', ?)",
                    (str(self.SCHEMA_VERSION),)).close()
            elif int(row[0]) > self.SCHEMA_VERSION:
                raise ValueError(
                    f"history store {self.path!r} is schema v{row[0]}, newer "
                    f"than this code (v{self.SCHEMA_VERSION}); refusing to "
                    f"write")
            elif int(row[0]) < self.SCHEMA_VERSION:
                # v0 predates the versioned layout; same table shape, so
                # migration is a stamp (the JSON backend carries the real
                # layout migration).
                self._conn.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (str(self.SCHEMA_VERSION),)).close()
        self._load_sqlite()

    def _load_sqlite(self) -> None:
        self._cells = {}
        rows = self._conn.execute(
            "SELECT signature, mode, elapsed_s, outcome, input_mb,"
            " am_overhead_s, phases, finished_at FROM runs ORDER BY seq")
        for sig, mode, elapsed, outcome, input_mb, am_ovh, phases, fin in rows:
            self._cells_append(RunRecord(
                signature=sig, mode=mode, elapsed_s=elapsed, outcome=outcome,
                input_mb=input_mb, am_overhead_s=am_ovh,
                phases=json.loads(phases), finished_at=fin))

    def _sqlite_insert(self, rec: RunRecord) -> None:
        # One transaction per record: insert + ring eviction. The busy
        # timeout on the connection serializes concurrent writers; the
        # explicit retry covers the rare lock surfaced as an exception.
        for attempt in range(8):
            try:
                with self._conn:
                    self._conn.execute(
                        "INSERT INTO runs (signature, mode, elapsed_s,"
                        " outcome, input_mb, am_overhead_s, phases,"
                        " finished_at) VALUES (?,?,?,?,?,?,?,?)",
                        (rec.signature, rec.mode, rec.elapsed_s, rec.outcome,
                         rec.input_mb, rec.am_overhead_s,
                         json.dumps({k: float(v) for k, v
                                     in sorted(rec.phases.items())}),
                         rec.finished_at)).close()
                    self._conn.execute(
                        "DELETE FROM runs WHERE signature=? AND mode=? AND"
                        " seq NOT IN (SELECT seq FROM runs WHERE signature=?"
                        " AND mode=? ORDER BY seq DESC LIMIT ?)",
                        (rec.signature, rec.mode, rec.signature, rec.mode,
                         self.ring_size)).close()
                return
            except sqlite3.OperationalError:
                if attempt == 7:
                    raise
                time.sleep(_LOCK_POLL_S * (attempt + 1))

    # -- JSON backend ---------------------------------------------------------
    def _lock_path(self) -> str:
        return self.path + ".lock"

    def _json_lock(self):
        store = self

        class _Lock:
            def __enter__(self):
                deadline = time.monotonic() + _LOCK_TIMEOUT_S
                while True:
                    try:
                        self.fd = os.open(store._lock_path(),
                                          os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                        return self
                    except FileExistsError:
                        if time.monotonic() > deadline:
                            raise TimeoutError(
                                f"history store lock {store._lock_path()!r} "
                                f"held too long (stale lock?)")
                        time.sleep(_LOCK_POLL_S)

            def __exit__(self, *_exc):
                os.close(self.fd)
                os.unlink(store._lock_path())

        return _Lock()

    def _load_json(self) -> None:
        if not os.path.exists(self.path):
            self._cells = {}
            return
        with self._json_lock():
            self._load_json_unlocked()
            # A v0 file is rewritten in the v1 layout immediately so every
            # later read (including other processes') sees one schema.
            if self._migrated_v0:
                self._write_json_unlocked()

    def _load_json_unlocked(self) -> None:
        self._cells = {}
        self._migrated_v0 = False
        if not os.path.exists(self.path):
            return
        with open(self.path) as f:
            raw = f.read()
        if not raw.strip():
            return
        data = json.loads(raw)
        version = int(data.get("schema_version", data.get("version", 0)))
        if version > self.SCHEMA_VERSION:
            raise ValueError(
                f"history store {self.path!r} is schema v{version}, newer "
                f"than this code (v{self.SCHEMA_VERSION}); refusing to write")
        if version < 1:
            # v0: a flat list of {"signature", "mode", "elapsed_s", ...}
            # rows with no outcome/phase columns; treat every row as a
            # successful run with an empty phase map.
            for row in data.get("history", []):
                self._cells_append(RunRecord(
                    signature=row["signature"], mode=row["mode"],
                    elapsed_s=float(row["elapsed_s"]),
                    outcome=OUTCOME_SUCCESS,
                    input_mb=float(row.get("input_mb", 0.0)),
                    am_overhead_s=float(row.get("am_overhead_s", 0.0)),
                    phases={},
                    finished_at=float(row.get("finished_at", 0.0))))
            self._migrated_v0 = True
            return
        for sig, modes in data.get("runs", {}).items():
            for mode, rows in modes.items():
                for row in rows:
                    self._cells_append(RunRecord(
                        signature=sig, mode=mode,
                        elapsed_s=float(row["elapsed_s"]),
                        outcome=row.get("outcome", OUTCOME_SUCCESS),
                        input_mb=float(row.get("input_mb", 0.0)),
                        am_overhead_s=float(row.get("am_overhead_s", 0.0)),
                        phases=row.get("phases", {}),
                        finished_at=float(row.get("finished_at", 0.0))))

    def _write_json_unlocked(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=1)
        os.replace(tmp, self.path)

    _migrated_v0 = False
