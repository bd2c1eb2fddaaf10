"""The persistent tuning database: sweeps, cells, rules, and provenance.

A :class:`TuningStore` is an SQLite file (WAL mode, stdlib :mod:`sqlite3`)
holding everything a tuning campaign learns — raw per-cell
:class:`~repro.bench.results.BenchResult` rows, whole
:class:`~repro.bench.results.SweepResult` grids, and the strategy-built
selection rules distilled from them — plus provenance (observability run
ID, model version, harness-parameter hash, ``git describe``) for every row.

Everything data-bearing is **content-addressed**: a sweep or result row is
keyed by the SHA-256 of its canonical JSON, so ingesting the same data
twice changes nothing (idempotent ingest is what lets long campaigns,
re-runs, and multiple workers all sink into one store).

Writers: :class:`~repro.bench.campaign.TuningCampaign` (``store=``
ingests sweeps, their cells, and rules), the ``workload run``/``replay``
commands (``--store`` ingests phase cells), and
:meth:`~repro.selection.table.SelectionTable.to_store`.  Readers:
:meth:`SelectionTable.from_store` and the
:class:`~repro.service.SelectionService`, which warm-starts its query
tables from a store and hot-reloads when the file changes.

The store is safe for concurrent use from multiple threads (one internal
lock serializes statements) and multiple processes (WAL readers never
block the writer).
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import subprocess
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro._version import __version__
from repro.errors import ConfigurationError, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.campaign import CampaignResult
    from repro.bench.executor import CellSpec
    from repro.bench.results import BenchResult, SweepResult
    from repro.selection.table import SelectionTable

#: Strategy name the per-pattern best picks are stored under.  These are
#: not produced by a :class:`~repro.selection.strategies.SelectionStrategy`
#: — they are the oracle row winners a pattern-conditioned query wants.
PATTERN_BEST = "pattern_best"

#: Harness keys of a ``CellSpec.to_dict()`` payload — the part that
#: identifies *where* a result was measured rather than *what* was measured.
_HARNESS_KEYS = ("platform", "network", "nrep", "seed", "clock_mode",
                 "noise_profile", "count", "harmonize_slack", "machine_name")


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding used for every content hash.

    Strict JSON only: Python's encoder would happily emit non-standard
    ``NaN``/``Infinity`` tokens, which other JSON parsers reject and which
    make a mockery of content addressing (NaN != NaN, yet the rows would
    hash equal).  A payload carrying a non-finite float raises
    :class:`ConfigurationError` naming the offending key path.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        try:
            path = _non_finite_path(obj)
        except RecursionError:  # circular structure; not our error to name
            path = None
        if path is None:
            raise ConfigurationError(
                f"cannot canonicalize payload: {exc}") from exc
        raise ConfigurationError(
            f"payload has a non-finite float at {path}; NaN/Infinity has "
            "no canonical JSON encoding and cannot be content-addressed"
        ) from exc


def _non_finite_path(obj: object, path: str = "$") -> str | None:
    """Key path of the first NaN/Infinity in a JSON-ready structure."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return path
    if isinstance(obj, dict):
        for key in obj:
            found = _non_finite_path(obj[key], f"{path}.{key}")
            if found:
                return found
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            found = _non_finite_path(item, f"{path}[{i}]")
            if found:
                return found
    return None


def content_hash(obj: object) -> str:
    """SHA-256 over the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def harness_hash(spec: "CellSpec") -> str:
    """Hash over the harness half of a cell spec (platform/network params)."""
    payload = spec.to_dict()
    return content_hash({k: payload[k] for k in _HARNESS_KEYS})


_git_describe_cache: str | None = None


def git_describe() -> str:
    """``git describe --always --dirty`` of the running checkout.

    Cached per process; returns ``"unknown"`` outside a git checkout or
    when git is unavailable — provenance must never fail an ingest.
    """
    global _git_describe_cache
    if _git_describe_cache is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=10,
            )
            _git_describe_cache = out.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_describe_cache = "unknown"
    return _git_describe_cache


class TuningStore:
    """SQLite-backed tuning database (see the module docstring).

    Opening a path creates the file (and parent directory) if needed and
    migrates its schema to the latest version.  Instances are context
    managers; :meth:`close` checkpoints WAL back into the main file.
    """

    def __init__(self, path: str | Path, *, timeout: float = 30.0) -> None:
        from repro.store.schema import migrate

        self.path = Path(path)
        if self.path.exists() and self.path.is_dir():
            raise ConfigurationError(f"store path {self.path} is a directory")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._in_transaction = False
        # One shared connection; check_same_thread off because the service
        # queries from handler threads — the RLock serializes statements.
        self._conn = sqlite3.connect(str(self.path), timeout=timeout,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            migrate(self._conn)
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise StoreError(f"{self.path} is not a tuning store: {exc}") from exc

    # -- lifecycle ------------------------------------------------------- #

    def close(self) -> None:
        with self._lock:
            try:
                # Fold the WAL back into the main file so the store is a
                # single self-contained artifact (and its mtime advances).
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.DatabaseError:  # pragma: no cover - best effort
                pass
            self._conn.close()

    def __enter__(self) -> "TuningStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def mtime(self) -> float:
        """Last-modified time across the database file and its WAL sidecar.

        WAL writes land in ``<path>-wal`` until a checkpoint, so watching
        the main file alone would miss live updates — the service's
        hot-reload check uses this.
        """
        stamp = 0.0
        for p in (self.path, Path(str(self.path) + "-wal")):
            try:
                stamp = max(stamp, p.stat().st_mtime)
            except OSError:
                pass
        return stamp

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Hold the lock for one transaction; a nested call joins the
        outermost one, which commits (or rolls back) everything."""
        with self._lock:
            if self._in_transaction:
                yield
                return
            self._in_transaction = True
            try:
                with self._conn:
                    yield
            finally:
                self._in_transaction = False

    # -- provenance ------------------------------------------------------ #

    def ensure_provenance(self, run_id: str = "", params_hash: str = "") -> int:
        """Row ID for this (run, code version, harness) provenance tuple.

        Idempotent: the same tuple always maps to the same row (only
        ``created_at`` of the *first* insert is kept).
        """
        describe = git_describe()
        with self._transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO provenance "
                "(run_id, model_version, params_hash, git_describe, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (run_id, __version__, params_hash, describe,
                 datetime.now(timezone.utc).isoformat(timespec="seconds")),
            )
            row = self._conn.execute(
                "SELECT id FROM provenance WHERE run_id=? AND model_version=? "
                "AND params_hash=? AND git_describe=?",
                (run_id, __version__, params_hash, describe),
            ).fetchone()
        return int(row["id"])

    # -- ingest ---------------------------------------------------------- #

    def ingest_result(self, result: "BenchResult", *,
                      sweep_id: int | None = None,
                      provenance_id: int | None = None) -> tuple[int, bool]:
        """Store one benchmark cell; returns ``(row_id, inserted)``.

        Content-addressed: an identical result is a no-op (but a later
        ingest *linking* an existing standalone row to a sweep keeps the
        link).
        """
        payload = canonical_json(result.to_dict())
        digest = hashlib.sha256(payload.encode()).hexdigest()
        with self._transaction():
            row = self._conn.execute(
                "SELECT id, sweep_id FROM bench_results WHERE content_hash=?",
                (digest,),
            ).fetchone()
            if row is not None:
                if sweep_id is not None and row["sweep_id"] is None:
                    self._conn.execute(
                        "UPDATE bench_results SET sweep_id=? WHERE id=?",
                        (sweep_id, row["id"]),
                    )
                return int(row["id"]), False
            cur = self._conn.execute(
                "INSERT INTO bench_results (content_hash, sweep_id, collective,"
                " algorithm, msg_bytes, num_ranks, pattern, payload,"
                " provenance_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (digest, sweep_id, result.collective, result.algorithm,
                 float(result.msg_bytes), int(result.num_ranks),
                 result.pattern_name, payload, provenance_id),
            )
            return int(cur.lastrowid), True

    def ingest_sweep(self, sweep: "SweepResult", *,
                     provenance_id: int | None = None) -> tuple[int, bool]:
        """Store one sweep and all its cells; returns ``(sweep_id, inserted)``.

        One transaction: a failure part way leaves neither the sweep row
        nor any of its cells, so a re-ingest counts the sweep as new.
        """
        digest = content_hash(sweep.to_dict())
        with self._transaction():
            row = self._conn.execute(
                "SELECT id FROM sweeps WHERE content_hash=?", (digest,)
            ).fetchone()
            if row is not None:
                sweep_id, inserted = int(row["id"]), False
            else:
                cur = self._conn.execute(
                    "INSERT INTO sweeps (content_hash, collective,"
                    " comm_size, msg_bytes, machine, skew_by_pattern,"
                    " per_algorithm_skews, provenance_id)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (digest, sweep.collective, int(sweep.num_ranks),
                     float(sweep.msg_bytes), sweep.machine,
                     canonical_json(sweep.skew_by_pattern),
                     canonical_json(sweep.per_algorithm_skews),
                     provenance_id),
                )
                sweep_id, inserted = int(cur.lastrowid), True
            for cell in sweep.cells.values():
                self.ingest_result(cell, sweep_id=sweep_id,
                                   provenance_id=provenance_id)
        return sweep_id, inserted

    def add_rule(self, strategy: str, collective: str, comm_size: int,
                 msg_bytes: float, algorithm: str, *, pattern: str = "",
                 provenance_id: int | None = None) -> None:
        """Upsert one selection rule (last write wins for the algorithm)."""
        if not strategy or not collective or not algorithm:
            raise ConfigurationError("rule needs strategy, collective, algorithm")
        if comm_size <= 0 or msg_bytes < 0:
            raise ConfigurationError("invalid rule coordinates")
        with self._transaction():
            self._conn.execute(
                "INSERT INTO rules (strategy, collective, comm_size,"
                " msg_bytes, pattern, algorithm, provenance_id)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (strategy, collective, comm_size, msg_bytes,"
                " pattern) DO UPDATE SET algorithm=excluded.algorithm,"
                " provenance_id=excluded.provenance_id",
                (strategy, collective, int(comm_size), float(msg_bytes),
                 pattern, algorithm, provenance_id),
            )

    def store_table(self, table: "SelectionTable", *,
                    provenance_id: int | None = None) -> int:
        """Persist every rule of a selection table; returns the rule count."""
        strategy = table.strategy_name or "unnamed"
        n = 0
        for collective, comm_size, msg_bytes, algorithm in table.iter_rules():
            self.add_rule(strategy, collective, comm_size, msg_bytes,
                          algorithm, provenance_id=provenance_id)
            n += 1
        return n

    def ingest_campaign(self, result: "CampaignResult", *,
                        run_id: str = "", params_hash: str = "",
                        provenance_id: int | None = None,
                        pattern_rules: bool = True) -> dict[str, int]:
        """Sink a finished campaign: sweeps, cells, table rules, and (by
        default) the per-pattern best picks for pattern-conditioned queries.

        Returns counts of *newly inserted* sweeps plus total rule writes.
        Fully idempotent: re-ingesting the same campaign changes no row
        counts.
        """
        if provenance_id is None:
            provenance_id = self.ensure_provenance(run_id=run_id,
                                                   params_hash=params_hash)
        new_sweeps = 0
        for sweep in result.sweeps.values():
            _sid, inserted = self.ingest_sweep(sweep,
                                               provenance_id=provenance_id)
            new_sweeps += inserted
        rules = 0
        with self._transaction():  # every rule write in one transaction
            if pattern_rules:
                for sweep in result.sweeps.values():
                    for pattern in sweep.patterns:
                        self.add_rule(
                            PATTERN_BEST, sweep.collective, sweep.num_ranks,
                            sweep.msg_bytes, sweep.best_algorithm(pattern),
                            pattern=pattern, provenance_id=provenance_id,
                        )
                        rules += 1
            rules += self.store_table(result.table,
                                      provenance_id=provenance_id)
        return {"new_sweeps": new_sweeps, "rules_written": rules}

    # -- linting --------------------------------------------------------- #

    def iter_cell_rows(self) -> Iterator[tuple[str, dict, str]]:
        """Yield ``(content_hash, payload, params_hash)`` per stored cell.

        ``params_hash`` is the row's provenance harness hash ('' when the
        row carries no provenance) — the lint engine's join key for
        cross-cell guidelines.  Payloads are decoded leniently (legacy rows
        may carry non-standard ``NaN`` tokens; the sanity guideline exists
        to flag exactly those).
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT b.content_hash AS digest, b.payload AS payload,"
                " COALESCE(p.params_hash, '') AS params_hash"
                " FROM bench_results b"
                " LEFT JOIN provenance p ON p.id = b.provenance_id"
                " ORDER BY b.id"
            ).fetchall()
        for row in rows:
            try:
                payload = json.loads(row["payload"])
            except ValueError as exc:
                raise StoreError(
                    f"corrupt cell payload {row['digest'][:12]} in "
                    f"{self.path}: {exc}"
                ) from exc
            yield row["digest"], payload, row["params_hash"]

    def record_lint(self, findings) -> int:
        """Upsert :class:`~repro.lint.report.LintFinding` rows; returns the
        number written.

        Keyed by (content hash, guideline): re-linting the same store
        updates verdicts in place instead of piling up duplicates.
        Findings without a content hash (in-memory data) are skipped.
        """
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        n = 0
        with self._transaction():
            for f in findings:
                if not f.content_hash:
                    continue
                margin = float(f.margin) if math.isfinite(f.margin) else None
                self._conn.execute(
                    "INSERT INTO lint_findings (content_hash, guideline,"
                    " severity, margin, collective, algorithm, comm_size,"
                    " msg_bytes, pattern, detail, created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT (content_hash, guideline) DO UPDATE SET"
                    " severity=excluded.severity, margin=excluded.margin,"
                    " detail=excluded.detail",
                    (f.content_hash, f.guideline, f.severity, margin,
                     f.collective, f.algorithm, int(f.comm_size),
                     float(f.msg_bytes), f.pattern, f.detail, now),
                )
                n += 1
        return n

    def set_suspect(self, hashes, suspect: bool = True) -> int:
        """Set or clear the suspect flag by content hash; returns rows hit."""
        flag = 1 if suspect else 0
        n = 0
        with self._transaction():
            for digest in hashes:
                if not digest:
                    continue
                cur = self._conn.execute(
                    "UPDATE bench_results SET suspect=? "
                    "WHERE content_hash=? AND suspect!=?",
                    (flag, digest, flag),
                )
                n += cur.rowcount
        return n

    def apply_lint(self, report, *,
                   suspect_severity: str = "error") -> dict[str, int]:
        """Persist a full lint run: finding rows plus suspect flags.

        Cells with a finding at or above ``suspect_severity`` are marked
        suspect; cells the report no longer indicts are *cleared* — a lint
        run evaluates every cell, so absence of a finding is evidence, not
        silence.  Returns counts of findings recorded and flags changed.
        """
        recorded = self.record_lint(report.findings)
        indicted = report.suspect_hashes(suspect_severity)
        current = self.suspect_hashes()
        marked = self.set_suspect(sorted(indicted - current), True)
        cleared = self.set_suspect(sorted(current - indicted), False)
        return {"findings_recorded": recorded, "cells_marked": marked,
                "cells_cleared": cleared}

    def clear_lint(self) -> None:
        """Drop every persisted finding and suspect flag."""
        with self._transaction():
            self._conn.execute("DELETE FROM lint_findings")
            self._conn.execute(
                "UPDATE bench_results SET suspect=0 WHERE suspect!=0")

    def suspect_hashes(self) -> set[str]:
        """Content hashes of every cell currently marked suspect."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT content_hash FROM bench_results WHERE suspect!=0"
            ).fetchall()
        return {r["content_hash"] for r in rows}

    def load_lint_findings(self) -> list:
        """Rebuild persisted findings (measured/bound are not stored)."""
        from repro.lint.report import LintFinding

        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM lint_findings ORDER BY id").fetchall()
        return [
            LintFinding(
                guideline=r["guideline"], severity=r["severity"],
                collective=r["collective"], algorithm=r["algorithm"],
                comm_size=int(r["comm_size"]),
                msg_bytes=float(r["msg_bytes"]), pattern=r["pattern"],
                content_hash=r["content_hash"],
                margin=(float(r["margin"]) if r["margin"] is not None
                        else math.nan),
                measured=math.nan, bound=math.nan, detail=r["detail"],
            )
            for r in rows
        ]

    def _suspect_only_coords(self, *, with_pattern: bool) -> set[tuple]:
        """Cell coordinates whose every measurement is marked suspect.

        A rule is only excluded when no clean cell corroborates it — one
        trustworthy measurement at the same coordinate keeps it servable.
        """
        with self._lock:
            if self._conn.execute(
                "SELECT 1 FROM bench_results WHERE suspect!=0 LIMIT 1"
            ).fetchone() is None:
                return set()
            cols = "collective, algorithm, num_ranks, msg_bytes"
            if with_pattern:
                cols += ", pattern"
            rows = self._conn.execute(
                f"SELECT {cols} FROM bench_results"
                f" GROUP BY {cols} HAVING SUM(suspect=0) = 0"
            ).fetchall()
        if with_pattern:
            return {(r["collective"], r["algorithm"], int(r["num_ranks"]),
                     float(r["msg_bytes"]), r["pattern"]) for r in rows}
        return {(r["collective"], r["algorithm"], int(r["num_ranks"]),
                 float(r["msg_bytes"])) for r in rows}

    # -- read back ------------------------------------------------------- #

    def strategies(self) -> list[str]:
        """Strategy names with pattern-agnostic rules in the store."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT strategy FROM rules WHERE pattern=''"
                " ORDER BY strategy"
            ).fetchall()
        return [r["strategy"] for r in rows]

    def load_table(self, strategy: str | None = None, *,
                   exclude_suspect: bool = True) -> "SelectionTable":
        """Rebuild the :class:`SelectionTable` stored under ``strategy``.

        With one strategy in the store the argument is optional; with
        several it must be named.  By default, rules whose every backing
        measurement is marked suspect (see :meth:`apply_lint`) are left
        out — the lookup's nearest-below bucketing or the caller's
        fallback covers the hole; pass ``exclude_suspect=False`` for the
        raw table.
        """
        from repro.selection.table import SelectionTable

        if strategy is None:
            names = self.strategies()
            if not names:
                raise StoreError(f"{self.path} holds no selection rules")
            if len(names) > 1:
                raise ConfigurationError(
                    f"store holds rules for strategies {names}; pick one"
                )
            strategy = names[0]
        with self._lock:
            rows = self._conn.execute(
                "SELECT collective, comm_size, msg_bytes, algorithm FROM rules"
                " WHERE pattern='' AND strategy=?"
                " ORDER BY collective, comm_size, msg_bytes",
                (strategy,),
            ).fetchall()
        dropped = 0
        if rows and exclude_suspect:
            # A pattern-agnostic rule may be backed by any pattern's cell,
            # so the coordinate key deliberately omits the pattern.
            bad = self._suspect_only_coords(with_pattern=False)
            if bad:
                kept = [r for r in rows
                        if (r["collective"], r["algorithm"],
                            int(r["comm_size"]), float(r["msg_bytes"]))
                        not in bad]
                dropped = len(rows) - len(kept)
                rows = kept
        if not rows:
            extra = (" (every rule derives solely from suspect cells)"
                     if dropped else "")
            raise StoreError(
                f"{self.path} holds no rules for strategy {strategy!r}{extra}"
            )
        table = SelectionTable(strategy_name=strategy)
        for r in rows:
            table.add_rule(r["collective"], int(r["comm_size"]),
                           float(r["msg_bytes"]), r["algorithm"])
        return table

    def load_pattern_tables(self, *, exclude_suspect: bool = True
                            ) -> dict[str, "SelectionTable"]:
        """One :class:`SelectionTable` per arrival pattern (may be empty).

        Reuses the table's nearest-below bucketing, so pattern-conditioned
        lookups behave exactly like pattern-agnostic ones.  Suspect-backed
        rules are excluded like :meth:`load_table` does, except the
        coordinate match includes the pattern.
        """
        from repro.selection.table import SelectionTable

        with self._lock:
            rows = self._conn.execute(
                "SELECT pattern, collective, comm_size, msg_bytes, algorithm"
                " FROM rules WHERE pattern!='' AND strategy=?"
                " ORDER BY pattern, collective, comm_size, msg_bytes",
                (PATTERN_BEST,),
            ).fetchall()
        if rows and exclude_suspect:
            bad = self._suspect_only_coords(with_pattern=True)
            if bad:
                rows = [r for r in rows
                        if (r["collective"], r["algorithm"],
                            int(r["comm_size"]), float(r["msg_bytes"]),
                            r["pattern"]) not in bad]
        tables: dict[str, SelectionTable] = {}
        for r in rows:
            table = tables.setdefault(
                r["pattern"], SelectionTable(strategy_name=PATTERN_BEST))
            table.add_rule(r["collective"], int(r["comm_size"]),
                           float(r["msg_bytes"]), r["algorithm"])
        return tables

    def load_sweeps(self, collective: str | None = None
                    ) -> Iterator["SweepResult"]:
        """Reconstruct stored sweeps (cells included), insertion-ordered."""
        from repro.bench.results import BenchResult, SweepResult

        where = "" if collective is None else " WHERE collective=?"
        params = () if collective is None else (collective,)
        with self._lock:
            sweep_rows = self._conn.execute(
                f"SELECT * FROM sweeps{where} ORDER BY id", params
            ).fetchall()
            cell_rows = {
                sid: self._conn.execute(
                    "SELECT payload FROM bench_results WHERE sweep_id=?"
                    " ORDER BY id", (sid,)
                ).fetchall()
                for sid in [r["id"] for r in sweep_rows]
            }
        for row in sweep_rows:
            try:
                sweep = SweepResult(
                    collective=row["collective"],
                    msg_bytes=float(row["msg_bytes"]),
                    num_ranks=int(row["comm_size"]),
                    machine=row["machine"],
                    skew_by_pattern=json.loads(row["skew_by_pattern"]),
                    per_algorithm_skews=json.loads(row["per_algorithm_skews"]),
                )
                for cell in cell_rows[row["id"]]:
                    sweep.add(BenchResult.from_dict(json.loads(cell["payload"])))
            except (ValueError, ConfigurationError) as exc:
                raise StoreError(
                    f"corrupt sweep row {row['id']} in {self.path}: {exc}"
                ) from exc
            yield sweep

    def counts(self) -> dict[str, int]:
        """Row counts per table — the idempotency tests' one-line probe."""
        with self._lock:
            return {
                table: int(self._conn.execute(
                    f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"])
                for table in ("provenance", "sweeps", "bench_results",
                              "rules", "lint_findings")
            }

    def schema_version(self) -> int:
        from repro.store.schema import schema_version

        with self._lock:
            return schema_version(self._conn)


def open_store(store: "TuningStore | str | Path") -> tuple[TuningStore, bool]:
    """Coerce a path-or-store into a store; returns ``(store, owned)``.

    ``owned`` tells the caller whether it opened (and must close) the
    connection — shared helper for every ``store=`` parameter in the
    package.
    """
    if isinstance(store, TuningStore):
        return store, False
    return TuningStore(store), True


__all__ = [
    "PATTERN_BEST",
    "TuningStore",
    "open_store",
    "canonical_json",
    "content_hash",
    "harness_hash",
    "git_describe",
]
