"""Persistent tuning store: an SQLite database of sweeps, cells, and rules.

The durable half of the selection pipeline (the serving half is
:mod:`repro.service`): campaigns and workload runs write their
measurements here, selection tables round-trip through it, and the
selection service warm-starts from it.  See :mod:`repro.store.tuning_store`
for the data model and :mod:`repro.store.schema` for the versioned schema.
"""

from repro.store.schema import LATEST_VERSION, MIGRATIONS, migrate, schema_version
from repro.store.tuning_store import (
    PATTERN_BEST,
    TuningStore,
    canonical_json,
    content_hash,
    git_describe,
    harness_hash,
    open_store,
)

__all__ = [
    "LATEST_VERSION",
    "MIGRATIONS",
    "migrate",
    "schema_version",
    "PATTERN_BEST",
    "TuningStore",
    "open_store",
    "canonical_json",
    "content_hash",
    "harness_hash",
    "git_describe",
]
