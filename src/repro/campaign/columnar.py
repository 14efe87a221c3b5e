"""Columnar run-store backend: sqlite3 behind the RunStore contract.

ROADMAP item 5.  The JSONL store (:mod:`~repro.campaign.store`) stays
the durable interchange format; this backend trades its
parse-everything-on-open load for a real database file:

* **Same contract.**  ``ColumnarStore`` is duck-type compatible with
  :class:`~repro.campaign.store.RunStore` everywhere the campaign stack
  touches a store: append/flush group commit with the same durability
  knobs, resume point-lookups, ``compact()``, idempotent
  ``merge_from()`` across backends, read-only opens, and the physical
  record interchange (``iter_record_lines`` / ``append_record_line``)
  that makes ``repro-mst store convert`` round trips byte-identical --
  every record's exact JSON text is stored verbatim in the ``records``
  table.

* **Columnar rows.**  Each run record also projects its flat output
  row into a ``run_rows`` table (key metric columns plus the row's JSON
  text), so ``iter_rows`` -- the whole input of ``repro-mst report`` --
  streams rows without deserializing a single result payload.  That is
  the report-latency win benchmark E17 measures.

Durability mapping: ``"record"`` commits (and fsyncs, via
``synchronous=FULL``) every append in its own transaction; ``"batch"``
commits every ``batch_size`` appends or on :meth:`flush`; ``"none"``
sets ``synchronous=OFF`` and lets the OS decide.  ``stats["fsyncs"]``
counts commits under a syncing level (sqlite may issue more than one
fsync per transaction internally).
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import quote

from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError
from .spec import RunSpec
from .store import (
    DURABILITY_LEVELS,
    encode_record,
    GraphDescription,
    make_run_record,
    merge_stores,
    parse_record_line,
    refuse_directory,
)

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS records_by_key ON records (kind, key, id);
CREATE TABLE IF NOT EXISTS run_rows (
    record_id INTEGER PRIMARY KEY,
    key TEXT NOT NULL,
    graph TEXT,
    algorithm TEXT,
    n INTEGER,
    m INTEGER,
    rounds REAL,
    messages REAL,
    condition TEXT,
    status TEXT,
    row_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS run_rows_by_key ON run_rows (key);
"""

#: The scalar row columns mirrored into real sqlite columns (the full
#: row always travels in ``row_json``; these exist for ad-hoc SQL).
_ROW_COLUMNS = ("graph", "algorithm", "n", "m", "rounds", "messages", "condition", "status")

_LIVE_RUNS = (
    "SELECT key, MIN(id) AS first_id, MAX(id) AS last_id "
    "FROM records WHERE kind = 'run' GROUP BY key"
)


class ColumnarStore:
    """Content-addressed campaign storage in a single sqlite3 file."""

    backend_name = "columnar"

    def __init__(
        self,
        path: Union[str, Path],
        durability: str = "batch",
        batch_size: int = 64,
        read_only: bool = False,
    ) -> None:
        if durability not in DURABILITY_LEVELS:
            raise ConfigurationError(
                f"unknown durability {durability!r}; expected one of "
                f"{', '.join(DURABILITY_LEVELS)}"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.path = Path(path)
        self.durability = durability
        self.batch_size = batch_size
        self.read_only = read_only
        self.stats: Dict[str, int] = {
            "appends": 0,
            "commits": 0,
            "fsyncs": 0,
            "recovered_lines": 0,
        }
        refuse_directory(self.path)
        if read_only:
            if not self.path.exists():
                raise ConfigurationError(f"no run store at {self.path}")
            uri = "file:" + quote(str(self.path.resolve())) + "?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(str(self.path))
        self._conn.isolation_level = None  # explicit BEGIN/COMMIT
        #: Buffered (kind, key, payload, row) tuples awaiting commit.
        self._buffer: List[Tuple[str, str, str, Optional[Dict[str, object]]]] = []
        #: Parsed pending records, for point reads before the commit.
        self._pending_runs: Dict[str, Dict[str, object]] = {}
        self._run_keys: Dict[str, None] = {}
        self._graphs: Dict[str, GraphDescription] = {}
        self._physical_records = 0
        try:
            self._init_schema()
            self._load()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise ConfigurationError(
                f"{self.path}: not a columnar run store ({error})"
            ) from error
        except BaseException:
            self._conn.close()
            raise

    # -- schema / load ---------------------------------------------------

    def _init_schema(self) -> None:
        # Validate before writing anything, so a rejected file is untouched.
        version = self._meta_get("schema_version")
        if version is None and self.read_only:
            raise ConfigurationError(f"{self.path}: not a columnar run store")
        if version not in (None, str(_SCHEMA_VERSION)):
            raise ConfigurationError(
                f"{self.path}: unsupported columnar store schema v{version}"
            )
        if self.read_only:
            return
        self._conn.executescript(_SCHEMA)
        if version is None:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (k, v) VALUES ('schema_version', ?)",
                (str(_SCHEMA_VERSION),),
            )
            self._conn.commit()
        if self.durability == "none":
            self._conn.execute("PRAGMA synchronous = OFF")
        else:
            self._conn.execute("PRAGMA synchronous = FULL")

    def _meta_get(self, key: str) -> Optional[str]:
        try:
            row = self._conn.execute("SELECT v FROM meta WHERE k = ?", (key,)).fetchone()
        except sqlite3.OperationalError:
            return None  # no meta table: not (yet) a columnar store
        return None if row is None else str(row[0])

    def _load(self) -> None:
        self._physical_records = int(
            self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]
        )
        for (key,) in self._conn.execute(
            "SELECT key FROM records WHERE kind = 'run' GROUP BY key ORDER BY MIN(id)"
        ):
            self._run_keys[str(key)] = None
        for (payload,) in self._conn.execute(
            "SELECT rec.payload FROM records AS rec JOIN ("
            "  SELECT key, MIN(id) AS first_id, MAX(id) AS last_id"
            "  FROM records WHERE kind = 'graph' GROUP BY key"
            ") AS live ON rec.id = live.last_id ORDER BY live.first_id"
        ):
            record = json.loads(payload)
            self._graphs[str(record["key"])] = dict(record["description"])

    # -- context manager / lifecycle -------------------------------------

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_writable(self) -> None:
        if self.read_only:
            raise ConfigurationError(
                f"store at {self.path} is opened read_only; writes are not allowed"
            )

    def flush(self) -> None:
        """Commit every buffered record in one transaction."""
        if not self._buffer:
            return
        self._require_writable()
        self._conn.execute("BEGIN")
        cursor = self._conn.cursor()
        for kind, key, payload, row in self._buffer:
            cursor.execute(
                "INSERT INTO records (kind, key, payload) VALUES (?, ?, ?)",
                (kind, key, payload),
            )
            if kind == "run":
                assert row is not None
                cursor.execute(
                    "INSERT INTO run_rows (record_id, key, graph, algorithm, n, m,"
                    " rounds, messages, condition, status, row_json)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        cursor.lastrowid,
                        key,
                        *(self._scalar(row.get(column)) for column in _ROW_COLUMNS),
                        encode_record(row),
                    ),
                )
            self._physical_records += 1
        self._conn.commit()
        self._buffer.clear()
        self._pending_runs.clear()
        self.stats["commits"] += 1
        if self.durability != "none":
            self.stats["fsyncs"] += 1

    def close(self) -> None:
        """Flush and close the database connection."""
        self.flush()
        self._conn.close()

    @staticmethod
    def _scalar(value: object) -> object:
        """Coerce a row value into something sqlite can hold natively."""
        if value is None or isinstance(value, (int, float, str)):
            return value
        return json.dumps(value)

    # -- appending -------------------------------------------------------

    def _append(
        self, kind: str, key: str, payload: str, row: Optional[Dict[str, object]]
    ) -> None:
        """Buffer one record; callers check writability first."""
        self._buffer.append((kind, key, payload, row))
        self.stats["appends"] += 1
        if self.durability == "record" or len(self._buffer) >= self.batch_size:
            self.flush()

    def record_run(
        self,
        spec: RunSpec,
        row: Dict[str, object],
        result_json: Dict[str, object],
        provenance: Dict[str, object],
    ) -> Dict[str, object]:
        record = make_run_record(spec, row, result_json, provenance)
        self._insert_run_record(record)
        return record

    def _insert_run_record(self, record: Dict[str, object]) -> None:
        """Backend hook: adopt one already-built run record (last wins)."""
        self._adopt_run_record(record, encode_record(record))

    def _adopt_run_record(self, record: Dict[str, object], payload: str) -> None:
        self._require_writable()
        key = str(record["key"])
        self._run_keys[key] = None  # a superseded key keeps its first-seen slot
        self._pending_runs[key] = record
        self._append("run", key, payload, dict(record["row"]))

    def record_graph(self, key: str, description: GraphDescription) -> None:
        self._require_writable()
        payload = encode_record({"kind": "graph", "key": key, "description": dict(description)})
        self._graphs[key] = dict(description)
        self._append("graph", key, payload, None)

    # -- run lookups -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._run_keys)

    def __contains__(self, key: str) -> bool:
        return key in self._run_keys

    def has_run(self, key: str) -> bool:
        return key in self._run_keys

    def run_keys(self) -> List[str]:
        return list(self._run_keys)

    def _record_for(self, key: str) -> Dict[str, object]:
        pending = self._pending_runs.get(key)
        if pending is not None:
            return json.loads(json.dumps(pending))  # detach from the buffer
        row = self._conn.execute(
            "SELECT payload FROM records WHERE kind = 'run' AND key = ?"
            " ORDER BY id DESC LIMIT 1",
            (key,),
        ).fetchone()
        if row is None:
            raise KeyError(key)
        return json.loads(row[0])

    def get_row(self, key: str) -> Dict[str, object]:
        """The flat output row recorded for ``key`` (KeyError if absent).

        Served from the ``run_rows`` projection -- no result
        payload is deserialized.  Always a fresh copy.
        """
        pending = self._pending_runs.get(key)
        if pending is not None:
            return json.loads(json.dumps(pending["row"]))
        row = self._conn.execute(
            "SELECT row_json FROM run_rows WHERE record_id ="
            " (SELECT MAX(id) FROM records WHERE kind = 'run' AND key = ?)",
            (key,),
        ).fetchone()
        if row is None:
            raise KeyError(key)
        return json.loads(row[0])

    def get_result(self, key: str) -> MSTRunResult:
        """The full deserialized result recorded for ``key``."""
        return MSTRunResult.from_json_dict(self._record_for(key)["result"])

    def get_spec(self, key: str) -> RunSpec:
        return RunSpec.from_json_dict(self._record_for(key)["spec"])

    def get_provenance(self, key: str) -> Dict[str, object]:
        return dict(self._record_for(key)["provenance"])

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """All recorded rows, in insertion order, from the columnar table.

        This is the fast path ``repro-mst report`` runs on: rows stream
        straight out of ``run_rows.row_json`` without touching the (much
        larger) spec/result/provenance payloads.
        """
        self.flush()
        return (
            json.loads(row_json)
            for (row_json,) in self._conn.execute(
                "SELECT r.row_json FROM run_rows AS r"
                f" JOIN ({_LIVE_RUNS}) AS live ON r.record_id = live.last_id"
                " ORDER BY live.first_id"
            )
        )

    def iter_run_records(self) -> Iterator[Dict[str, object]]:
        """Every live run record, in insertion order (parsed payloads)."""
        self.flush()
        return (
            json.loads(payload)
            for (payload,) in self._conn.execute(
                "SELECT rec.payload FROM records AS rec"
                f" JOIN ({_LIVE_RUNS}) AS live ON rec.id = live.last_id"
                " ORDER BY live.first_id"
            )
        )

    # -- graph description cache ----------------------------------------

    def graph_description(self, key: str) -> Optional[GraphDescription]:
        description = self._graphs.get(key)
        return json.loads(json.dumps(description)) if description is not None else None

    def has_graph(self, key: str) -> bool:
        return key in self._graphs

    def graph_keys(self) -> List[str]:
        return list(self._graphs)

    def iter_graph_items(self) -> Iterator[Tuple[str, GraphDescription]]:
        for key, description in self._graphs.items():
            yield key, dict(description)

    # -- maintenance -----------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Drop superseded records and reclaim the space (VACUUM).

        Same contract as the JSONL backend: keeps the last record per
        key at the key's first-seen position, idempotent, returns
        physical record counts.
        """
        self._require_writable()
        self.flush()
        before = self._physical_records
        self._conn.execute("BEGIN")
        self._conn.execute(
            "CREATE TEMP TABLE moves AS SELECT MIN(id) AS first_id, MAX(id) AS last_id"
            " FROM records GROUP BY kind, key HAVING COUNT(*) > 1"
        )
        self._conn.execute(
            "DELETE FROM records WHERE id NOT IN"
            " (SELECT MAX(id) FROM records GROUP BY kind, key)"
        )
        self._conn.execute(
            "DELETE FROM run_rows WHERE record_id NOT IN (SELECT id FROM records)"
        )
        # Each surviving record takes over its key's (now free) first id,
        # which is where the live-run queries order it.
        self._conn.execute(
            "UPDATE records SET id ="
            " (SELECT first_id FROM moves WHERE last_id = records.id)"
            " WHERE id IN (SELECT last_id FROM moves)"
        )
        self._conn.execute(
            "UPDATE run_rows SET record_id ="
            " (SELECT first_id FROM moves WHERE last_id = run_rows.record_id)"
            " WHERE record_id IN (SELECT last_id FROM moves)"
        )
        self._conn.execute("DROP TABLE moves")
        self._conn.commit()
        self._conn.execute("VACUUM")
        after = int(self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0])
        self._physical_records = after
        return {"before": before, "after": after, "dropped": before - after}

    def merge_from(self, source) -> Dict[str, int]:
        """Fold ``source`` (any backend, or a path) into this store."""
        self._require_writable()
        return merge_stores(self, source)

    # -- physical record interchange -------------------------------------

    def iter_record_lines(self) -> Iterator[str]:
        """Every physical record's exact JSON text, in append order."""
        self.flush()
        return (
            payload
            for (payload,) in self._conn.execute(
                "SELECT payload FROM records ORDER BY id"
            )
        )

    def append_record_line(self, line: str) -> None:
        """Append one physical record given as its exact JSON text."""
        self._require_writable()
        text = line.strip()
        if not text:
            return
        record = parse_record_line(text)
        kind = record.get("kind")
        if kind == "run":
            self._adopt_run_record(record, text)
        elif kind == "graph":
            self._graphs[str(record["key"])] = dict(record["description"])
            self._append("graph", str(record["key"]), text, None)
        else:
            raise ConfigurationError(f"unknown record kind {kind!r}")
