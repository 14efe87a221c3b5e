"""Persistence layer: a group-commit JSONL run store with resume support.

Every completed cell of a campaign is appended as one JSON line keyed by
the cell's content hash (:meth:`~repro.campaign.spec.RunSpec.run_key`),
together with its output row, the full serialized
:class:`~repro.core.results.MSTRunResult` and a provenance stamp
(package version, engine, seed, executor).  Re-running a campaign
against the same store skips every cell whose key is already present --
the resume semantics the ``repro-mst sweep --resume`` flag exposes.

Store v2 (this module) adds two things over the original
one-fsync-per-record file:

* **Group commit.**  Appends are buffered and committed with one
  ``write`` + one ``fsync`` per batch (``durability="batch"``, the
  default) instead of one syscall pair per record.  The durability knob
  also offers ``"record"`` (the original per-record fsync, for callers
  that must never lose an acknowledged cell) and ``"none"`` (no fsync
  at all; the OS decides).  :meth:`flush` commits the buffer explicitly
  and the store is a context manager (``with RunStore(...) as store:``)
  that flushes on exit; the campaign executor flushes at the end of
  every campaign, so ``--resume`` semantics are exact no matter the
  durability level -- at worst a crash re-runs the uncommitted tail.

* **Maintenance.**  :meth:`compact` rewrites the store dropping
  superseded last-record-wins duplicates; :meth:`merge_from` folds
  another store (either backend) into this one, skipping keys already
  present -- both idempotent, both exposed as ``repro-mst store
  compact|merge``.

A store is one file.  A directory path -- the sharded layout that
releases up to 1.6.0 wrote -- raises
:class:`~repro.exceptions.ConfigurationError` naming the conversion.

Crash recovery: a torn final line (a write interrupted before its
terminating newline) is dropped on load, counted in
``stats["recovered_lines"]`` and logged as a warning naming the file
and byte offset; a *terminated* corrupt line is still a hard
:class:`~repro.exceptions.ConfigurationError`, because it means the
file was damaged, not merely truncated.

A store constructed with ``path=None`` is purely in-memory; a
:class:`~repro.api.Runner` built without a store uses that mode, so
one-off runs stay side-effect free.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError
from ..logging_utils import get_logger
from .spec import RunSpec

#: One instance description: {"n": int, "m": int, "D": int (optional)}.
GraphDescription = Dict[str, object]

#: Supported durability levels (see :class:`RunStore`).
DURABILITY_LEVELS = ("record", "batch", "none")

_LOG = get_logger(__name__)


def refuse_directory(path: Path) -> None:
    """Raise if ``path`` is a directory: a store of either backend is one file."""
    if path.is_dir():
        raise ConfigurationError(
            f"{path} is a directory, but a run store is one file and sharded "
            f"directory stores are no longer read; convert it with repro-mst "
            f"1.6.0 (`repro-mst store convert {path} --into {path}.jsonl`) or "
            f"concatenate {path}/shard-*.jsonl in name order into one file"
        )


class RunStore:
    """Content-addressed storage for campaign cells (JSONL on disk).

    Records are one of two kinds::

        {"kind": "run",   "key": <run_key>,   "spec": ..., "row": ...,
         "result": ..., "provenance": ...}
        {"kind": "graph", "key": <graph_key>, "description": {...}}

    Storage is append-only; on load, the last record per key wins, so
    overwriting a cell is just appending a fresh record
    (:meth:`compact` rewrites the store without the superseded
    records).

    Per live run the store holds only the flat ``row`` (all a report
    reads), the ``provenance`` (what resume checks) and the record's
    JSON text: loading parses every line but drops the parsed ``spec``
    and ``result`` trees, which :meth:`get_spec`, :meth:`get_result`
    and :meth:`iter_run_records` re-parse from the text.  Held trees
    made every garbage collection re-walk the whole store (DESIGN.md,
    Section 11).  :meth:`compact` writes the held text as is.

    Args:
        path: ``None`` for a purely in-memory store, else the store's
            file (a directory raises
            :class:`~repro.exceptions.ConfigurationError`).
        durability: ``"batch"`` (default) buffers appends and commits
            them with one fsync per :attr:`batch_size` records or
            explicit :meth:`flush`; ``"record"`` commits and fsyncs
            every append immediately; ``"none"`` never calls fsync.
        batch_size: records per automatic group commit under
            ``"batch"`` durability.
        read_only: open for reading only.  Crash repairs (torn-tail
            truncation, re-termination newlines) stay in-memory and
            every write path (:meth:`record_run`, :meth:`flush`,
            :meth:`compact`, :meth:`merge_from`) raises
            :class:`~repro.exceptions.ConfigurationError`.  The path
            must exist.
    """

    #: Backend identifier, mirrored by ``ColumnarStore.backend_name``.
    backend_name = "jsonl"

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
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
        self.path = Path(path) if path is not None else None
        self.durability = durability
        self.batch_size = batch_size
        self.read_only = read_only
        if self.path is not None:
            refuse_directory(self.path)
        if read_only:
            if self.path is None:
                raise ConfigurationError("read_only requires an on-disk store path")
            if not self.path.exists():
                raise ConfigurationError(f"no run store at {self.path}")
        self.stats: Dict[str, int] = {
            "appends": 0,
            "commits": 0,
            "fsyncs": 0,
            "recovered_lines": 0,
        }
        #: Per live run, by run key in first-seen order: the record's
        #: JSON text, its row and its provenance.  Strings and dicts of
        #: scalars are not tracked by the garbage collector, so unlike
        #: parsed records (or a tuple per run) they add nothing to what
        #: a collection walks.
        self._texts: Dict[str, str] = {}
        self._rows: Dict[str, Dict[str, object]] = {}
        self._provenance: Dict[str, Dict[str, object]] = {}
        self._graphs: Dict[str, GraphDescription] = {}
        self._buffer: List[str] = []
        self._handle = None
        #: Physical records in the file (>= logical ones).
        self._physical_records = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- context manager / lifecycle -------------------------------------

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def flush(self) -> None:
        """Commit every buffered record to disk (one write, one fsync).

        A no-op for in-memory stores and when the buffer is empty.
        Under ``durability="none"`` the data is written but not fsynced.
        """
        if self.path is None or not self._buffer:
            return
        self._require_writable()
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write("".join(self._buffer))
        self._handle.flush()
        if self.durability != "none":
            os.fsync(self._handle.fileno())
            self.stats["fsyncs"] += 1
        self._physical_records += len(self._buffer)
        self._buffer.clear()
        self.stats["commits"] += 1

    def close(self) -> None:
        """Flush and release the underlying file handle."""
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- loading ---------------------------------------------------------

    def _load(self) -> None:
        """Load the store file into the in-memory maps.

        Streamed line by line (stores can be huge).  The final line is
        allowed to be torn (no terminating newline and unparseable):
        that is the signature of a crash mid-write, and the record it
        held was never acknowledged as committed.  Any other malformed
        line is corruption and raises.  Every repair is logged as a
        warning naming the file and the byte offset it happened at.
        """
        path = self.path
        assert path is not None
        needs_newline = False
        offset = line_number = 0
        with path.open("rb") as handle:
            for raw in handle:
                line_number += 1
                line_start = offset
                offset += len(raw)
                # A line can lack its terminator only at EOF.
                terminated = raw.endswith(b"\n")
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    # utf-8-sig, as json.loads(bytes) would: a leading BOM is not damage.
                    text = stripped.decode("utf-8-sig")
                    record = json.loads(text)
                    if not terminated:
                        # The tear landed exactly between the record's
                        # last byte and its newline: the record is
                        # complete and kept, but the file must be
                        # re-terminated or the next append would
                        # concatenate onto this line and corrupt it for
                        # every later reader.
                        needs_newline = True
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    if not terminated:
                        # Torn write: the crash interrupted this append.
                        # The tail must also be cut from the file, or
                        # later appends would concatenate onto the
                        # half-record and corrupt the line for every
                        # subsequent reader.
                        self.stats["recovered_lines"] += 1
                        if self.read_only:
                            _LOG.warning(
                                "%s: skipped a torn final record at byte %d; "
                                "read-only open, file left as is",
                                path, line_start,
                            )
                            continue
                        try:
                            os.truncate(path, line_start)
                        except OSError as failure:
                            _LOG.warning(
                                "%s: skipped a torn final record at byte %d; "
                                "truncating it failed (%s)",
                                path, line_start, failure,
                            )
                        else:
                            _LOG.warning(
                                "%s: dropped a torn final record, truncated at byte %d",
                                path, line_start,
                            )
                        continue
                    raise ConfigurationError(
                        f"{path}:{line_number}: corrupt run-store line ({error})"
                    ) from error
                kind = record.get("kind")
                if kind == "run":
                    self._hold_run(record, text)
                elif kind == "graph":
                    self._graphs[str(record["key"])] = dict(record["description"])
                else:
                    raise ConfigurationError(
                        f"{path}:{line_number}: unknown record kind {kind!r}"
                    )
                self._physical_records += 1
        if needs_newline and not self.read_only:
            try:
                with path.open("a", encoding="utf-8") as handle:
                    handle.write("\n")
            except OSError as failure:
                _LOG.warning(
                    "%s: final record lacks its newline; appending one at byte %d "
                    "failed (%s)",
                    path, offset, failure,
                )
            else:
                _LOG.warning(
                    "%s: final record lacked its newline; appended one at byte %d",
                    path, offset,
                )

    # -- writing ---------------------------------------------------------

    def _require_writable(self) -> None:
        if self.read_only:
            raise ConfigurationError(
                f"store at {self.path} is opened read_only; writes are not allowed"
            )

    def _append(self, text: str) -> None:
        """Buffer one record line; callers check writability first."""
        if self.path is None:
            return
        self._buffer.append(text + "\n")
        self.stats["appends"] += 1
        if self.durability == "record" or len(self._buffer) >= self.batch_size:
            self.flush()

    def _hold_run(self, record: Dict[str, object], text: str) -> None:
        """Keep one run record's text, row and provenance (last wins)."""
        key = str(record["key"])
        self._texts[key] = text
        self._rows[key] = record["row"]
        self._provenance[key] = record["provenance"]

    # -- run records -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, key: str) -> bool:
        return key in self._texts

    def has_run(self, key: str) -> bool:
        return key in self._texts

    def run_keys(self) -> List[str]:
        return list(self._texts)

    def get_row(self, key: str) -> Dict[str, object]:
        """The flat output row recorded for ``key`` (KeyError if absent).

        Deep-copied: mutating the returned row (including nested lists
        or detail dicts) must never reach the row the store holds, which
        every later read and report serves.
        """
        return copy.deepcopy(self._rows[key])

    def get_result(self, key: str) -> MSTRunResult:
        """The full deserialized result recorded for ``key``."""
        return MSTRunResult.from_json_dict(json.loads(self._texts[key])["result"])

    def get_spec(self, key: str) -> RunSpec:
        return RunSpec.from_json_dict(json.loads(self._texts[key])["spec"])

    def get_provenance(self, key: str) -> Dict[str, object]:
        return copy.deepcopy(self._provenance[key])

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
        self._require_writable()
        # No sort_keys: records are built in deterministic order, and
        # preserving row insertion order keeps table columns stable
        # when rows are reloaded on resume.
        text = json.dumps(record)
        self._hold_run(record, text)
        self._append(text)

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """All recorded rows, in insertion (file) order (deep copies)."""
        for row in self._rows.values():
            yield copy.deepcopy(row)

    def iter_run_records(self) -> Iterator[Dict[str, object]]:
        """Every live run record, in insertion order.

        Backend-agnostic iteration surface used by :func:`merge_stores`.
        Each yielded dict is a fresh parse of the record's stored text,
        not the store's own state: mutating it changes nothing stored.
        """
        for text in self._texts.values():
            yield json.loads(text)

    # -- graph description cache ----------------------------------------

    def graph_description(self, key: str) -> Optional[GraphDescription]:
        description = self._graphs.get(key)
        return copy.deepcopy(description) if description is not None else None

    def has_graph(self, key: str) -> bool:
        return key in self._graphs

    def iter_graph_items(self) -> Iterator[Tuple[str, GraphDescription]]:
        """Every cached graph description, in insertion order."""
        for key, description in self._graphs.items():
            yield key, dict(description)

    def record_graph(self, key: str, description: GraphDescription) -> None:
        self._require_writable()
        self._graphs[key] = dict(description)
        self._append(json.dumps({"kind": "graph", "key": key, "description": dict(description)}))

    def graph_keys(self) -> List[str]:
        return list(self._graphs)

    # -- maintenance -----------------------------------------------------

    def _live_lines(self) -> Iterator[str]:
        """Every live (non-superseded) record's JSON text: graphs first, then runs."""
        for key, description in self._graphs.items():
            yield json.dumps({"kind": "graph", "key": key, "description": description})
        yield from self._texts.values()

    def compact(self) -> Dict[str, int]:
        """Rewrite the store keeping only the last record per key.

        Drops superseded duplicates (``resume=False`` re-runs, merged
        overlaps).  The rewrite is crash-safe: the full live record set
        is written to a temporary and renamed over the store file, so
        no window loses committed records.  A second :meth:`compact` is
        a no-op (idempotent).  Returns
        ``{"before": .., "after": .., "dropped": ..}`` physical record
        counts; in-memory stores report zeros.
        """
        if self.path is None:
            return {"before": 0, "after": 0, "dropped": 0}
        self._require_writable()
        self.close()
        live = list(self._live_lines())
        before = self._physical_records
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for line in live:
                handle.write(line + "\n")
            handle.flush()
            # Always fsynced, whatever the durability level: the rename
            # deletes the only other copy of committed records.
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._physical_records = len(live)
        return {"before": before, "after": len(live), "dropped": before - len(live)}

    def merge_from(self, source: Union["RunStore", str, Path]) -> Dict[str, int]:
        """Fold ``source`` (a store of any backend, or a path) into this one.

        Records whose key this store already holds are kept as-is, which
        makes merging the same source twice -- or merging overlapping
        stores from parallel CI jobs -- idempotent.  Source paths are
        opened ``read_only`` (merging must never side-effect the
        source).  Returns ``{"runs": .., "graphs": .., "skipped": ..}``
        counts.
        """
        self._require_writable()
        return merge_stores(self, source)

    # -- physical record interchange -------------------------------------

    def iter_record_lines(self) -> Iterator[str]:
        """Every physical record as its exact JSON text, in file order.

        Superseded records are included (conversion preserves the full
        append history); blank lines and torn tails are skipped, exactly
        as loading does.  In-memory stores yield their live records.
        Used by :func:`convert_store` for byte-identical migration.
        """
        if self.path is None:
            yield from self._live_lines()
            return
        self.flush()
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            for raw in handle:
                terminated = raw.endswith(b"\n")
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    # utf-8-sig, as loading does: a leading BOM is not record text.
                    text = stripped.decode("utf-8-sig")
                    json.loads(text)
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    if not terminated:
                        continue  # torn tail: dropped on load as well
                    raise ConfigurationError(
                        f"{self.path}: corrupt run-store line ({error})"
                    ) from error
                yield text

    def append_record_line(self, line: str) -> None:
        """Append one physical record given as its exact JSON text.

        The text is preserved verbatim (modulo the terminating newline),
        which is what makes ``store convert`` round trips byte-identical.
        """
        self._require_writable()
        text = line.strip()
        if not text:
            return
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid store record line ({error})") from error
        kind = record.get("kind")
        if kind == "run":
            self._hold_run(record, text)
        elif kind == "graph":
            self._graphs[str(record["key"])] = dict(record["description"])
        else:
            raise ConfigurationError(f"unknown record kind {kind!r}")
        self._append(text)


# -- backend seam ---------------------------------------------------------

#: Backend names accepted by :func:`open_store` / ``--store-backend``.
STORE_BACKENDS = ("auto", "jsonl", "columnar")

#: Fresh paths with one of these suffixes select the columnar backend.
_COLUMNAR_SUFFIXES = (".sqlite", ".sqlite3", ".db")

_SQLITE_MAGIC = b"SQLite format 3\x00"


def make_run_record(
    spec: RunSpec,
    row: Dict[str, object],
    result_json: Dict[str, object],
    provenance: Dict[str, object],
) -> Dict[str, object]:
    """The canonical run-record dict shared by every store backend."""
    return {
        "kind": "run",
        "key": spec.run_key(),
        "spec": spec.to_json_dict(),
        # Copied: callers may decorate their returned rows with
        # presentation columns; the store must not see those.
        "row": dict(row),
        "result": result_json,
        "provenance": provenance,
    }


def _looks_like_sqlite(path: Path) -> bool:
    try:
        with path.open("rb") as handle:
            return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


def detect_backend(path: Union[str, Path]) -> str:
    """Classify a store path as ``"jsonl"`` or ``"columnar"``.

    Existing paths are classified by what they hold (files starting
    with the SQLite magic are ``columnar``, anything else ``jsonl``);
    fresh paths by their suffix (``.sqlite`` / ``.sqlite3`` / ``.db``
    select the columnar backend).
    """
    path = Path(path)
    if path.exists():
        return "columnar" if _looks_like_sqlite(path) else "jsonl"
    return "columnar" if path.suffix.lower() in _COLUMNAR_SUFFIXES else "jsonl"


def open_store(
    path: Optional[Union[str, Path]] = None,
    backend: str = "auto",
    durability: str = "batch",
    batch_size: int = 64,
    read_only: bool = False,
):
    """Open a run store of any backend behind one construction seam.

    ``backend="auto"`` (the default) resolves via :func:`detect_backend`;
    ``path=None`` is always the in-memory JSONL-backend store.  Every
    construction site that accepts a user-supplied store path (CLI,
    :class:`~repro.api.runner.Runner`) goes through here so the
    columnar backend is a spelling away everywhere.
    """
    if backend not in STORE_BACKENDS:
        raise ConfigurationError(
            f"unknown store backend {backend!r}; expected one of "
            f"{', '.join(STORE_BACKENDS)}"
        )
    if backend == "auto":
        backend = "jsonl" if path is None else detect_backend(path)
    if backend == "columnar":
        if path is None:
            raise ConfigurationError("the columnar backend requires an on-disk path")
        from .columnar import ColumnarStore

        return ColumnarStore(
            path, durability=durability, batch_size=batch_size, read_only=read_only
        )
    return RunStore(path, durability=durability, batch_size=batch_size, read_only=read_only)


def _same_store_path(a: Optional[Path], b: Optional[Path]) -> bool:
    """True when both paths name the same store file.

    Resolved before comparison so relative/absolute/symlinked spellings
    of one path cannot bypass the self-merge guard.
    """
    if a is None or b is None:
        return False
    try:
        return Path(a).resolve() == Path(b).resolve()
    except OSError:
        return Path(a) == Path(b)


def merge_stores(dest, source) -> Dict[str, int]:
    """Fold ``source`` into ``dest`` across any backend pairing.

    Both stores only need the backend-agnostic surface
    (``iter_graph_items`` / ``iter_run_records`` / ``has_run`` /
    ``has_graph`` / ``_insert_run_record``), so JSONL and columnar
    stores merge in any direction.  Source paths are opened read-only.
    """
    if isinstance(source, (str, Path)):
        source_path = Path(source)
        if not source_path.exists():
            raise ConfigurationError(f"no run store at {source_path}")
        if _same_store_path(dest.path, source_path):
            raise ConfigurationError("cannot merge a store into itself")
        opened = open_store(source_path, read_only=True)
        try:
            return merge_stores(dest, opened)
        finally:
            opened.close()
    if source is dest or _same_store_path(dest.path, source.path):
        raise ConfigurationError("cannot merge a store into itself")
    merged_graphs = merged_runs = skipped = 0
    for key, description in source.iter_graph_items():
        if dest.has_graph(key):
            skipped += 1
            continue
        dest.record_graph(key, description)
        merged_graphs += 1
    for record in source.iter_run_records():
        if dest.has_run(str(record["key"])):
            skipped += 1
            continue
        dest._insert_run_record(record)
        merged_runs += 1
    dest.flush()
    return {"runs": merged_runs, "graphs": merged_graphs, "skipped": skipped}


def convert_store(
    source: Union[str, Path],
    destination: Union[str, Path],
    backend: str = "auto",
    durability: str = "batch",
) -> Dict[str, object]:
    """Copy a store record-for-record into a fresh store at ``destination``.

    Every physical record's JSON text travels verbatim (superseded
    records included), so ``JSONL -> columnar -> JSONL`` round trips are
    byte-identical.  The destination must not exist; the source is
    opened read-only.  A conversion that raises removes the
    destination it created, so a retry starts clean.
    """
    source_path = Path(source)
    if not source_path.exists():
        raise ConfigurationError(f"no run store at {source_path}")
    dest_path = Path(destination)
    if dest_path.exists():
        raise ConfigurationError(f"refusing to convert onto existing path {dest_path}")
    src = open_store(source_path, read_only=True)
    try:
        dest = open_store(dest_path, backend=backend, durability=durability)
        try:
            records = 0
            for line in src.iter_record_lines():
                dest.append_record_line(line)
                records += 1
        finally:
            dest.close()
    except BaseException:
        dest_path.unlink(missing_ok=True)
        raise
    finally:
        src.close()
    return {"records": records, "backend": dest.backend_name}
