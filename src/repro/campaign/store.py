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
import io
import json
import os
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from ..core.results import MSTRunResult
from ..exceptions import ConfigurationError
from ..logging_utils import get_logger
from .spec import RunSpec

#: One instance description: {"n": int, "m": int, "D": int (optional)}.
GraphDescription = Dict[str, object]

#: Supported durability levels (see :class:`RunStore`).
DURABILITY_LEVELS = ("record", "batch", "none")

#: Value types a read hands out shared with the store rather than
#: copied: exactly these types, whose instances cannot change.
_IMMUTABLE = frozenset({str, int, float, bool, type(None)})

_LOG = get_logger(__name__)


def _detached(mapping: Dict[str, object]) -> Dict[str, object]:
    """A fresh dict of ``mapping`` through which no caller can change it.

    Values of an immutable type are shared and every other value is
    deep-copied: the isolation ``copy.deepcopy(mapping)`` gives, for
    the price of one dict copy when every value is a scalar, as in a
    flat row.
    """
    detached = dict(mapping)
    if not _IMMUTABLE.issuperset(map(type, detached.values())):
        for key, value in detached.items():
            if type(value) not in _IMMUTABLE:
                detached[key] = copy.deepcopy(value)
    return detached


def parse_record_line(text: str) -> Dict[str, object]:
    """The record object one store line holds, for ``append_record_line``.

    Raises :class:`ConfigurationError` when the text is not JSON, or is
    JSON but not an object (``5``, ``[1]``): either way it is no record.
    """
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid store record line ({error})") from error
    if not isinstance(record, dict):
        raise ConfigurationError(f"invalid store record line (not a JSON object: {text[:40]})")
    return record


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
    reads), the ``provenance`` (what resume checks) and the byte offset
    where the record's line starts in the file: loading parses every
    line but drops the parsed ``spec`` and ``result`` trees, which
    :meth:`get_spec`, :meth:`get_result`, :meth:`iter_run_records` and
    :meth:`compact` read back from the file (a record still in the
    group-commit buffer is served from the buffer).  The rows and
    provenance parsed at open share one copy of each key and string
    value.  An in-memory store has no file and holds each record's
    JSON text instead.  Held trees made every garbage collection
    re-walk the whole store, and held texts made an open hold more than
    twice the file (DESIGN.md, Section 11).

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
        #: Per live run, by run key in first-seen order: where its record
        #: line starts in the file (for an in-memory store, the record's
        #: JSON text), its row and its provenance.  Ints, strings and
        #: dicts of scalars are not tracked by the garbage collector, so
        #: unlike parsed records (or a tuple per run) they add nothing to
        #: what a collection walks.
        self._lines: Dict[str, Union[int, str]] = {}
        self._rows: Dict[str, Dict[str, object]] = {}
        self._provenance: Dict[str, Dict[str, object]] = {}
        self._graphs: Dict[str, GraphDescription] = {}
        #: One copy of each key tuple and string value of the rows and
        #: provenance parsed at open (see :meth:`_share`).
        self._memo: Dict[object, object] = {}
        #: Buffered record lines awaiting commit, by the offset each takes.
        self._pending: Dict[int, bytes] = {}
        #: Where the next record line starts: the file's size once the
        #: buffer is committed.
        self._end = 0
        self._handle: Optional[BinaryIO] = None
        #: Physical records in the file (>= logical ones).
        self._physical_records = 0
        if self.path is not None and self.path.exists():
            self._load()
            # The real size, after any repair _load made.
            self._end = self.path.stat().st_size

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
        if self.path is None or not self._pending:
            return
        self._require_writable()
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Binary: the bytes on disk are exactly the bytes the offsets count.
            self._handle = self.path.open("ab")
        self._handle.write(b"".join(self._pending.values()))
        self._handle.flush()
        if self.durability != "none":
            os.fsync(self._handle.fileno())
            self.stats["fsyncs"] += 1
        self._physical_records += len(self._pending)
        self._pending.clear()
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
                if not isinstance(record, dict):
                    raise ConfigurationError(
                        f"{path}:{line_number}: corrupt run-store line (not a JSON object)"
                    )
                kind = record.get("kind")
                if kind == "run":
                    self._hold_run(record, line_start)
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

    def _append(self, text: str) -> Union[int, str]:
        """Buffer one record line and return what the index holds for it.

        That is the offset the line takes in the file, or for an
        in-memory store the text itself.  Callers check writability
        first, and call :meth:`_commit_if_due` once they have indexed
        the record.
        """
        if self.path is None:
            return text
        data = text.encode("utf-8") + b"\n"
        offset = self._end
        self._pending[offset] = data
        self._end += len(data)
        self.stats["appends"] += 1
        return offset

    def _commit_if_due(self) -> None:
        if self.durability == "record" or len(self._pending) >= self.batch_size:
            self.flush()

    def _share(self, mapping: Dict[str, object]) -> Dict[str, object]:
        """``mapping`` rebuilt over the store's one copy of its keys and string values.

        A parsed record brings its own copy of every key and string; the
        30k rows of a big store repeat the same few dozen.  Key order
        and values are unchanged.
        """
        memo = self._memo
        keys = tuple(mapping)
        shared = memo.setdefault(keys, keys)
        values = [
            memo.setdefault(value, value) if value.__class__ is str else value
            for value in mapping.values()
        ]
        return dict(zip(shared, values))

    def _hold_run(self, record: Dict[str, object], line: Union[int, str]) -> None:
        """Index one parsed run record, keeping its row and provenance shared (last wins)."""
        key = str(record["key"])
        self._lines[key] = line
        self._rows[key] = self._share(record["row"])
        self._provenance[key] = self._share(record["provenance"])

    def _read(
        self, key: str, handle: Optional[BinaryIO] = None
    ) -> Tuple[str, Dict[str, object]]:
        """The live record of ``key`` (KeyError if absent): its text and a fresh parse.

        A committed record is read back at its offset through ``handle``
        (or a handle of its own), the way :meth:`_load` reads it.  A
        record that no longer parses as run ``key`` there -- the file
        was truncated or rewritten under the open store -- raises
        :class:`~repro.exceptions.ConfigurationError`; another record is
        never returned.
        """
        offset = self._lines[key]
        if isinstance(offset, str):  # an in-memory store holds the text itself
            text = offset
            return text, json.loads(text)
        data = self._pending.get(offset)
        if data is None:
            if handle is None:
                with self._reader() as own:
                    return self._read(key, own)
            handle.seek(offset)
            data = handle.readline()
        try:
            text = data.strip().decode("utf-8-sig")
            record = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            record = None
        if not isinstance(record, dict) or record.get("kind") != "run" or (
            str(record.get("key")) != key
        ):
            raise ConfigurationError(
                f"{self.path}: no record of run {key} at byte {offset}; the file "
                f"was truncated or rewritten under the open store"
            )
        return text, record

    def _reader(self) -> BinaryIO:
        """A binary handle on the store file (an empty one while there is no file)."""
        if self.path is None or not self.path.exists():
            return io.BytesIO()
        return self.path.open("rb")

    # -- run records -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: str) -> bool:
        return key in self._lines

    def has_run(self, key: str) -> bool:
        return key in self._lines

    def run_keys(self) -> List[str]:
        return list(self._lines)

    def get_row(self, key: str) -> Dict[str, object]:
        """The flat output row recorded for ``key`` (KeyError if absent).

        A fresh dict: its ``str``, ``int``, ``float``, ``bool`` and
        ``None`` values are the store's own (they cannot change) and
        every other value -- a nested list, a detail dict, a tuple of
        lists -- is a deep copy, so mutating the returned row never
        reaches the row the store holds, which every later read and
        report serves.
        """
        return _detached(self._rows[key])

    def get_result(self, key: str) -> MSTRunResult:
        """The full deserialized result recorded for ``key``."""
        return MSTRunResult.from_json_dict(self._read(key)[1]["result"])

    def get_spec(self, key: str) -> RunSpec:
        return RunSpec.from_json_dict(self._read(key)[1]["spec"])

    def get_provenance(self, key: str) -> Dict[str, object]:
        """The provenance recorded for ``key``, copied as :meth:`get_row` copies a row."""
        return _detached(self._provenance[key])

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
        key = str(record["key"])
        self._lines[key] = self._append(encode_record(record))
        # The caller's row and provenance already share their keys.
        self._rows[key] = record["row"]
        self._provenance[key] = record["provenance"]
        self._commit_if_due()

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """All recorded rows, in insertion (file) order.

        Each is a fresh dict copied as :meth:`get_row` copies it: scalar
        values shared, nested ones deep-copied.
        """
        for row in self._rows.values():
            yield _detached(row)

    def iter_run_records(self) -> Iterator[Dict[str, object]]:
        """Every live run record, in insertion order.

        Backend-agnostic iteration surface used by :func:`merge_stores`.
        Each yielded dict is a fresh parse of the record's line, read
        back from the file through one handle (closed when the
        iteration ends or is abandoned), not the store's own state:
        mutating it changes nothing stored.
        """
        with self._reader() as handle:
            for key in self._lines:
                yield self._read(key, handle)[1]

    # -- graph description cache ----------------------------------------

    def graph_description(self, key: str) -> Optional[GraphDescription]:
        description = self._graphs.get(key)
        return _detached(description) if description is not None else None

    def has_graph(self, key: str) -> bool:
        return key in self._graphs

    def iter_graph_items(self) -> Iterator[Tuple[str, GraphDescription]]:
        """Every cached graph description, in insertion order."""
        for key, description in self._graphs.items():
            yield key, dict(description)

    def record_graph(self, key: str, description: GraphDescription) -> None:
        self._require_writable()
        text = encode_record({"kind": "graph", "key": key, "description": dict(description)})
        self._graphs[key] = dict(description)
        self._append(text)
        self._commit_if_due()

    def graph_keys(self) -> List[str]:
        return list(self._graphs)

    # -- maintenance -----------------------------------------------------

    def _graph_lines(self) -> Iterator[str]:
        """Every live graph description's record text, in insertion order."""
        for key, description in self._graphs.items():
            yield encode_record({"kind": "graph", "key": key, "description": description})

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
        before = self._physical_records
        tmp = self.path.with_name(self.path.name + ".tmp")
        # The index of the file being written: each run's new offset.
        lines: Dict[str, Union[int, str]] = {}
        try:
            with self._reader() as source, tmp.open("wb") as handle:
                for text in self._graph_lines():
                    handle.write(text.encode("utf-8") + b"\n")
                for key in self._lines:
                    lines[key] = handle.tell()
                    handle.write(self._read(key, source)[0].encode("utf-8") + b"\n")
                handle.flush()
                # Always fsynced, whatever the durability level: the rename
                # deletes the only other copy of committed records.
                os.fsync(handle.fileno())
                end = handle.tell()
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, self.path)
        self._lines, self._end = lines, end
        after = self._physical_records = len(self._graphs) + len(lines)
        return {"before": before, "after": after, "dropped": before - after}

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
            yield from self._graph_lines()
            for key in self._lines:
                yield self._read(key)[0]
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
        record = parse_record_line(text)
        kind = record.get("kind")
        if kind not in ("run", "graph"):
            raise ConfigurationError(f"unknown record kind {kind!r}")
        line = self._append(text)
        if kind == "run":
            self._hold_run(record, line)
        else:
            self._graphs[str(record["key"])] = dict(record["description"])
        self._commit_if_due()


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


#: Built once, and without ``json.dumps``' walk for circular
#: references: a record is a tree its store built.  The output is the same.
_RECORD_ENCODER = json.JSONEncoder(check_circular=False)


def encode_record(record: Dict[str, object]) -> str:
    """The JSON text a store writes for ``record``: a run or graph record,
    or the row a columnar store projects out of a run record.

    Byte-identical to ``json.dumps(record)``: insertion order, no sorted
    keys, so reloaded rows keep their column order.  A record JSON
    cannot encode (a value with no JSON form, such as a set, or a
    container that holds itself) raises
    :class:`~repro.exceptions.ConfigurationError` naming the record's
    kind, its key and the encoder's message.  Both stores encode a record
    before they take it, so a refused record leaves no trace.
    """
    try:
        return _RECORD_ENCODER.encode(record)
    except (TypeError, ValueError, RecursionError) as error:
        # Without the circular walk a cycle surfaces as RecursionError.
        raise ConfigurationError(
            f"cannot store {record.get('kind')} record {record.get('key')}: "
            f"it is not JSON ({type(error).__name__}: {error})"
        ) from error


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
