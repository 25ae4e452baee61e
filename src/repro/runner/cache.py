"""Content-addressed on-disk cache for sweep-point results.

Layout: one append-only log per sweep::

    <root>/<sweep-name>/LOG.jsonl

where every line is one compact JSON record and ``key`` is the
:func:`repro.runner.hashing.point_key` digest::

    {"op":"put","key":"<digest>","format":1,"params":{...},"created":T,"result":...}
    {"op":"put","key":"<digest>",...,"result":...,"batch":true}
    {"op":"del","key":"<digest>"}
    {"op":"quarantine","key":"<digest>","params":{...},"error":"...","created":T}

A ``put`` record *is* the stored entry: it embeds the key and the
parameters that produced the result, so a log is self-describing and
human-readable (``NaN`` tokens — Python's JSON dialect — appear where
an experiment reports a missing paper value, so strict-JSON consumers
need ``parse_constant``).  The index is the fold of the log: last
``put`` wins, ``del`` removes, and ``quarantine`` marks a key as a
*known-permanent failure* (a point that exhausted its retry budget
under the runner's fault-tolerance layer — see ``docs/runner.md``).  A
quarantined key has no ``put`` record, so it can never be served as
data, and a later successful ``put`` clears it — which is exactly what
a ``--retry-quarantined`` run does when the point finally computes.
The ``"batch": true`` stamp marks results of the vectorized batch path
(provenance only; keys and results are identical either way).

**Commits.**  :meth:`ResultCache.put_many` is the only write path for
results (:meth:`ResultCache.put` is ``put_many`` of one).  It builds
every line first, then issues a *single* ``O_APPEND`` write of all of
them (looping on a short write) and a *single* ``fsync``.  On the main
thread SIGINT/SIGTERM are held for the whole commit and re-delivered
after it (:func:`_signals_held`), so a signal lands between commits,
never inside one.  Since a record is its own journal entry, an entry
without its ``put`` record cannot exist.

**Reads.**  Each :class:`ResultCache` keeps an in-memory index per
sweep, ``key -> (offset, length)``, keyed on the log's ``(inode,
size)``: an unchanged log costs one ``fstat``, a grown one is extended
by reading only the new tail, and a replaced one (compaction, clear)
is re-read.  :meth:`ResultCache.get_many` resolves a whole wave of
keys with one open of the log and one ``pread`` per hit; every record
read is validated (op, format, key), and a bad one is healed away with
a ``del`` record and reported as a miss — never an exception.

**Tail rule.**  Bytes after the last newline are ignored and lines that
do not parse are skipped, so a writer killed mid-record costs only that
record.  A commit that finds the log not ending in ``\\n`` (one
``pread`` of the last byte) starts its write with one, so new records
never glue onto a torn tail.

**Locking.**  Appenders hold ``flock(LOCK_SH)`` — appends stay
concurrent, each one a single ``write`` — and after taking the lock
check that their descriptor's inode is still the one at the log's path,
reopening if a compaction replaced it meanwhile.  Compaction holds
``LOCK_EX`` and runs snapshot → write temp → ``fsync`` →
:func:`os.replace`, so it is lossless while other processes append
(the serve daemon and a remote client committing into one cache
directory, pool workers writing ``bench`` baselines through
:func:`cached_call`), and a crash mid-compaction leaves the old log
whole.  Compaction keeps the last ``put`` per live key plus the live
quarantine records; it runs explicitly (``python -m repro cache
compact``), opportunistically when an index read sees dead records
outnumber live ones, and as a forced *salvage* that also drops records
that fail validation (``cache rebuild``).

A cache directory from an older one-file-per-entry layout has no log,
so it reads as a cold miss; ``cache clear`` removes it.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.runner.hashing import point_key

__all__ = ["CacheStats", "ResultCache", "cached_call", "default_cache_dir"]

_FORMAT = 1  # bump to invalidate every existing entry
_LOG = "LOG.jsonl"
#: Every put record starts with these bytes (``put_many`` writes the
#: op and key first), so the index slices keys without decoding JSON.
_PUT_PREFIX = b'{"op":"put","key":"'
_BATCH_SUFFIX = b',"batch":true}'


def _cache_disabled() -> bool:
    """Whether ``$REPRO_CACHE_DISABLE`` asks to bypass the store.

    Conventional 'off' spellings (unset, empty, ``0``, ``false``,
    ``no``) leave the cache on.
    """
    value = os.environ.get("REPRO_CACHE_DISABLE", "")
    return value.strip().lower() not in ("", "0", "false", "no")


def default_cache_dir() -> Path:
    """The sweep cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _line(record: Mapping[str, Any]) -> bytes:
    """One log line: compact JSON plus the newline."""
    return (_encode(record) + "\n").encode()


@contextmanager
def _signals_held() -> Iterator[None]:
    """Defer SIGINT/SIGTERM to the end of the block (main thread only).

    The block runs with handlers that only record the signal; on exit
    the previous handlers come back and every recorded signal is
    re-delivered with :func:`signal.raise_signal`, so a raising handler
    (the CLI's, or ``KeyboardInterrupt``) fires at the block boundary
    instead of between a commit's write and its ``fsync``.  Off the
    main thread — where handlers cannot be installed and Python never
    runs them anyway — the block runs unchanged, as it does when a
    handler was installed outside Python and so cannot be restored.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    prev_int = signal.getsignal(signal.SIGINT)
    prev_term = signal.getsignal(signal.SIGTERM)
    if prev_int is None or prev_term is None:
        yield
        return
    caught: List[int] = []

    def record(signum, frame):  # noqa: ARG001
        caught.append(signum)

    signal.signal(signal.SIGINT, record)
    try:
        signal.signal(signal.SIGTERM, record)
        yield
    finally:
        # Nested so that a signal handled by the first restored handler
        # cannot skip restoring the second.
        try:
            signal.signal(signal.SIGINT, prev_int)
        finally:
            signal.signal(signal.SIGTERM, prev_term)
        for signum in caught:
            signal.raise_signal(signum)


def _pread_all(fd: int, size: int, offset: int) -> bytes:
    """``size`` bytes at ``offset`` (fewer only at end of file)."""
    chunks = []
    while size > 0:
        chunk = os.pread(fd, size, offset)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
        offset += len(chunk)
    return b"".join(chunks)


def _valid_put(data: bytes, key: str) -> Any:
    """Decode a put record of ``key``; raises ``ValueError``/``KeyError``/
    ``TypeError`` on anything else (torn, tampered, stale format)."""
    record = json.loads(data)
    if (record["op"], record["format"], record["key"]) != ("put", _FORMAT, key):
        raise ValueError("stale or mismatched cache record")
    if "result" not in record:
        raise KeyError("result")
    return record


class _Index:
    """The fold of one sweep log up to byte ``end`` (its last newline).

    ``live`` maps key to the ``(offset, length)`` of its last put
    record, ``quar`` holds quarantine records (live keys outrank them),
    ``records`` counts every non-blank line, parsable or not.  ``tail``
    keeps the last bytes before ``end`` so an in-place rewrite of the
    file is told apart from appends (:meth:`continues`).
    """

    __slots__ = (
        "ino", "size", "end", "tail", "live", "batch", "quar", "records",
    )

    def __init__(self, ino: int = -1) -> None:
        self.ino = ino
        self.size = 0
        self.end = 0
        self.tail = b""
        self.live: Dict[str, Tuple[int, int]] = {}
        self.batch: Set[str] = set()
        self.quar: Dict[str, dict] = {}
        self.records = 0

    def scan(self, data: bytes) -> None:
        """Fold the complete lines of ``data``, which starts at ``end``;
        bytes after its last newline wait for the next scan."""
        offset = self.end
        complete = data.rfind(b"\n") + 1
        for line in data[:complete].split(b"\n")[:-1]:
            if line.strip():
                self.records += 1
                self._apply(line, offset)
            offset += len(line) + 1
        self.end = offset
        self.tail = (self.tail + data[max(0, complete - 32):complete])[-32:]

    def continues(self, fd: int) -> bool:
        """Whether the file at ``fd`` still holds the bytes indexed."""
        start = self.end - len(self.tail)
        return os.pread(fd, len(self.tail), start) == self.tail

    def _apply(self, line: bytes, offset: int) -> None:
        if line.startswith(_PUT_PREFIX):
            stop = line.find(b'"', len(_PUT_PREFIX))
            raw = line[len(_PUT_PREFIX):stop]
            if stop > 0 and b"\\" not in raw and line.endswith(b"}"):
                self._put(raw.decode(), offset, line)
                return
        try:
            record = json.loads(line)
            op, key = record["op"], record["key"]
        except (ValueError, KeyError, TypeError):
            return  # torn or foreign line: salvage the rest
        if op == "put":
            self._put(key, offset, line)
        elif op == "del":
            self.live.pop(key, None)
            self.batch.discard(key)
        elif op == "quarantine":
            self.quar[key] = record

    def _put(self, key: str, offset: int, line: bytes) -> None:
        self.live[key] = (offset, len(line))
        self.quar.pop(key, None)  # a success clears the quarantine
        if line.endswith(_BATCH_SUFFIX):
            self.batch.add(key)
        else:
            self.batch.discard(key)  # last put wins

    def quarantined(self) -> Dict[str, dict]:
        return {k: r for k, r in self.quar.items() if k not in self.live}


@dataclass(frozen=True)
class CacheStats:
    """Aggregate numbers for ``python -m repro cache info``.

    ``per_sweep`` maps sweep name to ``(entries, quarantined)`` so the
    CLI can surface known-permanent failures per namespace without
    another index read.  ``batch_entries`` counts live entries whose
    last ``put`` came from the vectorized batch path (the ``"batch":
    true`` stamp — see :meth:`ResultCache.put`), with
    ``batch_per_sweep`` the per-namespace breakdown; everything else
    was computed by the scalar per-point path.
    """

    entries: int
    bytes: int
    sweeps: Tuple[str, ...]
    quarantined: int = 0
    per_sweep: Tuple[Tuple[str, int, int], ...] = ()
    batch_entries: int = 0
    batch_per_sweep: Tuple[Tuple[str, int], ...] = ()


class ResultCache:
    """A directory of content-addressed sweep-point results.

    One instance may serve several threads (the serve daemon's
    connection and dispatch threads share one): a lock guards the
    in-memory indexes, and appends need no lock of their own.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._indexes: Dict[str, _Index] = {}
        self._lock = threading.RLock()

    def log_path(self, sweep: str) -> Path:
        """The append-only log holding every record of ``sweep``."""
        return self.root / sweep / _LOG

    # -- the log --------------------------------------------------------

    def _sync(self, sweep: str, fd: int) -> _Index:
        """The index of the log open at ``fd``, extended by its new tail
        (callers hold ``_lock`` for as long as they use it)."""
        st = os.fstat(fd)
        index = self._indexes.get(sweep)
        if (
            index is None or index.ino != st.st_ino
            or st.st_size < index.size
            or (st.st_size != index.size and not index.continues(fd))
        ):
            index = self._indexes[sweep] = _Index(st.st_ino)
        if st.st_size != index.size:
            index.scan(_pread_all(fd, st.st_size - index.end, index.end))
            index.size = st.st_size
        return index

    def _index(self, sweep: str) -> _Index:
        """The sweep's current index (empty when it has no log)."""
        try:
            fd = os.open(self.log_path(sweep), os.O_RDONLY)
        except OSError:
            self._indexes.pop(sweep, None)
            return _Index()
        try:
            return self._sync(sweep, fd)
        finally:
            os.close(fd)

    def _locked(self, path: Path, mode: int, flags: int) -> int:
        """Open ``path`` and ``flock`` it, retrying until the locked
        descriptor is the file at ``path`` (a compaction may replace it
        between the open and the lock).  Closing the fd unlocks."""
        while True:
            try:
                fd = os.open(path, flags, 0o644)
            except FileNotFoundError:
                if not flags & os.O_CREAT:
                    raise
                path.parent.mkdir(parents=True, exist_ok=True)
                continue
            try:
                fcntl.flock(fd, mode)
                if os.stat(path).st_ino == os.fstat(fd).st_ino:
                    return fd
            except FileNotFoundError:
                pass  # removed meanwhile: open (and create) afresh
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)

    def _append(self, sweep: str, data: bytes, fsync: bool = False) -> None:
        """Append ``data`` (whole lines) with one ``O_APPEND`` write."""
        fd = self._locked(
            self.log_path(sweep), fcntl.LOCK_SH,
            os.O_RDWR | os.O_CREAT | os.O_APPEND,
        )
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data  # seal a torn tail off
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def _compact(self, sweep: str, salvage: bool = False) -> int:
        """Rewrite the log down to its fold; returns records dropped.

        Holds ``LOCK_EX`` from the snapshot to the rename, so no append
        lands in the old file unseen.  ``salvage`` also drops put
        records that fail validation and rewrites even when nothing is
        dead.  Best-effort: a read-only store or a failed rename leaves
        the old log as it was and reports 0.
        """
        path = self.log_path(sweep)
        try:
            fd = self._locked(path, fcntl.LOCK_EX, os.O_RDONLY)
        except OSError:
            return 0
        try:
            data = _pread_all(fd, os.fstat(fd).st_size, 0)
            index = _Index()
            index.scan(data)
            kept = []
            for key, (offset, length) in sorted(
                index.live.items(), key=lambda item: item[1]
            ):
                record = data[offset:offset + length]
                if salvage:
                    try:
                        _valid_put(record, key)
                    except (ValueError, KeyError, TypeError):
                        continue
                kept.append(record + b"\n")
            kept.extend(_line(r) for r in index.quarantined().values())
            dropped = index.records - len(kept)
            if not salvage and dropped <= 0:
                return 0
            if not self._replace(path, b"".join(kept)):
                return 0
            return dropped
        finally:
            os.close(fd)
            self._indexes.pop(sweep, None)

    @staticmethod
    def _replace(path: Path, data: bytes) -> bool:
        """Atomically swap the file at ``path`` for ``data``: temp file,
        ``fsync``, rename.  Returns False, persisting nothing, when any
        step fails (e.g. a read-only store)."""
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
            return False
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return True

    def _view(self, sweep: str) -> _Index:
        """The index, compacted first when dead records outnumber live
        ones (with a small floor so tiny logs never churn)."""
        index = self._index(sweep)
        live = len(index.live) + len(index.quarantined())
        if index.records - live > max(live, 4) and self._compact(sweep):
            index = self._index(sweep)
        return index

    # -- entries --------------------------------------------------------

    def get(self, sweep: str, key: str) -> Tuple[Any, bool]:
        """Look up ``key``; returns ``(value, hit)``.

        A malformed record (torn write, manual tampering, format drift)
        is healed away and reported as a miss — never an exception.
        """
        hits = self.get_many(sweep, (key,))
        return (hits[key], True) if key in hits else (None, False)

    def get_many(self, sweep: str, keys: Iterable[str]) -> Dict[str, Any]:
        """Bulk lookup; returns ``{key: value}`` for the hits only.

        One open of the log and one ``pread`` per indexed key.  Misses
        (and healed-away bad records) are simply absent, so callers
        resolve a whole resume wave with one call and compute the
        complement.
        """
        try:
            fd = os.open(self.log_path(sweep), os.O_RDONLY)
        except OSError:
            return {}
        hits: Dict[str, Any] = {}
        bad: List[str] = []
        try:
            with self._lock:
                live = self._sync(sweep, fd).live
                for key in keys:
                    where = live.get(key)
                    if where is None:
                        continue
                    try:
                        record = _valid_put(
                            os.pread(fd, where[1], where[0]), key
                        )
                    except (ValueError, KeyError, TypeError):
                        bad.append(key)
                        continue
                    hits[key] = record["result"]
        finally:
            os.close(fd)
        if bad:
            try:
                self.discard(sweep, bad)
            except OSError:
                pass  # e.g. a read-only shared cache: miss, don't crash
        return hits

    def put(
        self,
        sweep: str,
        key: str,
        params: Mapping[str, Any],
        value: Any,
        batch: bool = False,
    ) -> None:
        """Store ``value``; raises ``TypeError`` if it is not JSON-able.

        A commit of one entry through :meth:`put_many`, with the same
        durability: one append and one ``fsync``.

        ``batch`` marks the value as computed by the vectorized batch
        path (:mod:`repro.engine.batch` via a sweep's ``batch_fn``): its
        put record gains a ``"batch": true`` stamp so ``cache info`` can
        report batch-vs-scalar provenance.  The stamp is pure provenance
        — the key, lookup, and the ``result`` payload are identical
        either way, so batch and scalar runs stay interchangeable
        cache-wise.
        """
        self.put_many(sweep, [(key, params, value)], batch)

    def put_many(
        self,
        sweep: str,
        entries: Iterable[Tuple[str, Mapping[str, Any], Any]],
        batch: bool = False,
    ) -> int:
        """Commit ``(key, params, value)`` triples; returns the count stored.

        The cache's only write path for results.  Every put record is
        built first — a value that is not JSON-able raises
        ``TypeError`` before anything is written — then all of them go
        to the log in one ``O_APPEND`` write followed by one ``fsync``.
        On the main thread SIGINT/SIGTERM are held for the whole commit
        (:func:`_signals_held`) and re-delivered after it.
        """
        with _signals_held():
            created = time.time()
            lines = [
                _line({
                    "op": "put", "key": key, "format": _FORMAT,
                    "params": dict(params), "created": created,
                    "result": value, **({"batch": True} if batch else {}),
                })
                for key, params, value in entries
            ]
            if lines:
                self._append(sweep, b"".join(lines), fsync=True)
        return len(lines)

    def discard(self, sweep: str, keys: Iterable[str]) -> int:
        """Drop ``keys`` by appending one ``del`` record each (one
        write); returns the number of records appended."""
        lines = [_line({"op": "del", "key": key}) for key in keys]
        if lines:
            self._append(sweep, b"".join(lines))
        return len(lines)

    # -- index ----------------------------------------------------------

    def manifest(self, sweep: str) -> Dict[str, int]:
        """The sweep's live index, ``{key: record bytes}``.

        Opportunistically compacts a log whose dead history (puts
        overwritten, ``del`` records, cleared quarantines, salvaged
        lines) outnumbers its live records.
        """
        with self._lock:
            return {k: n for k, (_, n) in self._view(sweep).live.items()}

    def manifest_keys(self, sweep: str) -> Set[str]:
        """Keys the index lists for ``sweep`` — the resume fast path.

        Listings are advisory: callers must still :meth:`get` (which
        validates) before trusting one.
        """
        return set(self.manifest(sweep))

    def rebuild_manifest(self, sweep: str) -> Dict[str, int]:
        """Salvage the log: a forced compaction that also drops records
        failing validation; returns the live index."""
        self._compact(sweep, salvage=True)
        return self.manifest(sweep)

    def compact(self, sweep: str) -> int:
        """Fold dead history away; returns the number of records dropped.

        The log is rewritten to a temp file and renamed into place under
        an exclusive lock, so a crash mid-compaction leaves the old log
        whole and concurrent appends are never lost.
        """
        return self._compact(sweep)

    # -- quarantine -----------------------------------------------------

    def quarantine(
        self, sweep: str, key: str, params: Mapping[str, Any], error: str
    ) -> None:
        """Record ``key`` as a known-permanent failure.

        Written by the runner when a point exhausts its retry budget
        under ``on_error="keep"``: resumes then skip the point instead
        of re-failing it (``--retry-quarantined`` opts back in), and
        ``cache info`` surfaces the count.  Best-effort like every index
        write — a read-only cache loses the record, never the run.
        """
        try:
            self._append(sweep, _line({
                "op": "quarantine", "key": key, "params": dict(params),
                "error": str(error), "created": time.time(),
            }))
        except OSError:
            pass

    def quarantined(self, sweep: str) -> Dict[str, dict]:
        """The sweep's known-permanent failures, ``{key: record}``.

        Each record carries the offending ``params`` and the final
        ``error`` string.  Keys with a live entry (a later successful
        put) are never listed.
        """
        with self._lock:
            return self._view(sweep).quarantined()

    # -- aggregate views ------------------------------------------------

    def _sweeps(self) -> List[str]:
        """Names of the sweep directories under the root."""
        try:
            return sorted(c.name for c in self.root.iterdir() if c.is_dir())
        except OSError:
            return []

    def entries(self, sweep: str | None = None) -> Iterator[dict]:
        """The live put records of ``sweep`` (or of every sweep), each a
        dict with ``key``, ``params``, ``created``, ``result`` and the
        optional ``batch`` stamp, in log order.  Records that fail
        validation are skipped (:meth:`get` heals them)."""
        for name in [sweep] if sweep is not None else self._sweeps():
            try:
                fd = os.open(self.log_path(name), os.O_RDONLY)
            except OSError:
                continue
            try:
                with self._lock:
                    spans = sorted(
                        self._sync(name, fd).live.items(),
                        key=lambda item: item[1],
                    )
                for key, (offset, length) in spans:
                    try:
                        yield _valid_put(os.pread(fd, length, offset), key)
                    except (ValueError, KeyError, TypeError):
                        continue
            finally:
                os.close(fd)

    def stats(self) -> CacheStats:
        """Entry count, total size, and the sweep namespaces present.

        Reads each sweep's log index — never the records themselves —
        and an unchanged log costs one ``fstat`` per re-read.
        """
        count = size = bad = batch_total = 0
        per_sweep = []
        batch_per_sweep = []
        for name in self._sweeps():
            with self._lock:
                index = self._view(name)
                live, quar = len(index.live), len(index.quarantined())
                nbytes = sum(n for _, n in index.live.values())
                batch_live = sum(1 for k in index.batch if k in index.live)
            if not live and not quar:
                continue
            count += live
            size += nbytes
            bad += quar
            batch_total += batch_live
            per_sweep.append((name, live, quar))
            if batch_live:
                batch_per_sweep.append((name, batch_live))
        return CacheStats(
            entries=count,
            bytes=size,
            sweeps=tuple(name for name, _, _ in per_sweep),
            quarantined=bad,
            per_sweep=tuple(per_sweep),
            batch_entries=batch_total,
            batch_per_sweep=tuple(batch_per_sweep),
        )

    def clear(self, sweep: str | None = None) -> int:
        """Delete all entries (or one sweep's); returns the count removed.

        Whatever else a sweep directory holds goes with it, including
        directories left by older cache layouts.
        """
        removed = 0
        for name in [sweep] if sweep is not None else self._sweeps():
            with self._lock:
                removed += len(self._index(name).live)
                self._indexes.pop(name, None)
            shutil.rmtree(self.root / name, ignore_errors=True)
        return removed


def cached_call(
    tag: str,
    fn,
    *args: Any,
    cache: ResultCache | None = None,
    code: str | None = None,
    **kwargs: Any,
):
    """Memoize ``fn(*args, **kwargs)`` in the sweep cache.

    Used by the benchmark harness (so repeated ``pytest benchmarks/``
    runs are warm) and by point functions that share expensive
    sub-results across points and processes, e.g. the robustness
    sweep's stationary baselines.  Results that are not JSON-serialisable
    (e.g. trace objects) are computed normally and simply not cached.

    When no explicit ``cache`` is given the store lives at
    :func:`default_cache_dir` (``$REPRO_CACHE_DIR``), and setting
    ``$REPRO_CACHE_DISABLE`` (to anything but ``0``/``false``/``no``)
    bypasses the store — the CLI exports both for the duration of a
    ``sweep`` invocation, so ``--cache-dir``/``--no-cache`` also
    govern the ``cached_call`` lookups made inside worker processes.
    An explicitly passed ``cache`` always wins over the kill switch.
    """
    if cache is None and _cache_disabled():
        return fn(*args, **kwargs)
    cache = cache or ResultCache()
    try:
        params = {"tag": tag, "args": list(args), "kwargs": kwargs}
        key = point_key("bench", params, code)
    except TypeError:
        return fn(*args, **kwargs)
    value, hit = cache.get("bench", key)
    if hit:
        return value
    value = fn(*args, **kwargs)
    try:
        cache.put("bench", key, params, value)
    except (TypeError, OSError):
        # Not JSON-able, or the store is unwritable (read-only shared
        # cache): degrade to compute-without-caching, never crash a
        # point function over its memo store.
        pass
    return value
