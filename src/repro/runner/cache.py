"""Content-addressed on-disk cache for sweep-point results.

Layout: one JSON file per point, sharded by key prefix::

    <root>/<sweep-name>/<key[:2]>/<key>.json
    <root>/<sweep-name>/<key[:2]>/MANIFEST.jsonl

where ``key`` is the :func:`repro.runner.hashing.point_key` digest.
The two-hex-character prefix bounds every directory: a sweep directory
holds at most 256 shard directories however many entries it accrues,
so million-point campaigns never produce a directory listing that
chokes tooling (the bounded fan-out pattern of large content stores).
Each shard carries its own append-only **manifest** journalling every
entry written or healed away inside it.  Entries embed the key and
parameters that produced them, so a cache directory is self-describing
and human-readable.  (Entries may contain ``NaN`` tokens — Python's
JSON dialect — where an experiment reports a missing paper value, so
strict-JSON consumers need ``parse_constant``.)

The manifests are the cache's index: ``cache info``
(:meth:`ResultCache.stats`) and sweep resume
(:meth:`ResultCache.manifest_keys`) fold the journals instead of
globbing and stat-ing every entry file, so their cost is
O(shards-touched), not O(entries); per-file folds are additionally
memoized on ``(mtime_ns, size)`` — like ``code_version()`` — so
repeated index reads of an unchanged shard cost one ``stat``.
Journal records are single JSON lines::

    {"op": "put", "key": "<digest>", "bytes": N, "created": T}
    {"op": "del", "key": "<digest>"}

    {"op": "quarantine", "key": "<digest>", "params": {...}, "error": "...", "created": T}

and the index is the fold: last ``put`` wins, ``del`` removes, and
``quarantine`` marks a key as a *known-permanent failure* (a point that
exhausted its retry budget under the runner's fault-tolerance layer —
see ``docs/runner.md``).  Quarantined keys have **no entry file**;
they exist only in the journal, so they can never be served as data.
A later successful ``put`` of the same key clears its quarantine
record (the fold is last-op-wins), which is exactly what a
``--retry-quarantined`` run does when the point finally computes.

**One commit path.**  :meth:`ResultCache.put_many` is the only routine
that writes entry files and journals them; :meth:`ResultCache.put` is
``put_many`` of one.  A commit writes each entry atomically, then
issues a *single* ``O_APPEND`` write and a *single* ``fsync`` per
touched shard manifest, so a 256-point batch costs at most a handful
of manifest syncs however it hashes, and a scalar put costs one.  On
the main thread the commit holds SIGINT/SIGTERM and re-delivers them
once every written entry has its ``put`` record
(:func:`_signals_held`).  :meth:`ResultCache.get_many` is the bulk
read.

Robustness rules:

* entry writes are atomic (temp file + :func:`os.replace`), so a killed
  run never leaves a half-written entry;
* unreadable, truncated, or key-mismatched entries are treated as
  misses and deleted (with a ``del`` journal record), so a corrupted
  cache heals itself on the next run;
* manifest appends are single ``O_APPEND`` writes, safe under
  concurrent writers;
* a missing, torn, or corrupt manifest is rebuilt from the entry
  files themselves (:meth:`ResultCache.rebuild_manifest`), shard by
  shard: the entry files are always the ground truth, the manifests
  only an index over them.  The manifests being advisory is also what
  makes them resume-safe (a stale listing is re-validated by
  :meth:`get` before anything trusts it);
* a journal dominated by dead history (overwritten puts, ``del``
  records, cleared quarantines) is **compacted** down to its fold —
  explicitly via ``python -m repro cache compact``
  (:meth:`ResultCache.compact`), or opportunistically whenever an
  index read notices the imbalance.  Compaction rewrites one shard
  journal at a time to a temp file and atomically renames it into
  place, so a crash mid-compaction leaves the old journal intact,
  never a torn hybrid.
"""

from __future__ import annotations

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
from typing import (
    Any, Container, Dict, Iterable, Iterator, List, Mapping, Set, Tuple,
)

from repro.runner.hashing import point_key

__all__ = ["CacheStats", "ResultCache", "cached_call", "default_cache_dir"]

_FORMAT = 1  # bump to invalidate every existing entry
_MANIFEST = "MANIFEST.jsonl"

#: A folded journal: ``(live {key: bytes}, quarantine {key: record},
#: records-in-journal, batch-stamped live keys)``.
_Fold = Tuple[Dict[str, int], Dict[str, dict], int, Set[str]]


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


def shard_prefix(key: str) -> str:
    """The shard directory name for ``key`` — its first two characters.

    ``point_key`` digests are 64 hex characters, giving 256 shards; the
    degenerate short-key case still lands in a well-formed directory.
    """
    return key[:2] if len(key) >= 2 else (key + "__")[:2]


def _line(record: Mapping[str, Any]) -> str:
    """One journal line: compact JSON plus the newline."""
    return json.dumps(record, separators=(",", ":")) + "\n"


@contextmanager
def _signals_held() -> Iterator[None]:
    """Defer SIGINT/SIGTERM to the end of the block (main thread only).

    The block runs with handlers that only record the signal; on exit
    the previous handlers come back and every recorded signal is
    re-delivered with :func:`signal.raise_signal`, so a raising handler
    (the CLI's, or ``KeyboardInterrupt``) fires at the block boundary
    instead of between an entry write and its journal record.  Off the
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


def _fold_lines(text: str) -> _Fold | None:
    """Fold journal text into an index, ``None`` on any unparsable line
    (torn concurrent write, manual edit) — the caller rebuilds from the
    entry files."""
    live: Dict[str, int] = {}
    quar: Dict[str, dict] = {}
    batch_keys: Set[str] = set()
    records = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            op, key = record["op"], record["key"]
        except (ValueError, KeyError, TypeError):
            return None
        records += 1
        if op == "put":
            live[key] = int(record.get("bytes", 0))
            quar.pop(key, None)  # a success clears the quarantine
            if record.get("batch"):
                batch_keys.add(key)
            else:
                batch_keys.discard(key)  # last put wins
        elif op == "del":
            live.pop(key, None)
            batch_keys.discard(key)
        elif op == "quarantine":
            quar[key] = record
        else:
            return None
    return live, quar, records, batch_keys


def _fold_records(fold: _Fold) -> str:
    """Serialise a fold back to minimal journal text (compaction and
    rebuild both converge here so the formats agree)."""
    live, quar, _, batch_keys = fold
    return "".join(
        _line(
            {"op": "put", "key": key, "bytes": size, "batch": True}
            if key in batch_keys
            else {"op": "put", "key": key, "bytes": size}
        )
        for key, size in sorted(live.items())
    ) + "".join(_line(record) for _, record in sorted(quar.items()))


@dataclass(frozen=True)
class CacheStats:
    """Aggregate numbers for ``python -m repro cache info``.

    ``per_sweep`` maps sweep name to ``(entries, quarantined)`` so the
    CLI can surface known-permanent failures per namespace without
    another index read.  ``batch_entries`` counts live entries whose
    last ``put`` came from the vectorized batch path (the ``"batch":
    true`` manifest stamp — see :meth:`ResultCache.put`), with
    ``batch_per_sweep`` the per-namespace breakdown; everything else
    was computed by the scalar per-point path.  ``shards_per_sweep``
    reports each namespace's shard-directory count so fan-out is
    visible from ``cache info``.
    """

    entries: int
    bytes: int
    sweeps: Tuple[str, ...]
    quarantined: int = 0
    per_sweep: Tuple[Tuple[str, int, int], ...] = ()
    batch_entries: int = 0
    batch_per_sweep: Tuple[Tuple[str, int], ...] = ()
    shards_per_sweep: Tuple[Tuple[str, int], ...] = ()


class ResultCache:
    """A directory of content-addressed sweep-point results."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # str(path) -> ((mtime_ns, size), fold): index reads of an
        # unchanged journal cost one stat (invalidated explicitly by
        # every write path as well, belt and braces).
        self._fold_memo: Dict[str, Tuple[Tuple[int, int], _Fold]] = {}

    def path_for(self, sweep: str, key: str) -> Path:
        """Entry location for ``key`` in ``sweep``."""
        return self.root / sweep / shard_prefix(key) / f"{key}.json"

    def shard_manifest_path(self, sweep: str, prefix: str) -> Path:
        """The journal of one shard directory."""
        return self.root / sweep / prefix / _MANIFEST

    def _shard_dirs(self, sweep: str) -> List[Path]:
        """The sweep's shard directories (two-character children)."""
        target = self.root / sweep
        try:
            return sorted(
                child for child in target.iterdir()
                if len(child.name) == 2 and child.is_dir()
            )
        except OSError:
            return []

    # -- entries --------------------------------------------------------

    def get(self, sweep: str, key: str) -> Tuple[Any, bool]:
        """Look up ``key``; returns ``(value, hit)``.

        A malformed entry (truncated write, manual tampering, format
        drift) is deleted and reported as a miss — never an exception.
        """
        path = self.path_for(sweep, key)
        try:
            entry = json.loads(path.read_text())
            if entry["format"] != _FORMAT or entry["key"] != key:
                raise ValueError("stale or mismatched cache entry")
            return entry["result"], True
        except FileNotFoundError:
            return None, False
        except (OSError, ValueError, KeyError, TypeError):
            return self._heal_entry(sweep, key, path)

    def _heal_entry(
        self, sweep: str, key: str, path: Path
    ) -> Tuple[Any, bool]:
        """Delete a bad entry and journal the del in its shard."""
        try:
            path.unlink(missing_ok=True)
            # Record the heal — but never *create* a manifest out of a
            # lone del record: an index-less shard must keep looking
            # index-less so the next read rebuilds it in full.
            manifest = self.shard_manifest_path(sweep, shard_prefix(key))
            if manifest.exists():
                self._append_lines(manifest, _line({"op": "del", "key": key}))
        except OSError:
            pass  # e.g. a read-only shared cache: miss, don't crash
        return None, False

    def _entry_blob(
        self, sweep: str, key: str, params: Mapping[str, Any], value: Any,
        batch: bool,
    ) -> bytes:
        record: Dict[str, Any] = {
            "format": _FORMAT,
            "key": key,
            "sweep": sweep,
            "params": dict(params),
            "created": time.time(),
            "result": value,
        }
        if batch:
            record["batch"] = True
        return json.dumps(record, indent=None).encode("utf-8")

    def _write_entry(self, path: Path, data: bytes) -> None:
        """Atomic entry write: temp file in the target dir + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def put(
        self,
        sweep: str,
        key: str,
        params: Mapping[str, Any],
        value: Any,
        batch: bool = False,
    ) -> None:
        """Store ``value`` atomically; raises ``TypeError`` if not JSON-able.

        A commit of one entry through :meth:`put_many`, with the same
        durability: one journal append and one ``fsync``.

        ``batch`` marks the value as computed by the vectorized batch
        path (:mod:`repro.engine.batch` via a sweep's ``batch_fn``): the
        entry payload and its manifest ``put`` record gain a ``"batch":
        true`` stamp so ``cache info`` can report batch-vs-scalar
        provenance.  The stamp is pure provenance — the key, lookup, and
        the ``result`` payload are identical either way, so batch and
        scalar runs stay interchangeable cache-wise.  (Like the manifest
        itself the stamp is advisory: :meth:`rebuild_manifest` re-derives
        the index from entry *stats* without opening files, so a rebuilt
        journal reports every entry as scalar.)
        """
        self.put_many(sweep, [(key, params, value)], batch)

    def put_many(
        self,
        sweep: str,
        entries: Iterable[Tuple[str, Mapping[str, Any], Any]],
        batch: bool = False,
    ) -> int:
        """Commit ``(key, params, value)`` triples; returns the count stored.

        The cache's only write path.  Every entry file is written
        atomically on its own, then the put records are grouped by
        shard and each touched shard manifest receives **one**
        ``O_APPEND`` write followed by **one** ``fsync``.  The journal
        step runs even when an entry write fails part-way (a value that
        is not JSON-able, a full disk), so every entry file a commit
        leaves on disk has its ``put`` record; on the main thread
        SIGINT/SIGTERM are held for the whole commit
        (:func:`_signals_held`) and re-delivered after it.
        """
        by_shard: Dict[str, List[str]] = {}
        written: Set[str] = set()
        with _signals_held():
            try:
                for key, params, value in entries:
                    data = self._entry_blob(sweep, key, params, value, batch)
                    prefix = shard_prefix(key)
                    self._write_entry(self.path_for(sweep, key), data)
                    record: Dict[str, Any] = {
                        "op": "put", "key": key, "bytes": len(data),
                        "created": time.time(),
                    }
                    if batch:
                        record["batch"] = True
                    try:
                        # A rebuild may index this entry from its file
                        # (without the batch stamp); the queued record
                        # still appends and wins under last-op-fold.
                        self._index_preexisting_shard(
                            sweep, prefix, key, written
                        )
                    except OSError:
                        pass
                    by_shard.setdefault(prefix, []).append(_line(record))
                    written.add(key)
            finally:
                for prefix, lines in by_shard.items():
                    try:
                        self._append_lines(
                            self.shard_manifest_path(sweep, prefix),
                            "".join(lines),
                            fsync=True,
                        )
                    except OSError:
                        pass  # entry files are the ground truth
        return len(written)

    def get_many(self, sweep: str, keys: Iterable[str]) -> Dict[str, Any]:
        """Bulk lookup; returns ``{key: value}`` for the hits only.

        Misses (and healed-away corrupt entries) are simply absent, so
        callers resolve a whole resume wave with one call and compute
        the complement.
        """
        hits: Dict[str, Any] = {}
        for key in keys:
            value, hit = self.get(sweep, key)
            if hit:
                hits[key] = value
        return hits

    def _index_preexisting_shard(
        self, sweep: str, prefix: str, key: str, ignore: Container[str]
    ) -> None:
        """Heal an index-less shard that already holds *other* entries.

        First write into a shard directory whose manifest vanished:
        rebuild the shard's journal from its files, which indexes the
        entry just written too.  ``put_many`` passes the keys it has
        already written this call as ``ignore`` — its own
        not-yet-journaled entries must not masquerade as a pre-existing
        index-less shard.
        """
        if self.shard_manifest_path(sweep, prefix).exists():
            return
        if any(
            p.suffix == ".json"
            and p.name != f"{key}.json"
            and p.stem not in ignore
            for p in (self.root / sweep / prefix).iterdir()
        ):
            self._rebuild_shard(sweep, prefix)

    # -- manifest -------------------------------------------------------

    def _append_lines(
        self, path: Path, lines: str, fsync: bool = False
    ) -> None:
        """Append journal text with a single atomic ``O_APPEND`` write."""
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, lines.encode())
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._fold_memo.pop(str(path), None)

    def _fold_file(self, path: Path) -> _Fold | None:
        """Memoized fold of one journal file.

        ``None`` when the file is missing or torn.  The memo key is the
        ``(mtime_ns, size)`` snapshot — the ``code_version()`` trick —
        so an unchanged journal re-folds for the price of a ``stat``;
        every in-process write additionally drops the memo outright.
        """
        spath = str(path)
        try:
            st = os.stat(path)
        except OSError:
            self._fold_memo.pop(spath, None)
            return None
        sig = (st.st_mtime_ns, st.st_size)
        memo = self._fold_memo.get(spath)
        if memo is not None and memo[0] == sig:
            return memo[1]
        try:
            text = path.read_text()
        except OSError:
            return None
        fold = _fold_lines(text)
        if fold is None:
            self._fold_memo.pop(spath, None)
        else:
            self._fold_memo[spath] = (sig, fold)
        return fold

    def _fold_shard(self, sweep: str, prefix: str) -> _Fold:
        """One shard's fold.

        A missing/torn journal is rebuilt from the shard's entry files,
        and a journal dominated by dead history is compacted.  Always
        returns a (possibly empty) fold — on a read-only store the
        derived index is served without being persisted.
        """
        path = self.shard_manifest_path(sweep, prefix)
        fold = self._fold_file(path)
        if fold is None:
            live = self._rebuild_shard(sweep, prefix)
            fold = self._fold_file(path)
            if fold is None:
                # Could not persist (read-only store): serve the
                # derived index; quarantine lines, if any, are gone
                # with the unreadable journal.
                return live, {}, len(live), set()
            return fold
        if self._wants_compaction(fold):
            self._compact_shard(sweep, prefix)
            return self._fold_file(path) or fold
        return fold

    def _folded_sweep(self, sweep: str) -> _Fold:
        """The sweep's index: the union of its shard folds.

        ``records`` sums every journal line so callers can see dead
        weight.  Cost is O(shards-touched): one directory listing plus
        one (memoized) fold per journal present.
        """
        live: Dict[str, int] = {}
        quar: Dict[str, dict] = {}
        batch_keys: Set[str] = set()
        records = 0
        for shard in self._shard_dirs(sweep):
            slive, squar, srecords, sbatch = self._fold_shard(
                sweep, shard.name
            )
            live.update(slive)
            quar.update(squar)
            batch_keys |= sbatch
            records += srecords
        for key in live:
            quar.pop(key, None)  # a live entry outranks any quarantine
        return live, quar, records, batch_keys

    def _rebuild_shard(self, sweep: str, prefix: str) -> Dict[str, int]:
        """Re-derive one shard's journal from its entry files.

        Keys are the entry filenames and sizes come from ``stat``, so
        no entry is opened.  Quarantine records exist *only* in the
        journal, so every parsable quarantine line of the old (possibly
        torn) manifest is salvaged — a single corrupt line must not
        amnesty a known-permanent failure.  The new manifest is written
        atomically; on a read-only cache the derived index is returned
        without being persisted.
        """
        target = self.root / sweep / prefix
        live: Dict[str, int] = {}
        if not target.is_dir():
            return live
        for path in target.glob("*.json"):
            try:
                live[path.stem] = path.stat().st_size
            except OSError:
                continue  # vanished mid-scan
        manifest = self.shard_manifest_path(sweep, prefix)
        quar: Dict[str, dict] = {}
        try:
            old = manifest.read_text()
        except OSError:
            old = ""
        for line in old.splitlines():
            try:
                record = json.loads(line)
                op, key = record["op"], record["key"]
            except (ValueError, KeyError, TypeError):
                continue  # salvage what parses, skip the torn line
            if op == "quarantine":
                quar[key] = record
            elif op == "put":
                quar.pop(key, None)
        for key in live:
            quar.pop(key, None)  # an entry file on disk outranks it
        self._replace_journal(manifest, _fold_records((live, quar, 0, set())))
        return live

    def _replace_journal(self, path: Path, text: str) -> bool:
        """Atomically swap a journal's content: temp file + rename, so a
        crash at any instant leaves either the old or the new journal,
        never a torn hybrid.  Returns False, persisting nothing, on a
        read-only store."""
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return False  # e.g. a read-only shared cache
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
            return False
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        finally:
            self._fold_memo.pop(str(path), None)
        return True

    def rebuild_manifest(self, sweep: str) -> Dict[str, int]:
        """Re-derive every shard journal of ``sweep`` from its entry
        files; returns the live index.  A concurrent append racing a
        rebuild loses at most its own record, which the next ``put``
        of that key — or the next rebuild — restores.
        """
        live: Dict[str, int] = {}
        for shard in self._shard_dirs(sweep):
            live.update(self._rebuild_shard(sweep, shard.name))
        return live

    def manifest(self, sweep: str) -> Dict[str, int]:
        """The sweep's live index, ``{key: bytes}`` (healed if needed).

        Opportunistically compacts any journal whose dead history
        (puts overwritten, ``del`` records, cleared quarantines)
        outnumbers its live entries, so a churned sweep's index read
        stays O(shards-touched) no matter how long its history grew.
        """
        live, _, _, _ = self._folded_sweep(sweep)
        return live

    @staticmethod
    def _wants_compaction(fold: _Fold) -> bool:
        """Whether a folded journal is worth rewriting: more dead
        records than live ones, with a small floor so tiny journals
        never churn."""
        live, quar, records, _ = fold
        dead = records - len(live) - len(quar)
        return dead > max(len(live) + len(quar), 4)

    def _compact_shard(self, sweep: str, prefix: str) -> int:
        """Rewrite one shard journal down to its fold; returns dead
        records dropped.  Crash-safe (:meth:`_replace_journal`) and
        best-effort on read-only caches."""
        path = self.shard_manifest_path(sweep, prefix)
        fold = self._fold_file(path)
        if fold is None:
            return 0
        live, quar, records, _ = fold
        dead = records - len(live) - len(quar)
        if dead <= 0 or not self._replace_journal(path, _fold_records(fold)):
            return 0
        return dead

    def compact(self, sweep: str) -> int:
        """Fold dead history away, journal by journal; returns the
        total number of dead records dropped.

        Each shard journal is rewritten independently and atomically,
        so a crash mid-compaction affects at most the one journal being
        renamed — and that one is either fully old or fully folded (the
        torn-compaction recovery guarantee).  Missing or torn journals
        are rebuilt instead (already minimal, so they count no dead
        records).
        """
        dead = 0
        for shard in self._shard_dirs(sweep):
            path = self.shard_manifest_path(sweep, shard.name)
            if self._fold_file(path) is None:
                self._rebuild_shard(sweep, shard.name)
            else:
                dead += self._compact_shard(sweep, shard.name)
        return dead

    # -- quarantine -----------------------------------------------------

    def quarantine(
        self, sweep: str, key: str, params: Mapping[str, Any], error: str
    ) -> None:
        """Journal ``key`` as a known-permanent failure.

        Written by the runner when a point exhausts its retry budget
        under ``on_error="keep"``: resumes then skip the point instead
        of re-failing it (``--retry-quarantined`` opts back in), and
        ``cache info`` surfaces the count.  The record lives in the
        key's *shard* manifest, so it follows the entry through every
        per-shard operation.  Best-effort like every index write — a
        read-only cache loses the record, never the run.
        """
        prefix = shard_prefix(key)
        shard_dir = self.root / sweep / prefix
        try:
            shard_dir.mkdir(parents=True, exist_ok=True)
            if not self.shard_manifest_path(sweep, prefix).exists() and any(
                p.suffix == ".json" for p in shard_dir.iterdir()
            ):
                # Index-less shard: index the entries first so the new
                # journal is a complete fold.
                self._rebuild_shard(sweep, prefix)
            self._append_lines(
                self.shard_manifest_path(sweep, prefix),
                _line({"op": "quarantine", "key": key,
                       "params": dict(params), "error": str(error),
                       "created": time.time()}),
            )
        except OSError:
            pass

    def quarantined(self, sweep: str) -> Dict[str, dict]:
        """The sweep's known-permanent failures, ``{key: record}``.

        Each record carries the offending ``params`` and the final
        ``error`` string.  Keys with a live entry (a later successful
        put) are never listed.
        """
        _, quar, _, _ = self._folded_sweep(sweep)
        return quar

    def manifest_keys(self, sweep: str) -> Set[str]:
        """Keys the index lists for ``sweep`` — the resume fast path.

        One (memoized) journal fold per shard touched, O(1) in the
        number of *other* sweeps' entries and independent of entry
        sizes.  Listings are advisory: callers must still :meth:`get`
        (which validates) before trusting one.
        """
        return set(self.manifest(sweep))

    # -- aggregate views ------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """All entry files currently on disk.

        A snapshot, not a lock: a concurrent sweep or :meth:`clear` may
        remove a listed file before the caller touches it, so consumers
        must tolerate vanished paths.  (:meth:`stats` does not walk
        this — it folds the manifests — but :meth:`clear` ground-truths
        against the files.)
        """
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*/*/*.json")

    def stats(self) -> CacheStats:
        """Entry count, total size, and the sweep namespaces present.

        Reads one journal per shard — never the entry files themselves
        — so ``cache info`` costs O(shards), not O(entries); with warm
        fold memos it is O(shards) ``stat`` calls.  Shards without a
        readable journal are healed on the way through.
        """
        count = 0
        size = 0
        bad = 0
        batch_total = 0
        sweeps = []
        per_sweep = []
        batch_per_sweep = []
        shards_per_sweep = []
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if not child.is_dir():
                    continue
                live, quar, _, batch_keys = self._folded_sweep(child.name)
                if not live and not quar:
                    continue
                batch_live = sum(1 for key in batch_keys if key in live)
                count += len(live)
                size += sum(live.values())
                bad += len(quar)
                batch_total += batch_live
                sweeps.append(child.name)
                per_sweep.append((child.name, len(live), len(quar)))
                if batch_live:
                    batch_per_sweep.append((child.name, batch_live))
                shards_per_sweep.append(
                    (child.name, len(self._shard_dirs(child.name)))
                )
        return CacheStats(
            entries=count,
            bytes=size,
            sweeps=tuple(sweeps),
            quarantined=bad,
            per_sweep=tuple(per_sweep),
            batch_entries=batch_total,
            batch_per_sweep=tuple(batch_per_sweep),
            shards_per_sweep=tuple(shards_per_sweep),
        )

    def clear(self, sweep: str | None = None) -> int:
        """Delete all entries (or one sweep's); returns the count removed.

        Counting ground-truths against the entry files (not the index):
        ``clear`` is the maintenance path, and the manifests die with
        their directories anyway.  Whatever else a sweep directory
        holds goes with it.
        """
        self._fold_memo.clear()
        if sweep is not None:
            target = self.root / sweep
            removed = (
                len(list(target.glob("*/*.json"))) if target.is_dir() else 0
            )
            shutil.rmtree(target, ignore_errors=True)
            return removed
        removed = len(list(self.entries()))
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
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
