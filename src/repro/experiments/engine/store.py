"""Content-addressed on-disk store for run payloads.

Layout (``v{CACHE_FORMAT_VERSION}`` isolates incompatible schemas)::

    <root>/v1/<key[:2]>/<key>/result.json   # the committed payload
    <root>/v1/<key[:2]>/<key>/model.npz     # optional checkpoint

``result.json`` is written last, via a temp file + atomic rename: its
presence is the commit marker, so an interrupted run leaves at most an
uncommitted directory that the next grid simply recomputes.  A corrupted
or schema-mismatched entry is treated as a miss (and evicted) rather than
an error — the cache must never be able to wedge an experiment.

Crash consistency: the staging file is flushed and ``fsync``'d before
the rename, and the entry directory is fsync'd after it (best-effort),
so a machine crash can leave stale staging litter but never a torn
``result.json``.  Litter from crashed writers is age-gated garbage the
:meth:`ArtifactStore.gc_staging` sweep (``repro cache gc``) removes.

Fault injection: a :class:`~repro.reliability.faults.FaultInjector`
passed at construction intercepts the commit path (site
``"store.commit"``) so IO errors and corrupted staged bytes are testable
on demand — ``tests/experiments/engine/test_store.py`` tortures
concurrent writers with it.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.engine.request import CACHE_FORMAT_VERSION
from repro.reliability.faults import FaultInjector
from repro.utils.logging import get_logger

__all__ = ["ArtifactStore", "CacheEntry", "default_cache_dir"]

_LOGGER = get_logger("experiments.engine.store")

PathLike = Union[str, Path]

_RESULT_FILE = "result.json"
_REQUEST_FILE = "request.json"
_MODEL_FILE = "model.npz"

#: Commit-path instrumentation point for injected faults.
COMMIT_FAULT_SITE = "store.commit"

#: Staging litter younger than this is presumed in flight and kept.
DEFAULT_STAGING_GC_AGE = 24 * 3600.0

#: Process-wide staging-name uniquifier: pid alone is not enough once
#: multiple threads of one process commit concurrently.
_STAGING_COUNTER = itertools.count()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bns``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-bns").expanduser()


@dataclass(frozen=True)
class CacheEntry:
    """One committed run in the store (metadata only, payload not loaded)."""

    key: str
    label: str
    seed: int
    mtime: float
    size_bytes: int
    has_model: bool


class ArtifactStore:
    """Versioned key → payload store with corruption recovery.

    ``fault_injector`` (tests/chaos harness only) intercepts the commit
    path; production stores pass ``None`` and pay nothing.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.version_dir = self.root / f"v{CACHE_FORMAT_VERSION}"
        self._faults = fault_injector

    # ------------------------------------------------------------------ #
    # paths

    def entry_dir(self, key: str) -> Path:
        """Directory holding one run's files (sharded by key prefix)."""
        self._check_key(key)
        return self.version_dir / key[:2] / key

    def result_path(self, key: str) -> Path:
        return self.entry_dir(key) / _RESULT_FILE

    def model_path(self, key: str) -> Path:
        """Where the run's model checkpoint lives (may not exist)."""
        return self.entry_dir(key) / _MODEL_FILE

    # ------------------------------------------------------------------ #
    # read / write

    def load(self, key: str) -> Optional[dict]:
        """The committed payload for ``key``, or ``None`` on miss.

        A malformed entry (truncated JSON, wrong schema, key mismatch) is
        evicted and reported as a miss so the run is recomputed.  A
        *read* failure (transient I/O on a network mount) is only a miss:
        the entry — including any model checkpoint — is left in place.
        """
        path = self.result_path(key)
        if not path.is_file():
            return None
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:  # binary garbage in the file
            _LOGGER.warning(
                "evicting corrupted cache entry %s (%s)", key[:12], exc
            )
            self.evict(key)
            return None
        except OSError as exc:
            _LOGGER.warning(
                "cache entry %s unreadable, treating as miss (%s)",
                key[:12],
                exc,
            )
            return None
        try:
            document = json.loads(text)
            if document["format_version"] != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"format_version {document['format_version']!r}"
                )
            if document["key"] != key:
                raise ValueError(f"stored key {document['key']!r}")
            payload = document["payload"]
            if not isinstance(payload, dict) or "metrics" not in payload:
                raise ValueError("payload missing 'metrics'")
        except (ValueError, KeyError, TypeError) as exc:
            _LOGGER.warning(
                "evicting corrupted cache entry %s (%s)", key[:12], exc
            )
            self.evict(key)
            return None
        return payload

    def store(self, key: str, request_payload: dict, payload: dict) -> Path:
        """Commit ``payload`` under ``key``; returns the result path.

        ``request_payload`` (the canonical request dict) is stored
        alongside so ``cache ls`` and humans can see what a key means
        without reversing the hash — both inside the committed document
        and as a small ``request.json`` sidecar, so listings never parse
        multi-megabyte payloads (Fig. 1 runs embed full score arrays).
        """
        directory = self.entry_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / _REQUEST_FILE).write_text(
            json.dumps(request_payload, sort_keys=True) + "\n"
        )
        document = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "request": request_payload,
            "payload": payload,
        }
        data = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        if self._faults is not None:
            self._faults.fire(COMMIT_FAULT_SITE, key)
            data = self._faults.corrupt(COMMIT_FAULT_SITE, key, data)
        target = directory / _RESULT_FILE
        # Unique staging name: concurrent committers of the same key —
        # other processes on a shared cache mount, other threads of this
        # process — must never interleave writes into one temp file.
        # Last rename wins; every renamed file was whole and fsync'd.
        staging = directory / (
            f"{_RESULT_FILE}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_STAGING_COUNTER)}.tmp"
        )
        try:
            with open(staging, "wb") as handle:
                handle.write(data)
                handle.flush()
                # Durability before visibility: the rename below must
                # never publish a file whose bytes are still in flight.
                os.fsync(handle.fileno())
            os.replace(staging, target)
        except BaseException:
            # Failed commits must not leave litter for gc to age out
            # when we can clean up right now (the store raised, the
            # engine will retry into a fresh staging name).
            staging.unlink(missing_ok=True)
            raise
        self._fsync_dir(directory)
        return target

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Best-effort directory fsync so the rename itself is durable."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError as exc:  # e.g. platforms without O_RDONLY dirs
            _LOGGER.debug("cannot open %s for fsync (%s)", directory, exc)
            return
        try:
            os.fsync(fd)
        except OSError as exc:
            _LOGGER.debug("directory fsync of %s failed (%s)", directory, exc)
        finally:
            os.close(fd)

    def evict(self, key: str) -> None:
        """Remove one entry (no error if absent)."""
        shutil.rmtree(self.entry_dir(key), ignore_errors=True)

    # ------------------------------------------------------------------ #
    # inspection / maintenance

    def keys(self) -> List[str]:
        """Keys of all committed entries, sorted."""
        if not self.version_dir.is_dir():
            return []
        return sorted(
            path.parent.name
            for path in self.version_dir.glob(f"*/*/{_RESULT_FILE}")
        )

    def entries(self) -> List[CacheEntry]:
        """Metadata of every committed entry (for ``repro cache ls``)."""
        out: List[CacheEntry] = []
        for key in self.keys():
            path = self.result_path(key)
            label, seed = "?", -1
            try:
                # Prefer the sidecar; fall back to the committed document
                # for entries written before the sidecar existed.
                sidecar = self.entry_dir(key) / _REQUEST_FILE
                source = sidecar if sidecar.is_file() else path
                document = json.loads(source.read_text())
                spec = document["spec"] if source is sidecar else document[
                    "request"
                ]["spec"]
                label = f"{spec['dataset']}/{spec['model']}/{spec['sampler']}"
                seed = int(spec["seed"])
            except (ValueError, KeyError, TypeError, OSError):  # repro: noqa[R006] -- unreadable metadata degrades the listing label, never the payload
                pass
            try:
                stat = path.stat()
            except OSError:  # repro: noqa[R006] -- entry vanished between keys() and here; a miss, not an error
                continue
            out.append(
                CacheEntry(
                    key=key,
                    label=label,
                    seed=seed,
                    mtime=stat.st_mtime,
                    size_bytes=stat.st_size,
                    has_model=self.model_path(key).is_file(),
                )
            )
        return out

    def clear(self) -> int:
        """Delete every entry of the current format version; returns count."""
        count = len(self.keys())
        shutil.rmtree(self.version_dir, ignore_errors=True)
        return count

    def gc_staging(
        self,
        min_age_seconds: float = DEFAULT_STAGING_GC_AGE,
        *,
        now: Optional[float] = None,
    ) -> int:
        """Remove staging litter left by crashed writers; returns count.

        Targets ``*.tmp`` staging files and ``staging-*`` scratch
        directories anywhere under the store root (all format versions —
        litter under an old version dir is still litter).  Age-gated on
        mtime so an in-flight commit from a live writer is never
        reaped; pass ``min_age_seconds=0`` to sweep everything (tests,
        or an operator who knows no writer is running).  ``now`` is the
        reference timestamp for the age gate — explicit in tests,
        defaulting to the current wallclock (GC compares filesystem
        mtimes; nothing here feeds a run key).
        """
        if min_age_seconds < 0:
            raise ValueError(
                f"min_age_seconds must be >= 0, got {min_age_seconds}"
            )
        if not self.root.is_dir():
            return 0
        if now is None:
            now = time.time()  # repro: noqa[R002] -- GC age gate over file mtimes; never enters a run key or payload
        removed = 0
        candidates = list(self.root.rglob("*.tmp")) + list(
            self.root.rglob("staging-*")
        )
        for path in candidates:
            try:
                age = now - path.stat().st_mtime
            except OSError:  # repro: noqa[R006] -- raced with the owning writer's own cleanup; nothing left to reap
                continue
            if age < min_age_seconds:
                continue
            try:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink()
            except OSError as exc:
                _LOGGER.warning("could not gc %s (%s)", path, exc)
                continue
            _LOGGER.info("gc: removed orphaned staging %s", path)
            removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.result_path(key).is_file()

    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or len(key) < 8 or not key.isalnum():
            raise ValueError(f"malformed run key {key!r}")
