"""Content-addressed on-disk cache for experiment results.

A cache entry's key hashes everything that can change an experiment's
rows:

* the ``exp_id`` (which experiment class runs);
* the canonicalized :class:`~repro.tools.harness.HarnessConfig`
  (repetitions, duration, omit, tick, seed — the full fidelity knob);
* a digest of every ``*.py`` file under ``src/repro/`` (any code change
  anywhere in the package invalidates everything — coarse, but the only
  sound choice for a simulator whose layers all feed every number).

Because experiments are deterministic functions of (code, config), a
key hit can return the stored rows without running anything, and the
golden characterization tests verify the returned rows are bit-identical
to a fresh run.  Entries are JSON files sharded by key prefix; writes
are atomic (tmp file + rename) so concurrent campaigns can share a
directory.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.tools.harness import HarnessConfig

__all__ = [
    "CACHE_FORMAT",
    "ResultCache",
    "cache_entry",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
    "source_digest",
]

#: Bump when the entry layout changes; old entries then read as misses.
CACHE_FORMAT = 1

#: Environment override for the cache location (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonical_json(doc: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` in the cwd."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(".repro_cache")


_digest_memo: dict[Path, str] = {}


def source_digest(root: Path | None = None, *, refresh: bool = False) -> str:
    """SHA-256 over (relative path, content hash) of ``root``'s ``*.py``.

    ``root`` defaults to the installed ``repro`` package directory, so
    editing any module in the simulator changes the digest and thereby
    every cache key.  The walk is sorted for platform independence and
    memoized per process (a campaign computes it once, not per task).
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root).resolve()
    if not refresh and root in _digest_memo:
        return _digest_memo[root]
    outer = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        outer.update(rel.encode("utf-8"))
        outer.update(b"\0")
        outer.update(hashlib.sha256(path.read_bytes()).digest())
        outer.update(b"\0")
    digest = outer.hexdigest()
    _digest_memo[root] = digest
    return digest


def cache_key(exp_id: str, config: HarnessConfig, src_digest: str) -> str:
    """The content address of one (experiment, config, code) triple."""
    doc = {
        "format": CACHE_FORMAT,
        "exp_id": exp_id,
        "config": config.to_dict(),
        "source": src_digest,
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def cache_entry(
    exp_id: str,
    config: HarnessConfig,
    src_digest: str,
    elapsed: float,
    result: dict,
) -> dict:
    """The stored form of one finished run (``put`` adds format and key).

    ``repro run`` and ``repro serve`` both write entries through this,
    so either one's entries are warm hits for the other.
    """
    return {
        "exp_id": exp_id,
        "config": config.to_dict(),
        "source": src_digest,
        "elapsed": elapsed,
        "result": result,
    }


@dataclass
class ResultCache:
    """JSON-file store mapping cache keys to experiment-result payloads."""

    root: Path
    hits: int = 0
    misses: int = 0
    stores: int = 0
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on a miss.

        Unreadable or wrong-format entries count as misses — a corrupted
        file must never poison a campaign, only cost a re-run.

        Every hit returns a **deep copy** of the memoized payload: the
        memo is shared by all in-process callers, and handing out the
        same mutable dict would let one consumer's edit (say, rounding
        ``payload["result"]`` rows in place) silently poison every
        later hit for the same key.
        """
        if key not in self._memo:
            path = self._path(key)
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                self.misses += 1
                return None
            if doc.get("format") != CACHE_FORMAT or "result" not in doc:
                self.misses += 1
                return None
            self._memo[key] = doc
        self.hits += 1
        return copy.deepcopy(self._memo[key])

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` (a dict with a ``result`` entry).

        Safe under concurrent writers *and* mid-write crashes — the
        daemon makes both real (two pool workers can finish the same
        coalesce-missed key back to back, and a SIGKILL can land inside
        any ``put``):

        * each writer gets a private ``mkstemp`` file, fsyncs it, then
          publishes with ``os.replace`` — an atomic rename, so readers
          only ever see a complete entry.  Racing writers of the same
          key replace each other whole-file; since entries are a
          deterministic function of the key, every winner's bytes are
          identical (the race regression test asserts this with two
          processes).
        * the tempfile-unlink guard covers every failure point: an
          ``fdopen`` failure closes the raw fd before unlinking, any
          later failure (write, fsync, rename) unlinks the temp file,
          and the original exception always re-raises.  A crashed
          *process* can still orphan a ``.tmp-*`` file; readers never
          look at those (entry paths are ``<key>.json``), so an orphan
          costs bytes, not correctness.
        """
        payload = {"format": CACHE_FORMAT, "key": key, **payload}
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            try:
                fh = os.fdopen(fd, "w")
            except BaseException:
                os.close(fd)
                raise
            with fh:
                fh.write(canonical_json(payload))
                fh.flush()
                # A system crash after the rename must not leave a
                # published-but-empty entry; fsync orders the data
                # ahead of the publish.
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # Deep-copied for the same aliasing reason as get(): the caller
        # still owns (and may mutate) the dict it handed in.
        self._memo[key] = copy.deepcopy(payload)
        self.stores += 1
