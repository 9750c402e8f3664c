"""Persistent, content-addressed result store for sweep points.

Every completed ``(config, workload, plans)`` point is stored under its
``point_fingerprint`` and served back to any later sweep -- the same
process, a fresh process, or a restart after a kill -- without
simulating it again (``SweepScheduler(store_dir=...)``,
``examples/run_experiments.py --store DIR``).

Guarantees:

* **Atomic writes.** Records land via write-to-temp + ``os.replace``,
  so a reader never sees a partial record and a kill mid-write leaves
  only a stale ``.tmp`` file, never a corrupt visible one.
* **Versioned, self-verifying records.**  Each record carries a format
  version, the owning point fingerprint, and the payload's
  ``result_fingerprint``; :func:`unpack_record` recomputes the latter
  over the unpickled payload, so a truncated, tampered, foreign, or
  cross-version record raises :class:`RecordError` instead of silently
  serving wrong data.  Callers re-simulate on any failure.
* **Keyed by simulator code.**  Records live under a digest of the
  ``repro`` package's ``.py`` sources, so a result computed by
  different simulator code is simply absent and gets re-simulated.

Layout: ``<root>/<source digest>/<fp[:2]>/<fp>.res`` -- two-hex-digit
sharding keeps directory fan-out bounded at 256.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from typing import Optional

from repro.harness.parallel import result_fingerprint
from repro.system import SystemResult

__all__ = ["RecordError", "ResultStore", "STORE_FORMAT_VERSION",
           "pack_record", "source_digest", "unpack_record"]

STORE_MAGIC = b"repro-result"
STORE_FORMAT_VERSION = 1
RECORD_SUFFIX = ".res"

#: The ``repro`` package directory whose sources key the store.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RecordError(ValueError):
    """A persisted record failed its format, version or integrity check."""


def source_digest() -> str:
    """A digest of every ``.py`` source file of the ``repro`` package.

    Computed when a store is opened, never at import, so importing the
    harness reads no source files.
    """
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(_PACKAGE_DIR):
        dirnames.sort()  # os.walk descends in this order
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            hasher.update(os.path.relpath(path, _PACKAGE_DIR).encode())
            with open(path, "rb") as fh:
                hasher.update(b"\x00" + fh.read() + b"\x00")
    return hasher.hexdigest()[:16]


def pack_record(result: SystemResult, point_fp: str) -> bytes:
    """Serialize one result as a self-verifying versioned record.

    Header line: ``magic \\x00 version \\x00 point_fp \\x00 result_fp``,
    newline, then the pickled :class:`SystemResult` payload.  The point
    binding lets the reader reject a record that was copied or renamed
    onto the wrong key.
    """
    header = b"\x00".join((STORE_MAGIC, str(STORE_FORMAT_VERSION).encode(),
                           point_fp.encode(),
                           result_fingerprint(result).encode()))
    return header + b"\n" + pickle.dumps(result,
                                         protocol=pickle.HIGHEST_PROTOCOL)


def unpack_record(data: bytes, point_fp: str) -> SystemResult:
    """Parse and fully verify a record; returns the stored result.

    Raises :class:`RecordError` on bad magic (including pre-versioned
    raw pickles), a format-version mismatch, a record bound to a point
    other than ``point_fp``, an unreadable payload, or a payload whose
    recomputed ``result_fingerprint`` differs from the stored one.
    """
    header, sep, payload = data.partition(b"\n")
    if not sep:
        raise RecordError("truncated record: missing header terminator")
    parts = header.split(b"\x00")
    if len(parts) != 4 or parts[0] != STORE_MAGIC:
        raise RecordError("not a repro result record (bad magic)")
    try:
        version = int(parts[1])
    except ValueError:
        raise RecordError("unreadable format version") from None
    if version != STORE_FORMAT_VERSION:
        raise RecordError(f"record format version {version}, "
                          f"this code reads {STORE_FORMAT_VERSION}")
    bound_fp = parts[2].decode()
    if bound_fp != point_fp:
        raise RecordError(
            f"record belongs to point {bound_fp[:12]}..., "
            f"expected {point_fp[:12]}...")
    try:
        result = pickle.loads(payload)
    except Exception as exc:
        raise RecordError(f"unreadable record payload: {exc}") from exc
    if result_fingerprint(result) != parts[3].decode():
        raise RecordError("integrity check failed: stored result "
                          "fingerprint does not match the payload")
    return result


class ResultStore:
    """On-disk result cache keyed by point fingerprint and source digest.

    Several processes may share one root: writes rely on the
    atomic-replace protocol, and a record is only ever read whole.
    """

    def __init__(self, root: str):
        self.directory = os.path.join(root, source_digest())
        os.makedirs(self.directory, exist_ok=True)
        self._tmp_ids = itertools.count()

    def _path(self, point_fp: str) -> str:
        return os.path.join(self.directory, point_fp[:2],
                            point_fp + RECORD_SUFFIX)

    def get(self, point_fp: str) -> Optional[SystemResult]:
        """The verified result stored for ``point_fp``, else ``None``.

        Never raises on a bad record: the offending file is evicted and
        the caller re-simulates.
        """
        try:
            with open(self._path(point_fp), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        try:
            return unpack_record(data, point_fp)
        except RecordError:
            try:
                os.unlink(self._path(point_fp))
            except FileNotFoundError:  # evicted by a concurrent reader
                pass
            return None

    def put(self, point_fp: str, result: SystemResult) -> None:
        """Persist one result atomically."""
        path = self._path(point_fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{next(self._tmp_ids)}"
        with open(tmp, "wb") as fh:
            fh.write(pack_record(result, point_fp))
        os.replace(tmp, path)
