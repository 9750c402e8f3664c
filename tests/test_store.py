"""Persistent result store: record integrity, layout, source-digest keying.

The acceptance bar: a record served from the store must be provably the
record that was written (version + point binding + recomputed result
fingerprint) by the same simulator code; anything less -- truncation,
tampering, a foreign record renamed onto the key, a different format
version, a record written by other code -- must read as a miss, never
as silently wrong data.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.harness.parallel import result_fingerprint, simulate_point
from repro.harness.store import (
    RecordError,
    ResultStore,
    STORE_FORMAT_VERSION,
    pack_record,
    source_digest,
    unpack_record,
)
from repro.isa.program import Assembler
from repro.workloads.base import Workload
from tests.conftest import small_config

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def result():
    asm = Assembler("store.t0")
    asm.li(1, 0x1_0000).li(2, 42)
    asm.store(2, base=1)
    asm.halt()
    wl = Workload("store-w", [asm.build()], {})
    res, _seconds = simulate_point(small_config(1), wl.programs,
                                   wl.initial_memory)
    return res


FP = "ab" + "0" * 62  # a syntactically plausible point fingerprint


def _with_header_field(data: bytes, index: int, value: bytes) -> bytes:
    header, payload = data.split(b"\n", 1)
    parts = header.split(b"\x00")
    parts[index] = value
    return b"\x00".join(parts) + b"\n" + payload


# ------------------------------------------------------------ record format

def test_record_roundtrip_verifies(result):
    restored = unpack_record(pack_record(result, FP), FP)
    assert result_fingerprint(restored) == result_fingerprint(result)


def test_record_rejects_raw_pickle(result):
    import pickle
    with pytest.raises(RecordError, match="magic"):
        unpack_record(pickle.dumps(result), FP)


def test_record_rejects_wrong_version(result):
    data = _with_header_field(pack_record(result, FP), 1,
                              str(STORE_FORMAT_VERSION + 1).encode())
    with pytest.raises(RecordError, match="format version"):
        unpack_record(data, FP)


def test_record_rejects_foreign_point_binding(result):
    data = pack_record(result, FP)
    with pytest.raises(RecordError, match="belongs to point"):
        unpack_record(data, "cd" + "1" * 62)


def test_record_rejects_lying_result_fingerprint(result):
    data = _with_header_field(pack_record(result, FP), 3, b"0" * 64)
    with pytest.raises(RecordError, match="integrity"):
        unpack_record(data, FP)


def test_record_rejects_truncation(result):
    data = pack_record(result, FP)
    with pytest.raises(RecordError):
        unpack_record(data[: len(data) // 2], FP)
    with pytest.raises(RecordError, match="header"):
        unpack_record(data.split(b"\n", 1)[0], FP)  # header, no terminator


# -------------------------------------------------------------------- store

def test_store_put_get_roundtrip(tmp_path, result):
    root = str(tmp_path / "store")
    store = ResultStore(root)
    store.put(FP, result)
    restored = store.get(FP)
    assert restored is not None
    assert result_fingerprint(restored) == result_fingerprint(result)
    # content-addressed sharded layout: <root>/<digest>/<fp[:2]>/<fp>.res
    assert os.path.exists(os.path.join(root, source_digest(), FP[:2],
                                       FP + ".res"))


def test_store_cold_miss_reads_as_none(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.get("ff" + "2" * 62) is None


def test_store_corrupt_record_is_evicted(tmp_path, result):
    store = ResultStore(str(tmp_path / "store"))
    store.put(FP, result)
    path = store._path(FP)
    with open(path, "wb") as fh:
        fh.write(b"\x80garbage-from-a-crash")
    assert store.get(FP) is None
    assert not os.path.exists(path), "bad record must be evicted"
    # the key can be re-populated cleanly afterwards
    store.put(FP, result)
    assert store.get(FP) is not None


def test_store_persists_across_reopen(tmp_path, result):
    root = str(tmp_path / "store")
    ResultStore(root).put(FP, result)
    restored = ResultStore(root).get(FP)
    assert restored is not None
    assert result_fingerprint(restored) == result_fingerprint(result)


# --------------------------------------------------- keyed by source digest
#
# Records used to be keyed by point fingerprint alone, behind a format
# version bumped by hand: after a simulator change a resumed sweep
# silently restored results the old code computed.

_SWEEP = """
import sys
from repro.harness.parallel import RunSpec, SweepScheduler
from repro.sim.config import SystemConfig
from repro.workloads.suite import standard_suite

scheduler = SweepScheduler(jobs=1, store_dir=sys.argv[1])
workload = standard_suite(2, 0.1)["producer-consumer"]
scheduler.add("g", [RunSpec("p", SystemConfig(n_cores=2), workload)])
report = scheduler.run()
print(report.store_hits, scheduler.results_for("g")["p"].cycles)
"""


def _sweep(src: pathlib.Path, store: pathlib.Path):
    out = subprocess.run([sys.executable, "-c", _SWEEP, str(store)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    store_hits, cycles = map(int, out.split())
    return store_hits, cycles


def test_record_written_by_other_simulator_code_is_resimulated(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    store = tmp_path / "store"
    hits, cycles = _sweep(src, store)
    assert hits == 0
    assert _sweep(src, store) == (1, cycles)    # same code: a store hit

    directory = src / "repro" / "coherence" / "directory.py"
    text = directory.read_text()
    slower = text.replace(
        "self._directory_latency = memory_config.directory_latency",
        "self._directory_latency = memory_config.directory_latency + 3")
    assert slower != text
    directory.write_text(slower)
    hits, changed_cycles = _sweep(src, store)
    assert hits == 0                            # pre-fix: the stale record
    assert changed_cycles != cycles


# ------------------------------------------------------ lookups and writes

def test_store_has_no_false_negatives(tmp_path, result):
    # Every key written is read back, across many shard directories.
    store = ResultStore(str(tmp_path / "store"))
    keys = [f"{i:02x}" + f"{i:x}" * 62 for i in range(0, 256, 7)]
    for key in keys:
        store.put(key, result)
    reopened = ResultStore(str(tmp_path / "store"))
    for key in keys:
        restored = reopened.get(key)
        assert restored is not None, key
        assert result_fingerprint(restored) == result_fingerprint(result)


def test_store_ignores_stale_temp_file_from_a_killed_writer(tmp_path,
                                                             result):
    store = ResultStore(str(tmp_path / "store"))
    stale = pathlib.Path(store._path(FP) + ".tmp.99999.0")
    stale.parent.mkdir(parents=True)
    stale.write_bytes(pack_record(result, FP)[:40])  # killed mid-write
    assert store.get(FP) is None
    store.put(FP, result)
    restored = store.get(FP)
    assert restored is not None
    assert result_fingerprint(restored) == result_fingerprint(result)


def _rewrite_record(root: str, point_fp: str, result, times: int) -> None:
    store = ResultStore(root)
    for _ in range(times):
        store.put(point_fp, result)


def test_store_concurrent_writers_never_expose_a_partial_record(tmp_path,
                                                                result):
    # Two sweeps sharing one store keep replacing the same record while
    # a third process reads it: every read must see a whole record
    # (a partial one would read as a miss and be evicted).
    import multiprocessing

    root = str(tmp_path / "store")
    store = ResultStore(root)
    store.put(FP, result)
    ctx = multiprocessing.get_context("fork")
    writers = [ctx.Process(target=_rewrite_record,
                           args=(root, FP, result, 200))
               for _ in range(2)]
    for writer in writers:
        writer.start()
    misses = 0
    while any(writer.is_alive() for writer in writers):
        misses += store.get(FP) is None
    for writer in writers:
        writer.join(30)
        assert writer.exitcode == 0
    assert misses == 0
    assert store.get(FP) is not None
    assert not list(pathlib.Path(store.directory).rglob("*.tmp.*"))


# --------------------------------------------------------- source digest

def test_store_record_under_another_source_digest_is_absent(
        tmp_path, result, monkeypatch):
    import repro.harness.store as store_module

    root = str(tmp_path / "store")
    monkeypatch.setattr(store_module, "source_digest", lambda: "a" * 16)
    ResultStore(root).put(FP, result)
    monkeypatch.setattr(store_module, "source_digest", lambda: "b" * 16)
    assert ResultStore(root).get(FP) is None
    monkeypatch.setattr(store_module, "source_digest", lambda: "a" * 16)
    assert ResultStore(root).get(FP) is not None


def test_source_digest_is_stable_hex():
    digest = source_digest()
    assert digest == source_digest()
    assert len(digest) == 16
    int(digest, 16)


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A stand-in package tree whose sources key the digest."""
    import repro.harness.store as store_module

    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "a.py").write_text("A = 1\n")
    (root / "sub" / "b.py").write_text("B = 2\n")
    monkeypatch.setattr(store_module, "_PACKAGE_DIR", str(root))
    return root


def test_source_digest_changes_when_a_source_changes(package):
    before = source_digest()
    (package / "sub" / "b.py").write_text("B = 3\n")
    assert source_digest() != before
    (package / "sub" / "b.py").write_text("B = 2\n")
    assert source_digest() == before


def test_source_digest_ignores_non_python_files(package):
    # Bytecode caches appear on first import; they must not move the
    # digest, or every run would start from an empty store.
    before = source_digest()
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\x00pyc")
    (package / "notes.txt").write_text("not a source\n")
    assert source_digest() == before


def test_source_digest_covers_file_paths(package):
    # The same bytes moved to another module are different code.
    before = source_digest()
    (package / "sub" / "b.py").rename(package / "b.py")
    assert source_digest() != before
