"""FingerprintStore: a persistent, crash-safe, content-addressed result store.

Campaigns (fig3-fig7, table4, and the design-space sweeps of ROADMAP item
4) are hundreds of independent simulations, each a pure function of its
:class:`~repro.sim.spec.RunSpec`.  The store makes that purity durable:
every completed result is recorded on disk under the spec's
:meth:`~repro.sim.spec.RunSpec.content_hash` fingerprint, so a killed
campaign resumes with zero re-simulation, independent shard processes
merge through one directory, and a config change re-simulates only the
specs whose fingerprints changed (see :mod:`repro.sim.campaign` and
``docs/campaigns.md``).

On-disk layout (all paths under the store root)::

    log/<writer>.jsonl     append-only record segments, one per writer
    index.json             atomic snapshot: fingerprint -> (segment, offset)
    manifests/<name>.json  campaign checkpoints (planned fingerprint lists)
    claims/<fp>.json       advisory work-stealing leases (see below)

Crash and concurrency model
---------------------------
* Each :class:`FingerprintStore` instance appends complete JSON lines to
  its **own** segment file, so concurrent writer processes never share a
  file descriptor and cannot interleave bytes.
* A record is one ``write()`` of one newline-terminated line; a writer
  killed mid-append leaves at most one torn tail line, which every reader
  skips (it is not newline-terminated / not valid JSON).  Records are
  flushed to the OS per append but not fsynced, so a SIGKILL'd process
  loses nothing it reported finished, while a power loss can drop the
  most recent records.  An append that fails (ENOSPC, EIO) abandons its
  segment, so the torn bytes stay a tail and the next record starts a
  fresh segment instead of being glued onto them.
* ``index.json``, manifests, claims and compacted segments are all
  published by :func:`atomic_publish` (unique temp name, flush, fsync,
  ``os.replace``), so readers observe either the old or the new file,
  never a partial one.  Index and manifests are compact single-line JSON
  (``json``'s C encoder); indented files from older stores still load.
  The index is purely an accelerator: :meth:`refresh` (and
  :meth:`rebuild_index`) recover the exact same mapping by scanning the
  append-only log.
* Duplicate fingerprints are legal (re-simulation, racing shards);
  deterministic simulations make the payloads interchangeable, and the
  scan order (segments sorted by name, offsets ascending, later wins) makes
  the served record deterministic.
* Claim files (``claims/<fingerprint>.json``) are **advisory** leases
  used by sharded campaigns (:func:`~repro.sim.campaign.run_campaign`
  with ``shard=``): a shard claims a fingerprint before simulating it
  so other shards skip it, and a claim whose lease has expired (a
  SIGKILL'd shard) is re-claimable.  They use the same
  write-temp-then-``os.replace`` crash model as ``index.json``; a lost
  claim race duplicates work (benign, see above) but never corrupts.
* :meth:`compact` rewrites every live record into one fresh segment and
  retires the old ones.  The new segment appears atomically (temp +
  ``os.replace``), so a reader observes either the old segments, the
  duplicated intermediate state, or the compacted store - all equivalent.
  A SIGKILL mid-compaction leaves at most duplicates plus a stale index,
  both of which :meth:`rebuild_index` recovers from.  Compaction assumes
  no *writer* is appending concurrently (it is a maintenance operation:
  ``python -m repro.tools store <dir> compact``); a segment that grows
  while compaction runs is left in place, not retired.

The store is the only result tier: :func:`~repro.sim.campaign.run_batch`
and :func:`~repro.sim.campaign.run_campaign` consult it (``get``) and
record into it (``put``) from the calling process only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import time
import uuid
from pathlib import Path
from typing import IO, Iterator, Mapping, Optional, Sequence

from repro.energy.model import EnergyBreakdown
from repro.sim.driver import RunResult
from repro.sim.spec import RunSpec

#: on-disk schema version stamped into records, index, and manifests
SCHEMA = 1

#: default work-stealing lease duration; must comfortably exceed one
#: spec's simulation time so live shards are not raided mid-run
DEFAULT_LEASE_S = 300.0

_LOG_DIR = "log"
_MANIFEST_DIR = "manifests"
_CLAIM_DIR = "claims"
_INDEX_NAME = "index.json"
_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# result serialization
# ----------------------------------------------------------------------
def result_to_payload(result: RunResult) -> dict:
    """JSON-portable dict of everything durable in a :class:`RunResult`.

    ``reduced`` (numpy arrays) and ``trace`` (artifacts written by
    :mod:`repro.trace`) are dropped - they are re-derivable or stored
    elsewhere, and traced specs bypass the store entirely."""
    payload = dataclasses.asdict(result)
    payload.pop("reduced", None)
    payload.pop("trace", None)
    payload["energy"] = {
        "core_dynamic_j": result.energy.core_dynamic_j,
        "idle_j": result.energy.idle_j,
        "dram_j": result.energy.dram_j,
        "leakage_j": result.energy.leakage_j,
    }
    return payload


def result_from_payload(payload: dict) -> RunResult:
    """Inverse of :func:`result_to_payload` (``reduced``/``trace`` empty)."""
    payload = dict(payload)
    payload["energy"] = EnergyBreakdown(**payload["energy"])
    payload.pop("reduced", None)
    payload.pop("trace", None)
    return RunResult(reduced={}, trace=None, **payload)


def canonical_result_blob(result: "RunResult | dict") -> bytes:
    """Byte-stable identity of a simulation *outcome*: sorted JSON of the
    stored payload minus ``host_seconds`` - the only field allowed to
    differ between bit-identical re-executions.  Two runs of the same
    fingerprint must produce equal blobs (the resume/shard/delta tests
    assert exactly this)."""
    payload = (result_to_payload(result) if isinstance(result, RunResult)
               else dict(result))
    payload.pop("host_seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


def plan_fingerprint(fingerprints: Sequence[str]) -> str:
    """Stable short hash of an ordered fingerprint list (campaign identity)."""
    blob = "\n".join(fingerprints).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _named(exc: OSError, what: str) -> OSError:
    """``exc`` restated with a message that names what failed."""
    return OSError(exc.errno, f"{what}: {exc.strerror or exc}")


@contextlib.contextmanager
def atomic_publish(path: Path, mode: str = "w") -> Iterator[IO]:
    """Publish a file at ``path`` crash-safely.  The caller writes into a
    file staged under a unique temp name beside ``path``; on a clean exit
    it is flushed, fsynced and ``os.replace``-d over the live name, so a
    reader (or a crash) sees the old bytes or the new, never a torn file.
    A failure leaves the live file untouched and the temp file as debris
    for :meth:`FingerprintStore.gc`, and re-raises the ``OSError`` with
    ``path`` in its message."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        with tmp.open(mode) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise _named(exc, f"cannot publish {path}") from exc


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` through :func:`atomic_publish`."""
    with atomic_publish(path) as f:
        f.write(text)


class FingerprintStore:
    """Append-only, multi-writer result store keyed by RunSpec fingerprints.

    >>> with FingerprintStore("campaign_store") as store:  # doctest: +SKIP
    ...     store.put(spec, result)                        # doctest: +SKIP
    ...     store.get_spec(spec).finish_ps                 # doctest: +SKIP
    """

    def __init__(self, root: "Path | str",
                 max_segment_bytes: Optional[int] = None):
        self.root = Path(root)
        self.log_dir = self.root / _LOG_DIR
        self.manifest_dir = self.root / _MANIFEST_DIR
        self.claim_dir = self.root / _CLAIM_DIR
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self.claim_dir.mkdir(parents=True, exist_ok=True)
        #: stable identity of this writer instance: names its log segment
        #: and signs its work-stealing claims
        self.writer_id = f"w{os.getpid()}-{uuid.uuid4().hex[:8]}"
        #: roll to a fresh segment once the current one would exceed this
        #: (None = unbounded); a size cap bounds per-segment scan/compact
        #: cost for long-lived stores
        self.max_segment_bytes = max_segment_bytes
        #: fingerprint -> (segment name, byte offset, byte length)
        self._index: dict[str, tuple[str, int, int]] = {}
        #: segment name -> bytes scanned so far (complete lines only)
        self._scanned: dict[str, int] = {}
        #: fingerprint -> parsed record (records read or written this process)
        self._records: dict[str, dict] = {}
        #: complete-but-unparseable lines seen while scanning (corruption)
        self.corrupt_lines = 0
        self._segment_name: Optional[str] = None
        self._segment_file = None
        self._load_index()
        self.refresh()

    def __enter__(self) -> "FingerprintStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __reduce__(self):
        # the writer id signs claims and names the segment, so a pickled
        # copy in a worker would act as this same writer
        raise TypeError(
            f"FingerprintStore({str(self.root)!r}) is per-process state and "
            "cannot be pickled; open a FingerprintStore on the same root in "
            "each process")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        """Seed the in-memory index from the atomic snapshot, dropping
        entries the log can no longer back (defensive; the snapshot is an
        accelerator, never the source of truth)."""
        path = self.root / _INDEX_NAME
        try:
            snap = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(snap, dict) or snap.get("schema") != SCHEMA:
            return
        sizes: dict[str, int] = {}
        for name, scanned in sorted(snap.get("segments", {}).items()):
            seg = self.log_dir / name
            try:
                size = seg.stat().st_size
            except OSError:
                continue
            if size >= scanned:  # append-only: shorter means a foreign reset
                sizes[name] = size
                self._scanned[name] = int(scanned)
        for fp, loc in snap.get("records", {}).items():
            name, offset, length = loc
            if name in sizes and offset + length <= sizes[name]:
                self._index[fp] = (name, int(offset), int(length))

    def refresh(self) -> int:
        """Scan log segments for records appended since the last scan
        (other writers' segments included).  Returns how many new records
        were indexed.  Torn tail lines (a writer killed mid-append, or one
        still writing) are left unscanned and retried on the next call."""
        found = 0
        for seg in sorted(self.log_dir.glob("*.jsonl")):
            name = seg.name
            start = self._scanned.get(name, 0)
            try:
                with seg.open("rb") as f:
                    f.seek(start)
                    data = f.read()
            except OSError:
                continue
            offset = start
            for line in data.split(b"\n")[:-1]:  # last chunk: torn or empty
                length = len(line) + 1
                if line:
                    fp = self._index_line(name, offset, line)
                    if fp is not None:
                        found += 1
                offset += length
            self._scanned[name] = offset
        return found

    def _index_line(self, name: str, offset: int, line: bytes) -> Optional[str]:
        try:
            rec = json.loads(line)
            fp = rec["fingerprint"]
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            self.corrupt_lines += 1
            return None
        self._index[fp] = (name, offset, len(line) + 1)
        self._records[fp] = rec
        return fp

    def get_record(self, fingerprint: str) -> Optional[dict]:
        """The full stored record (``fingerprint``/``spec``/``result``)."""
        rec = self._records.get(fingerprint)
        if rec is not None:
            return rec
        loc = self._index.get(fingerprint)
        if loc is None:
            return None
        name, offset, length = loc
        try:
            with (self.log_dir / name).open("rb") as f:
                f.seek(offset)
                line = f.read(length)
            rec = json.loads(line)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        self._records[fingerprint] = rec
        return rec

    def get(self, fingerprint: str) -> Optional[RunResult]:
        rec = self.get_record(fingerprint)
        if rec is None:
            return None
        try:
            return result_from_payload(rec["result"])
        except (KeyError, TypeError):
            return None

    def get_spec(self, spec: RunSpec) -> Optional[RunResult]:
        return self.get(spec.content_hash())

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _own_segment(self):
        """This writer's append-only segment (created on first write, and
        re-opened - same name, append mode - after a :meth:`close`, so one
        store instance never scatters records over multiple segments)."""
        if self._segment_file is None:
            if self._segment_name is None:
                self._segment_name = f"{self.writer_id}.jsonl"
            self._segment_file = (self.log_dir / self._segment_name).open("ab")
        return self._segment_file

    def _roll_segment(self) -> None:
        """Retire the open segment; the next :meth:`put` starts a fresh
        one (the size cap, and the way out of a failed append)."""
        try:
            self.close()
        except OSError:
            pass  # a failed append's buffered bytes; the fd is closed
        self._segment_name = f"w{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"

    def put(self, spec: RunSpec, result: RunResult) -> str:
        """Append one record; returns the fingerprint.  The line is flushed
        to the OS before returning, so a subsequent SIGKILL cannot lose it.
        A failed append abandons the segment (its torn bytes stay a tail
        that readers skip) and raises an ``OSError`` naming the
        fingerprint."""
        fp = spec.content_hash()
        rec = {
            "schema": SCHEMA,
            "fingerprint": fp,
            "spec": spec.to_dict(),
            "result": result_to_payload(result),
        }
        line = (json.dumps(rec, sort_keys=True) + "\n").encode()
        f = self._own_segment()
        offset = f.tell()
        if (self.max_segment_bytes is not None and offset > 0
                and offset + len(line) > self.max_segment_bytes):
            self._roll_segment()  # size cap
            f = self._own_segment()
            offset = f.tell()
        try:
            f.write(line)
            f.flush()
        except OSError as exc:
            self._roll_segment()  # never append onto the torn bytes
            raise _named(exc, f"record {fp} not stored") from exc
        self._index[fp] = (self._segment_name, offset, len(line))
        self._scanned[self._segment_name] = offset + len(line)
        self._records[fp] = rec
        return fp

    def close(self) -> None:
        """Close the open segment file descriptor (idempotent).  Reading
        still works afterwards, and a later :meth:`put` re-opens the same
        segment in append mode."""
        f, self._segment_file = self._segment_file, None
        if f is not None:
            f.close()

    # ------------------------------------------------------------------
    # sharded-campaign claims (advisory leases; docs/campaigns.md)
    # ------------------------------------------------------------------
    def claim_path(self, fingerprint: str) -> Path:
        return self.claim_dir / f"{fingerprint}.json"

    def read_claim(self, fingerprint: str) -> Optional[dict]:
        """The raw claim record for a fingerprint, or None."""
        try:
            claim = json.loads(self.claim_path(fingerprint).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(claim, dict) or claim.get("schema") != SCHEMA:
            return None
        return claim

    def claim_holder(self, fingerprint: str) -> Optional[str]:
        """Writer id of a live (unexpired) claim on ``fingerprint``, or
        None when unclaimed / expired / unreadable."""
        claim = self.read_claim(fingerprint)
        if claim is None:
            return None
        try:
            expires = float(claim["expires_unix"])
        except (KeyError, TypeError, ValueError):
            return None
        # leases are cross-host wall-clock deadlines, never simulation input
        now = time.time()  # repro-lint: disable=DET002
        if expires <= now:
            return None
        writer = claim.get("writer")
        return writer if isinstance(writer, str) else None

    def try_claim(self, fingerprint: str,
                  lease_s: float = DEFAULT_LEASE_S,
                  resimulate: bool = False) -> bool:
        """Claim ``fingerprint`` for this writer for ``lease_s`` seconds.

        Returns False when the record already exists (unless
        ``resimulate``: the ``resume=False`` campaign path and traced
        specs) or another writer holds a live lease.  A writer releases
        its claim only after putting the record, so a won claim re-scans
        the log and backs off (releasing the claim) from a record that
        landed since this writer's last :meth:`refresh`.  The claim is
        still **advisory**: two writers claiming the same fingerprint at
        the same instant can both win the write-then-read-back, and that
        lost race merely duplicates one deterministic simulation (the
        store's duplicate model makes the payloads interchangeable).  A
        claim that cannot be written raises the ``OSError`` (naming the
        claim path, hence the fingerprint) rather than reporting the
        fingerprint as held by another writer."""
        if fingerprint in self._index and not resimulate:
            return False
        holder = self.claim_holder(fingerprint)
        if holder is not None and holder != self.writer_id:
            return False
        now = time.time()  # repro-lint: disable=DET002
        claim = {
            "schema": SCHEMA,
            "fingerprint": fingerprint,
            "writer": self.writer_id,
            "claimed_unix": now,
            "expires_unix": now + float(lease_s),
        }
        atomic_write_text(self.claim_path(fingerprint),
                          json.dumps(claim, indent=1, sort_keys=True))
        winner = self.read_claim(fingerprint)
        if winner is None or winner.get("writer") != self.writer_id:
            return False
        if resimulate:
            return True
        self.refresh()
        if fingerprint not in self._index:
            return True
        self.release_claim(fingerprint)
        return False

    def release_claim(self, fingerprint: str) -> None:
        """Drop this writer's claim on ``fingerprint`` (no-op for claims
        held by others - their lease must expire on its own)."""
        claim = self.read_claim(fingerprint)
        if claim is not None and claim.get("writer") == self.writer_id:
            try:
                self.claim_path(fingerprint).unlink()
            except OSError:
                pass

    def clear_stale_claims(self) -> int:
        """Remove claims whose lease expired or whose record now exists;
        returns how many were removed (the ``gc`` path)."""
        removed = 0
        for path in sorted(self.claim_dir.glob("*.json")):
            fingerprint = path.stem
            if (fingerprint in self._index
                    or self.claim_holder(fingerprint) is None):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # ------------------------------------------------------------------
    # index snapshot
    # ------------------------------------------------------------------
    def write_index(self) -> Path:
        """Atomically snapshot the in-memory index to ``index.json``."""
        snap = {
            "schema": SCHEMA,
            "segments": dict(sorted(self._scanned.items())),
            "records": {
                fp: list(loc) for fp, loc in sorted(self._index.items())
            },
        }
        path = self.root / _INDEX_NAME
        atomic_write_text(path, json.dumps(snap, sort_keys=True))
        return path

    def rebuild_index(self) -> Path:
        """Drop every in-memory/on-disk index structure and rebuild the
        mapping from the append-only log alone (recovery path)."""
        self._index.clear()
        self._scanned.clear()
        self._records.clear()
        self.corrupt_lines = 0
        self.refresh()
        return self.write_index()

    # ------------------------------------------------------------------
    # hygiene: compaction and garbage collection
    # ------------------------------------------------------------------
    def segments(self) -> list[str]:
        """Names of every log segment on disk, in scan order."""
        return sorted(p.name for p in self.log_dir.glob("*.jsonl"))

    def compact(self) -> dict:
        """Rewrite every live record into one fresh segment and retire the
        old segments.  Returns a summary dict.

        The compacted segment is streamed through :func:`atomic_publish`,
        so readers never observe a partial segment; a crash between
        publish and retirement leaves duplicates, which the normal scan
        model tolerates and a second ``compact()`` removes.
        Assumes no concurrent *writer* (maintenance operation); any
        segment that grows while compaction runs is left in place."""
        self.close()
        self.refresh()
        old: dict[str, int] = {}
        for name in self.segments():
            try:
                old[name] = (self.log_dir / name).stat().st_size
            except OSError:
                continue
        bytes_before = sum(old.values())
        live_bytes = sum(loc[2] for loc in self._index.values())
        if len(old) <= 1 and live_bytes == bytes_before:
            # a single fully-live segment: nothing to collapse
            return {
                "compacted": False,
                "records": len(self._index),
                "segments_before": len(old),
                "segments_after": len(old),
                "bytes_before": bytes_before,
                "bytes_after": bytes_before,
                "segments_retired": 0,
            }
        new_name = f"c{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        with atomic_publish(self.log_dir / new_name, "wb") as f:
            for fingerprint in sorted(self._index):
                rec = self.get_record(fingerprint)
                if rec is None:
                    continue
                f.write((json.dumps(rec, sort_keys=True) + "\n").encode())
        retired = 0
        for name, size in old.items():
            path = self.log_dir / name
            try:
                if path.stat().st_size != size:
                    continue  # grew mid-compaction: a live writer owns it
                path.unlink()
                retired += 1
            except OSError:
                continue
        # the old in-memory offsets are dead; rebuild from the log
        self._index.clear()
        self._scanned.clear()
        self._records.clear()
        self.corrupt_lines = 0
        self._segment_name = None  # a later put starts a fresh segment
        self.refresh()
        self.clear_stale_claims()
        self.write_index()
        bytes_after = sum(
            (self.log_dir / name).stat().st_size for name in self.segments())
        return {
            "compacted": True,
            "records": len(self._index),
            "segments_before": len(old),
            "segments_after": len(self.segments()),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "segments_retired": retired,
        }

    def gc(self) -> dict:
        """Light hygiene pass: drop orphan temp files (crashed atomic
        writes), expired/satisfied claims, and empty segments.  Unlike
        :meth:`compact` this never rewrites records."""
        self.refresh()
        tmp_removed = 0
        for directory in (self.root, self.log_dir, self.manifest_dir,
                          self.claim_dir):
            for tmp in directory.glob("*.tmp-*"):
                try:
                    tmp.unlink()
                    tmp_removed += 1
                except OSError:
                    pass
        claims_removed = self.clear_stale_claims()
        empty_removed = 0
        for name in self.segments():
            if name == self._segment_name:
                continue
            path = self.log_dir / name
            try:
                if path.stat().st_size == 0:
                    path.unlink()
                    self._scanned.pop(name, None)
                    empty_removed += 1
            except OSError:
                pass
        return {
            "tmp_files_removed": tmp_removed,
            "stale_claims_removed": claims_removed,
            "empty_segments_removed": empty_removed,
        }

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def fingerprints(self) -> frozenset[str]:
        return frozenset(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def __len__(self) -> int:
        return len(self._index)

    def records(self) -> Iterator[dict]:
        """Every stored record, in deterministic fingerprint order."""
        for fp in sorted(self._index):
            rec = self.get_record(fp)
            if rec is not None:
                yield rec

    # ------------------------------------------------------------------
    # campaign manifests
    # ------------------------------------------------------------------
    @staticmethod
    def safe_name(name: str) -> str:
        return _NAME_RE.sub("-", name) or "campaign"

    def manifest_path(self, name: str) -> Path:
        return self.manifest_dir / f"{self.safe_name(name)}.json"

    def write_manifest(self, name: str,
                       specs: "Sequence[RunSpec] | Mapping[str, RunSpec]",
                       shard: Optional[tuple[int, int]] = None) -> Path:
        """Checkpoint a campaign plan: the ordered fingerprint list plus
        each spec's dict, so a later process can resume or delta-plan the
        campaign without re-deriving the spec list.  ``specs`` is a spec
        list (deduped here) or an already deduped ``fingerprint -> spec``
        map in campaign order.  Atomic (replace)."""
        import datetime

        if isinstance(specs, Mapping):
            unique = specs
        else:
            unique = {}
            for spec in specs:
                unique.setdefault(spec.content_hash(), spec)
        order = list(unique)
        by_fp = {fp: spec.to_dict() for fp, spec in unique.items()}
        # operational metadata for failure recovery, never simulation input
        stamp = datetime.datetime.now(datetime.timezone.utc)  # repro-lint: disable=DET002
        manifest = {
            "schema": SCHEMA,
            "name": self.safe_name(name),
            "plan": plan_fingerprint(order),
            "total": len(order),
            "order": order,
            "specs": by_fp,
            "shard": list(shard) if shard is not None else None,
            "saved_iso": stamp.isoformat(timespec="seconds"),
        }
        path = self.manifest_path(name)
        atomic_write_text(path, json.dumps(manifest, sort_keys=True))
        return path

    def read_manifest(self, name: str) -> Optional[dict]:
        try:
            manifest = json.loads(self.manifest_path(name).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
            return None
        return manifest

    def manifest_names(self) -> list[str]:
        return sorted(p.stem for p in self.manifest_dir.glob("*.json"))

    def manifest_specs(self, name: str) -> Optional[list[RunSpec]]:
        """Reconstruct the planned spec list from a manifest (resume
        without the original command line)."""
        manifest = self.read_manifest(name)
        if manifest is None:
            return None
        return [RunSpec.from_dict(manifest["specs"][fp])
                for fp in manifest["order"]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FingerprintStore({str(self.root)!r}, records={len(self)})"
