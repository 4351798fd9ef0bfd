"""Content-addressed result store: resumable, bitwise-reproducible sweeps.

Every work unit of a scenario (one scheduler comparison, one multicore point,
one motivation run) is described by a *signature* — a plain dictionary that
captures everything result-relevant: the task set (or the generator config and
its derived seed), the processor, the workload model, the online policy, the
simulation length and seed, and the store format version.  The unit's **key**
is the SHA-256 of the canonical JSON encoding of that signature, and the store
maps keys to result payloads on disk:

.. code-block:: text

    <store>/objects/<key[:2]>/<key>.json      one record per computed unit

Because keys derive from content rather than execution order, an interrupted
sweep resumes for free: rerunning the scenario recomputes only the missing
keys and replays everything else from disk.  Payloads are JSON produced by
:mod:`repro.reporting.serialization`, and Python's float round-trip guarantees
make aggregates computed from replayed payloads bitwise-identical to a fresh
run.  Writes are atomic (temp file + rename), so a run killed mid-write never
corrupts the store.

Bumping :data:`STORE_FORMAT` invalidates every old record (their signatures
hash differently), which is the upgrade path whenever a simulator change is
*meant* to produce different numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Union

import numpy
import scipy

from ..core.errors import ReproError
from ..telemetry.core import current as _telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..power.processor import ProcessorModel

__all__ = [
    "STORE_FORMAT",
    "StoreEntry",
    "ResultStore",
    "processor_signature",
    "signature_key",
    "solver_build",
]

#: Version of the signature/payload contract.  Part of every signature, so a
#: bump makes every previously stored record unreachable (and collectable via
#: ``repro store gc --stale``).  Bump it also whenever the NLP changes, or
#: stored solves of the old NLP would be replayed as answers to the new one:
#: ``tests/offline/test_nlp.py`` pins it next to a hash of the functions that
#: build and solve the NLP.
#:
#: 2: transition energy is no longer charged on zero-work dispatches (the
#:    requeue/fmax-fringe fix in the runtime event loops), which changes
#:    stored numbers for runs with a non-free transition model.
#: 3: solves now run on one BLAS thread, so stored numbers change.
#: 4: solve-memo keys leave out the cycle counts the NLP never reads (BCEC,
#:    and ACEC in a WCS solve).
STORE_FORMAT = 4


def signature_key(signature: Mapping[str, Any]) -> str:
    """The content address of a work unit: SHA-256 over canonical JSON."""
    try:
        encoded = json.dumps(signature, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ReproError(f"work-unit signature is not canonically serialisable: {error}") from None
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def processor_signature(processor: "ProcessorModel") -> Dict[str, Any]:
    """The processor physics every signature (work unit and solve memo) hashes.

    The ``name`` label is deliberately absent: it cannot influence a result.
    Changing these fields re-keys every stored record.
    """
    return {
        "vmax": processor.vmax,
        "vmin": processor.vmin,
        "fmax": processor.fmax,
        "vth": processor.vth,
        "alpha": processor.alpha,
        "ceff": processor.ceff,
        "law": processor.law,
    }


def solver_build(blas_threads: Union[int, str] = 1) -> Dict[str, Any]:
    """The solver build every signature (work unit and solve memo) hashes.

    SLSQP's output bits depend on the numpy and scipy versions and on the
    number of BLAS threads.  Solves run on one scipy-OpenBLAS thread
    (:func:`~repro.offline.nlp.single_blas_thread`); a solve whose pin could
    not be set is keyed ``"unpinned"``, so it never answers a pinned lookup.
    """
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": blas_threads}


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored record (``repro store ls`` row)."""

    key: str
    scenario: str
    label: str
    created: float
    store_format: int
    size_bytes: int

    @property
    def stale(self) -> bool:
        return self.store_format != STORE_FORMAT


class ResultStore:
    """A directory of content-addressed result records.

    ``telemetry_prefix`` names this store's counter family (default
    ``result_store``); the solve memo's backing store uses its own
    prefix so its traffic tallies separately.  Counter names are
    precomputed here so the disabled telemetry path stays allocation
    free.
    """

    def __init__(self, root: Union[str, Path], *, telemetry_prefix: str = "result_store"):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self._hit_counter = telemetry_prefix + ".hit"
        self._miss_counter = telemetry_prefix + ".miss"
        self._computed_counter = telemetry_prefix + ".computed"
        self._gc_counter = telemetry_prefix + ".gc_removed"

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        if not path.exists():
            _telemetry().count(self._miss_counter)
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            _telemetry().count(self._miss_counter)
            return None  # treat torn/unreadable records as misses; gc cleans them up
        if record.get("store_format") != STORE_FORMAT:
            _telemetry().count(self._miss_counter)
            return None
        _telemetry().count(self._hit_counter)
        return record.get("payload")

    def contains(self, key: str) -> bool:
        return self.get(key) is not None

    def put(self, key: str, payload: Mapping[str, Any], *, scenario: str = "", label: str = "") -> Path:
        """Atomically persist one payload (write to a temp file, then rename)."""
        record = {
            "store_format": STORE_FORMAT,
            "key": key,
            "scenario": scenario,
            "label": label,
            "created": time.time(),
            "payload": dict(payload),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(f".tmp-{os.getpid()}")
        scratch.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        os.replace(scratch, path)
        _telemetry().count(self._computed_counter)
        return path

    def remove(self, key: str) -> bool:
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False

    # ------------------------------------------------------------------ #
    # Inspection and garbage collection
    # ------------------------------------------------------------------ #
    def _record_paths(self) -> Iterator[Path]:
        if not self.objects.exists():
            return
        yield from sorted(self.objects.glob("*/*.json"))

    def _scratch_paths(self) -> Iterator[Path]:
        """Orphaned ``<key>.tmp-<pid>`` scratch files from writes killed mid-flight.

        ``put`` writes to a scratch file and atomically renames it into place;
        a process killed between the two leaves the scratch behind, where the
        ``*/*.json`` record glob can never see it.
        """
        if not self.objects.exists():
            return
        yield from sorted(self.objects.glob("*/*.tmp-*"))

    def entries(self) -> List[StoreEntry]:
        """Metadata of every readable record, oldest first."""
        rows: List[StoreEntry] = []
        for path in self._record_paths():
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            rows.append(
                StoreEntry(
                    key=record.get("key", path.stem),
                    scenario=record.get("scenario", ""),
                    label=record.get("label", ""),
                    created=float(record.get("created", 0.0)),
                    store_format=int(record.get("store_format", 0)),
                    size_bytes=path.stat().st_size,
                )
            )
        rows.sort(key=lambda entry: (entry.created, entry.key))
        return rows

    def gc(
        self,
        *,
        remove_all: bool = False,
        older_than_days: Optional[float] = None,
        stale_only: bool = False,
        dry_run: bool = False,
    ) -> List[StoreEntry]:
        """Collect records and return what was (or would be) removed.

        Exactly one criterion applies per call: ``remove_all`` drops
        everything, ``older_than_days`` drops records created before the
        cutoff, and ``stale_only`` drops records written under a different
        :data:`STORE_FORMAT` plus unreadable/torn files.

        Orphaned ``.tmp-*`` scratch files (a ``put`` killed between write and
        rename) are always eligible: ``stale_only`` and ``remove_all`` collect
        every orphan, ``older_than_days`` collects orphans older than the
        cutoff (by file mtime — an orphan carries no record metadata).
        """
        chosen = sum(1 for flag in (remove_all, older_than_days is not None, stale_only) if flag)
        if chosen != 1:
            raise ReproError("gc needs exactly one of: remove_all, older_than_days, stale_only")
        cutoff = None if older_than_days is None else time.time() - older_than_days * 86400.0
        removed: List[StoreEntry] = []
        for path in list(self._record_paths()):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                record = None
            entry = StoreEntry(
                key=(record or {}).get("key", path.stem),
                scenario=(record or {}).get("scenario", ""),
                label=(record or {}).get("label", ""),
                created=float((record or {}).get("created", 0.0)),
                store_format=int((record or {}).get("store_format", 0)),
                size_bytes=path.stat().st_size,
            )
            if remove_all:
                doomed = True
            elif cutoff is not None:
                doomed = entry.created < cutoff
            else:
                doomed = record is None or entry.stale
            if doomed:
                removed.append(entry)
                if not dry_run:
                    path.unlink()
        for path in list(self._scratch_paths()):
            mtime = path.stat().st_mtime
            if cutoff is not None and mtime >= cutoff:
                continue
            removed.append(
                StoreEntry(
                    key=path.stem,  # the scratch name is "<key>.tmp-<pid>"
                    scenario="",
                    label="(orphaned scratch file)",
                    created=mtime,
                    store_format=0,
                    size_bytes=path.stat().st_size,
                )
            )
            if not dry_run:
                path.unlink()
        if removed and not dry_run:
            _telemetry().count(self._gc_counter, len(removed))
        return removed


class MemoryStore:
    """In-process stand-in used when ``repro run`` is invoked with ``--no-store``.

    Counts the same ``result_store.*`` telemetry family as
    :class:`ResultStore` so counter-accuracy tests can run storeless.
    """

    def __init__(self):
        self._records: Dict[str, Dict[str, Any]] = {}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._records.get(key)
        _telemetry().count("result_store.hit" if payload is not None else "result_store.miss")
        return payload

    def contains(self, key: str) -> bool:
        return key in self._records

    def put(self, key: str, payload: Mapping[str, Any], *, scenario: str = "", label: str = "") -> None:
        self._records[key] = dict(payload)
        _telemetry().count("result_store.computed")
