"""Trace persistence: CSV ingest and a columnar memory-mapped store.

**CSV** (:func:`load_trace_csv`): columns ``job_id, latency, start_time,
<feature...>`` — the flat layout the public Google/Alibaba trace dumps
have after joining task events with usage tables. It is how a *real*
trace enters :class:`repro.traces.Trace`: convert the dump to this CSV
(``examples/quickstart.py trace.csv`` replays one of its jobs). Files
without a ``start_time`` column load with all tasks starting at time 0.
The package writes no CSV; a trace it generates goes to the store.

**Columnar npz** (:func:`save_trace_npz` / :class:`TraceStore`): one
uncompressed ``.npz`` holding the whole trace as flat float64 columns
(``features`` ``(N, d)``, ``latency`` ``(N,)``, ``start_time`` ``(N,)``)
plus a per-job offset index. Because ``np.savez`` stores members without
compression, :class:`TraceStore` memory-maps the array payloads in place —
opening a multi-GB trace costs a few metadata reads, jobs materialize
lazily as read-only views, and every process that maps the same file
shares one page-cache copy. Binary float64 storage makes the round trip
bit-exact. The file stays a perfectly ordinary npz that ``np.load`` reads
anywhere, but :class:`TraceStore` maps it only if its columns are stored
uncompressed and refuses it otherwise: an eager load would hold the whole
trace in memory. The store records its layout
version (``store_version``); :class:`TraceStore` refuses any other.
"""

from __future__ import annotations

import csv
import zipfile
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np
from numpy.lib import format as npy_format

from repro.traces.schema import Job, Trace

#: Version tag written into every columnar store (bump on layout changes).
TRACE_STORE_VERSION = 1


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def load_trace_csv(path: Union[str, Path], name: str = None) -> Trace:
    """Read a trace CSV (a real trace dump converted to the module's layout).

    Every row must have exactly the header's column count, and each
    assembled :class:`Job` checks its payload as it is built (finite
    features, finite positive durations, finite start times) — errors name
    the job and the first offending task (or the offending CSV line), so
    corrupt dumps fail loud at the boundary instead of poisoning a replay
    later.
    """
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 3 or header[0] != "job_id" or header[1] != "latency":
            raise ValueError(
                f"{path} is not a trace CSV (expected 'job_id,latency,<features>' "
                f"header, got {header[:3]}...)."
            )
        has_starts = header[2] == "start_time"
        feature_names = header[3:] if has_starts else header[2:]
        if not feature_names:
            raise ValueError(f"{path} has no feature columns.")
        n_columns = len(header)
        rows_by_job = defaultdict(list)
        order = []
        for line, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                raise ValueError(
                    f"{path}, line {line}: expected {n_columns} columns "
                    f"(per header), got {len(row)}."
                )
            job_id = row[0]
            if job_id not in rows_by_job:
                order.append(job_id)
            rows_by_job[job_id].append([float(v) for v in row[1:]])
    jobs = []
    n_meta = 2 if has_starts else 1  # latency (+ start_time) before features
    for job_id in order:
        arr = np.asarray(rows_by_job[job_id], dtype=np.float64)
        jobs.append(
            Job(
                job_id=job_id,
                features=arr[:, n_meta:],
                latencies=arr[:, 0],
                feature_names=list(feature_names),
                start_times=arr[:, 1] if has_starts else None,
            )
        )
    return Trace(name=name or path.stem, jobs=jobs)


# ---------------------------------------------------------------------------
# Columnar npz store
# ---------------------------------------------------------------------------


def save_trace_npz(
    trace: Union[Trace, Iterable[Job]],
    path: Union[str, Path],
    name: Optional[str] = None,
) -> Path:
    """Write a trace to ``path`` as a columnar, memory-mappable ``.npz``.

    ``trace`` may be a :class:`~repro.traces.schema.Trace` or any iterable
    of :class:`~repro.traces.schema.Job` — e.g. a generator's
    ``iter_jobs()`` stream, so a 1000+-job trace is exported without ever
    materializing all Job objects at once (only the flat numeric columns
    accumulate, which is the data itself).

    The layout is strictly columnar: per-task columns are concatenated
    across jobs in iteration order and a ``job_offsets`` index (length
    ``n_jobs + 1``) records each job's ``[start, stop)`` row range.
    ``meta`` dicts are not persisted.
    """
    path = Path(path)
    if isinstance(trace, Trace):
        if name is None:
            name = trace.name
        jobs: Iterable[Job] = trace.jobs
    else:
        jobs = trace

    feature_names: Optional[List[str]] = None
    feature_chunks: List[np.ndarray] = []
    latency_chunks: List[np.ndarray] = []
    start_chunks: List[np.ndarray] = []
    job_ids: List[str] = []
    counts: List[int] = []
    for job in jobs:
        if feature_names is None:
            feature_names = list(job.feature_names)
        elif job.feature_names != feature_names:
            raise ValueError(
                f"job {job.job_id} has a different feature schema; traces "
                "must be homogeneous."
            )
        feature_chunks.append(np.asarray(job.features, dtype=np.float64))
        latency_chunks.append(np.asarray(job.latencies, dtype=np.float64))
        start_chunks.append(np.asarray(job.start_times, dtype=np.float64))
        job_ids.append(str(job.job_id))
        counts.append(job.n_tasks)
    if not job_ids:
        raise ValueError("cannot save an empty trace.")

    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    arrays = {
        "features": np.concatenate(feature_chunks, axis=0),
        "latency": np.concatenate(latency_chunks),
        "start_time": np.concatenate(start_chunks),
        "job_offsets": offsets,
        "job_ids": np.asarray(job_ids),
        "feature_names": np.asarray(feature_names),
        "trace_name": np.asarray(name or path.stem),
        "store_version": np.asarray(TRACE_STORE_VERSION, dtype=np.int64),
    }
    # Write through a file object so numpy cannot append a second ".npz".
    with path.open("wb") as fh:
        np.savez(fh, **arrays)
    return path


#: npy header readers by format version.
_NPY_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}


def _mmap_npz_columns(path: Path, columns) -> Optional[dict]:
    """Memory-map the named members of an *uncompressed* npz in place.

    Returns ``{member_name: read-only np.memmap}``, or ``None`` when any
    requested member is compressed or otherwise unmappable (the caller then
    rejects the file). Mapped arrays share pages across processes via the
    OS page cache.
    """
    members = {}
    try:
        with zipfile.ZipFile(path) as zf, path.open("rb") as fh:
            for column in columns:
                zinfo = zf.getinfo(f"{column}.npy")
                if zinfo.compress_type != zipfile.ZIP_STORED:
                    return None
                fh.seek(zinfo.header_offset)
                local = fh.read(30)
                if local[:4] != b"PK\x03\x04":
                    return None
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                data_off = zinfo.header_offset + 30 + name_len + extra_len
                fh.seek(data_off)
                read_header = _NPY_HEADER_READERS.get(npy_format.read_magic(fh))
                if read_header is None:
                    return None
                shape, fortran_order, dtype = read_header(fh)
                if dtype.hasobject:
                    return None
                members[column] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=fh.tell(),
                    shape=shape,
                    order="F" if fortran_order else "C",
                )
    except (zipfile.BadZipFile, ValueError, KeyError, OSError):
        return None
    return members


class TraceStore:
    """Random access to a columnar trace written by :func:`save_trace_npz`.

    Opening the store reads only the (tiny) index arrays; the float64
    feature/latency/start-time columns stay on disk and are memory-mapped
    read-only. :meth:`job` materializes one :class:`Job` lazily as views
    into the map — no copy, no parsing — so iterating a 1000+-job trace
    holds one job's working set in memory at a time and concurrent
    processes mapping the same path share a single page-cache copy.

    Served arrays are **read-only** (writing raises); callers that need to
    mutate must copy. Each served :class:`Job` validates its payload once,
    as it is built (finite features, positive finite durations). Opening
    checks ``store_version``: a store of another layout (or none) raises
    rather than loading silently, and so does a store whose columns cannot
    be mapped (a compressed npz): an eager load would hold the whole trace
    in memory.
    """

    _COLUMNS = ("features", "latency", "start_time")
    _MEMBERS = _COLUMNS + ("job_offsets", "job_ids", "feature_names", "trace_name")

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # Index arrays (offsets, ids, names) are tiny: always eager. Only
        # the per-task float64 columns are worth (and safe to) map.
        with np.load(self.path, allow_pickle=False) as npz:
            names = set(npz.files)
            members = {k: npz[k] for k in names if k not in self._COLUMNS}
        version = members.get("store_version")
        version = "none" if version is None else int(version)
        if version != TRACE_STORE_VERSION:
            raise ValueError(
                f"{self.path} is not a columnar trace store of version "
                f"{TRACE_STORE_VERSION} (its store_version is {version}); "
                "write it with save_trace_npz."
            )
        missing = [k for k in self._MEMBERS if k not in names]
        if missing:
            raise ValueError(
                f"{self.path} is not a columnar trace store "
                f"(missing {missing}); write it with save_trace_npz."
            )
        mapped = _mmap_npz_columns(self.path, self._COLUMNS)
        if mapped is None:
            raise ValueError(
                f"{self.path}: its columns cannot be memory-mapped (a "
                "compressed npz?); write it with save_trace_npz."
            )
        members.update(mapped)
        self._features = members["features"]
        self._latency = members["latency"]
        self._start_time = members["start_time"]
        self._offsets = np.asarray(members["job_offsets"], dtype=np.int64)
        self._job_ids = [str(j) for j in np.asarray(members["job_ids"])]
        self._feature_names = [str(f) for f in np.asarray(members["feature_names"])]
        self.name = str(np.asarray(members["trace_name"]))
        self._validate()

    def _validate(self) -> None:
        if self._features.ndim != 2:
            raise ValueError("features column must be 2-d (n_tasks, d).")
        n = self._features.shape[0]
        if self._latency.shape != (n,):
            raise ValueError("latency column does not match features rows.")
        if self._start_time.shape != (n,):
            raise ValueError("start_time column does not match features rows.")
        if self._offsets.ndim != 1 or self._offsets.shape[0] < 2:
            raise ValueError("job_offsets must hold at least one job.")
        if self._offsets[0] != 0 or self._offsets[-1] != n:
            raise ValueError("job_offsets do not cover the task columns.")
        if np.any(np.diff(self._offsets) <= 0):
            raise ValueError(
                "job_offsets must be strictly increasing (empty jobs are not allowed)."
            )
        if len(self._job_ids) != self._offsets.shape[0] - 1:
            raise ValueError("job_ids and job_offsets disagree.")
        if len(self._feature_names) != self._features.shape[1]:
            raise ValueError("feature_names and features columns disagree.")

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self._job_ids)

    @property
    def n_jobs(self) -> int:
        return len(self._job_ids)

    @property
    def n_tasks(self) -> int:
        return int(self._features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self._features.shape[1])

    @property
    def feature_names(self) -> List[str]:
        return list(self._feature_names)

    @property
    def job_ids(self) -> List[str]:
        return list(self._job_ids)

    def job(self, i: int) -> Job:
        """Materialize job ``i`` lazily as read-only views into the map."""
        n = len(self._job_ids)
        if not -n <= i < n:
            raise IndexError(f"job index {i} out of range for {n} jobs.")
        if i < 0:
            i += n
        lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
        return Job(
            job_id=self._job_ids[i],
            features=self._features[lo:hi],
            latencies=self._latency[lo:hi],
            feature_names=list(self._feature_names),
            start_times=self._start_time[lo:hi],
        )

    def __getitem__(self, i: int) -> Job:
        return self.job(i)

    def __iter__(self) -> Iterator[Job]:
        return self.iter_jobs()

    def iter_jobs(self) -> Iterator[Job]:
        """Yield jobs one at a time (lazy; nothing is kept once consumed)."""
        for i in range(len(self._job_ids)):
            yield self.job(i)

    def close(self) -> None:
        """Drop the column references (maps close once views are released)."""
        self._features = self._latency = self._start_time = None

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # A pickle carries the columns; unpickled arrays come back writable,
    # so the served views are made read-only again here.
    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for column in (self._features, self._latency, self._start_time):
            if column is not None:
                column.flags.writeable = False

    def __repr__(self) -> str:
        return (
            f"TraceStore({self.name!r}, n_jobs={self.n_jobs}, "
            f"n_tasks={self.n_tasks})"
        )
