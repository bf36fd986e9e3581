"""Session corpus ingestion, cleaning, and chronological splitting.

The pipeline is: raw event rows -> index arrays sorted by (session, time)
-> (drop rare items, drop short sessions, truncate long sessions) -> dense
item vocabulary -> chronological train/test split, each side closed over
the train vocabulary by :func:`dataset_from_sessions`.  The cleaning step
repeats its three filters on a mask of live events until the mask stops
changing, so the reported vocabulary counts always describe the corpus
that is actually returned, and running preprocess on its own output is a
no-op.  Vocabularies are in first-appearance order.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, starmap
from typing import Iterable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("session_id", "timestamp", "item_id")
_NO_FIELDS = (None, None, None)


class DataError(Exception):
    """Raised for malformed or unusable input data."""


class EmptyDatasetError(DataError):
    """Raised when filtering leaves nothing to work with."""


class RawEvent(NamedTuple):
    session_id: str
    timestamp: int
    item_id: str


@dataclass
class ItemVocab:
    """Dense mapping between opaque item ids and indices [0, len)."""
    ids: list[str] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)

    def add(self, item_id: str) -> int:
        if item_id in self.index:
            return self.index[item_id]
        idx = len(self.ids)
        self.index[item_id] = idx
        self.ids.append(item_id)
        self.counts.append(0)
        return idx

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.index


@dataclass(slots=True)
class Session:
    session_id: str
    items: list[int]
    timestamps: list[int]

    @property
    def start_time(self) -> int:
        return self.timestamps[0]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class Dataset:
    sessions: list[Session]
    vocab: ItemVocab

    @property
    def n_events(self) -> int:
        return sum(len(s) for s in self.sessions)


@dataclass
class Split:
    train: Dataset
    test: Dataset


@dataclass
class DatasetStats:
    length_histogram: dict[int, int]
    repeat_fractions: dict[str, float]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _event(session_id, timestamp, item_id) -> RawEvent | None:
    """The event of one row's fields, or None when one is missing or bad."""
    session_id = "" if session_id is None else str(session_id)
    item_id = "" if item_id is None else str(item_id)
    if not session_id or not item_id:
        return None
    try:
        try:
            timestamp = int(timestamp)
        except (TypeError, ValueError):
            timestamp = int(float(timestamp))  # tolerate "12.0"; raises for garbage
    except (TypeError, ValueError, OverflowError):
        return None
    return RawEvent(session_id, timestamp, item_id)


def _csv_fields(handle, path: str):
    """Each non-blank row's required fields, all None for a row too short to
    hold them.  A repeated column name reads its last column."""
    reader = csv.reader(handle)
    position = {name: k for k, name in enumerate(next(reader, []))}
    missing = [c for c in REQUIRED_COLUMNS if c not in position]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")
    s, t, i = (position[c] for c in REQUIRED_COLUMNS)
    width = max(s, t, i)
    for row in filter(None, reader):  # a blank line reads as []
        yield (row[s], row[t], row[i]) if len(row) > width else _NO_FIELDS


def _jsonl_fields(handle):
    """Each non-blank line's required fields, all None for a line that is
    not a JSON object."""
    for line in filter(None, map(str.strip, handle)):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        yield tuple(map(obj.get, REQUIRED_COLUMNS)) if isinstance(obj, dict) else _NO_FIELDS


def ingest(path: str, fmt: str = "csv") -> list[RawEvent]:
    """Read raw events; malformed rows are skipped with a warning.

    More than 10% skipped rows means the file is probably the wrong format
    and raises :class:`DataError`.  A UTF-8 byte-order mark is ignored.
    """
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown input format {fmt!r}")
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with handle:
        rows = _csv_fields(handle, path) if fmt == "csv" else _jsonl_fields(handle)
        parsed = list(starmap(_event, rows))
    events = [event for event in parsed if event is not None]
    total, skipped = len(parsed), len(parsed) - len(events)
    if skipped:
        logger.warning("%s: skipped %d of %d malformed rows", path, skipped, total)
    if total and skipped / total > 0.10:
        raise DataError(
            f"{path}: {skipped}/{total} rows malformed; refusing to continue")
    return events


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def _codes(values) -> tuple[np.ndarray, list]:
    """Integer codes in first-appearance order, and the value of each code."""
    code: dict = {}
    return np.array([code.setdefault(v, len(code)) for v in values],
                    dtype=np.int64), list(code)


def _time_key(timestamps) -> np.ndarray:
    """Timestamps as int64, or as their ranks where some do not fit."""
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.unique(np.array(timestamps, dtype=object), return_inverse=True)[1]


def preprocess(events: list[RawEvent], min_item_count: int = 5,
               min_session_length: int = 2,
               max_session_length: int = 15) -> Dataset:
    """Clean a raw event stream into a dense, bounded session corpus.

    Sessions keep stream order; events are time-ordered within one, stream
    order breaking ties.  Each pass drops items rarer than ``min_item_count``
    across the whole corpus, then sessions shorter than
    ``min_session_length``, then truncates sessions to their most recent
    ``max_session_length`` events.  Passes repeat until stable so the final
    vocabulary counts are the counts of the returned corpus itself.
    """
    if min_session_length < 2:
        raise ValueError("min_session_length must be at least 2")
    if max_session_length < min_session_length:
        raise ValueError("max_session_length must cover min_session_length")
    if not events:
        raise EmptyDatasetError("no sessions survive preprocessing")

    session_ids, timestamps, item_ids = zip(*events)
    session, session_names = _codes(session_ids)
    item, item_names = _codes(item_ids)
    order = np.lexsort((_time_key(timestamps), session))  # stable: stream order breaks ties
    session, item = session[order], item[order]
    last = np.cumsum(np.bincount(session)) - 1  # each session's last event

    alive, before = np.ones(len(order), dtype=bool), None
    while not np.array_equal(alive, before):
        before = alive.copy()
        counts = np.bincount(item[alive], minlength=len(item_names))
        alive &= counts[item] >= min_item_count
        lengths = np.bincount(session[alive], minlength=len(session_names))
        alive &= lengths[session] >= min_session_length
        live_so_far = np.cumsum(alive)
        alive &= live_so_far[last][session] - live_so_far < max_session_length
    if not alive.any():
        raise EmptyDatasetError("no sessions survive preprocessing")

    order, session, item = order[alive], session[alive], item[alive]
    codes, first, item = np.unique(item, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    item = np.argsort(by_first)[item]  # dense ids in first-appearance order
    ids = [item_names[c] for c in codes[by_first].tolist()]
    vocab = ItemVocab(ids, np.bincount(item).tolist(), dict(zip(ids, range(len(ids)))))

    items = item.tolist()
    stamps = list(map(timestamps.__getitem__, order.tolist()))
    codes, first = np.unique(session, return_index=True)
    bounds = first.tolist() + [len(items)]
    sessions = [Session(session_names[c], items[a:b], stamps[a:b])
                for c, a, b in zip(codes.tolist(), bounds, bounds[1:])]
    return Dataset(sessions, vocab)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def chronological_split(sessions: list[Session],
                        fraction: float) -> tuple[list[Session], list[Session]]:
    """Sessions in start-time order, cut before the last
    max(1, ceil(n * fraction)) of them; both sides must keep a session."""
    ordered = sorted(sessions, key=lambda s: s.start_time)
    n = len(ordered)
    # the epsilon keeps float noise like 30 * 0.1 = 3.0000000000000004
    # from bumping the ceiling up a whole session
    n_tail = max(1, math.ceil(n * fraction - 1e-9))
    if n_tail >= n:
        raise EmptyDatasetError(
            f"cannot hold out {n_tail} of {n} sessions and keep one to train on")
    return ordered[:-n_tail], ordered[-n_tail:]


def split_train_test(dataset: Dataset, test_fraction: float = 0.1) -> Split:
    """Hold out the chronologically last fraction of sessions for testing.

    Both sides go through :func:`dataset_from_sessions`: the train side gets
    a fresh dense vocabulary, and the test side keeps only items in it (the
    others could not be recommended, so keeping them would only add
    unanswerable ground truth) and sessions left with two or more of them.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    ids = dataset.vocab.ids

    def rows(sessions: list[Session]):
        return ((s.session_id, list(map(ids.__getitem__, s.items)), s.timestamps)
                for s in sessions)

    train, test = map(rows, chronological_split(dataset.sessions, test_fraction))
    train = dataset_from_sessions(train)
    return Split(train, dataset_from_sessions(test, train.vocab))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def stats(dataset: Dataset) -> DatasetStats:
    histogram = Counter(len(s) for s in dataset.sessions)
    repeats = {
        s.session_id: (len(s.items) - len(set(s.items))) / len(s.items)
        for s in dataset.sessions
    }
    return DatasetStats(dict(sorted(histogram.items())), repeats)


def length_histogram_tsv(st: DatasetStats) -> str:
    lines = ["length\tcount"]
    lines += [f"{length}\t{count}" for length, count in sorted(st.length_histogram.items())]
    return "\n".join(lines) + "\n"


def repeat_fractions_tsv(st: DatasetStats) -> str:
    lines = ["session_id\trepeat_fraction"]
    lines += [f"{sid}\t{frac:.6f}" for sid, frac in st.repeat_fractions.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# session-level JSONL (intermediate artifact written by the CLI)
# ---------------------------------------------------------------------------

def write_sessions_jsonl(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in dataset.sessions:
            handle.write(json.dumps({
                "id": s.session_id,
                "items": [dataset.vocab.ids[i] for i in s.items],
                "timestamps": s.timestamps,
            }, sort_keys=True) + "\n")


def read_sessions_jsonl(path: str) -> list[tuple[str, list[str], list[int]]]:
    rows = []
    try:
        handle = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                sid = str(obj["id"])
                items = [str(i) for i in obj["items"]]
                timestamps = [int(t) for t in obj["timestamps"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: bad session record: {exc}") from exc
            if len(items) != len(timestamps):
                raise DataError(f"{path}:{line_no}: items/timestamps length mismatch")
            rows.append((sid, items, timestamps))
    if not rows:
        raise EmptyDatasetError(f"{path}: no sessions")
    return rows


def dataset_from_sessions(rows: Iterable[tuple[str, list[str], list[int]]],
                          vocab: ItemVocab | None = None) -> Dataset:
    """Assemble a Dataset from id-level sessions.

    Without a vocabulary one is built in first-appearance order.  With one,
    unknown items are dropped (the vocabulary is shared, not copied).
    Either way a session left with fewer than two items is dropped with a
    warning, and its items do not enter a new vocabulary.
    """
    fresh = vocab is None
    index = {} if fresh else vocab.index
    sessions = []
    unknown = short = 0
    for sid, items, timestamps in rows:
        if not fresh:
            known = [item in index for item in items]
            unknown += known.count(False)
            items = list(compress(items, known))
            timestamps = list(compress(timestamps, known))
        if len(items) < 2:
            short += 1
            continue
        codes = ([index.setdefault(item, len(index)) for item in items] if fresh
                 else list(map(index.__getitem__, items)))
        sessions.append(Session(sid, codes, list(timestamps)))
    if unknown:
        logger.warning("dropped %d events with out-of-vocabulary items", unknown)
    if short:
        logger.warning("dropped %d sessions with fewer than two items", short)
    if not sessions:
        raise EmptyDatasetError("no sessions with two or more usable items")
    if fresh:
        counts = np.bincount(list(chain.from_iterable(s.items for s in sessions)))
        vocab = ItemVocab(list(index), counts.tolist(), index)
    return Dataset(sessions, vocab)
