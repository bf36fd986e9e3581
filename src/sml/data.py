"""Session corpus ingestion, cleaning, and chronological splitting.

The pipeline is: raw event rows -> grouped sessions -> (drop rare items,
drop short sessions, truncate long sessions) -> dense item vocabulary ->
chronological train/test split with the test side restricted to the train
vocabulary.  The cleaning step repeats its three filters until nothing
changes, so the reported vocabulary counts always describe the corpus that
is actually returned, and running preprocess on its own output is a no-op.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("session_id", "timestamp", "item_id")


class DataError(Exception):
    """Raised for malformed or unusable input data."""


class EmptyDatasetError(DataError):
    """Raised when filtering leaves nothing to work with."""


@dataclass(frozen=True)
class RawEvent:
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


@dataclass
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

def _parse_timestamp(raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        return int(float(raw))  # tolerate "12.0"; raises for garbage


def ingest(path: str, fmt: str = "csv") -> list[RawEvent]:
    """Read raw events; malformed rows are skipped with a warning.

    More than 10% skipped rows means the file is probably the wrong format
    and raises :class:`DataError`.
    """
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown input format {fmt!r}")
    events: list[RawEvent] = []
    skipped = 0
    total = 0

    def push(session_id, timestamp, item_id) -> bool:
        session_id = "" if session_id is None else str(session_id)
        item_id = "" if item_id is None else str(item_id)
        if not session_id or not item_id:
            return False
        try:
            ts = _parse_timestamp(timestamp)
        except (TypeError, ValueError, OverflowError):
            return False
        events.append(RawEvent(session_id, ts, item_id))
        return True

    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with handle:
        if fmt == "csv":
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise DataError(f"{path}: missing required columns {missing}")
            for row in reader:
                total += 1
                if not push(row.get("session_id"), row.get("timestamp"),
                            row.get("item_id")):
                    skipped += 1
        else:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                total += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if not isinstance(obj, dict) or not push(
                        obj.get("session_id"), obj.get("timestamp"),
                        obj.get("item_id")):
                    skipped += 1

    if skipped:
        logger.warning("%s: skipped %d of %d malformed rows", path, skipped, total)
    if total and skipped / total > 0.10:
        raise DataError(
            f"{path}: {skipped}/{total} rows malformed; refusing to continue")
    return events


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def _group_events(events: list[RawEvent]) -> list[tuple[str, list[tuple[int, str]]]]:
    """Group by session id (file order) and time-order within each session."""
    order: dict[str, list[tuple[int, str]]] = {}
    for ev in events:
        order.setdefault(ev.session_id, []).append((ev.timestamp, ev.item_id))
    grouped = []
    for sid, rows in order.items():
        rows.sort(key=lambda r: r[0])  # stable: file order breaks ties
        grouped.append((sid, rows))
    return grouped


def preprocess(events: list[RawEvent], min_item_count: int = 5,
               min_session_length: int = 2,
               max_session_length: int = 15) -> Dataset:
    """Clean a raw event stream into a dense, bounded session corpus.

    Each pass drops items rarer than ``min_item_count`` across the whole
    corpus, then sessions shorter than ``min_session_length``, then truncates
    sessions to their most recent ``max_session_length`` events.  Passes
    repeat until stable so the final vocabulary counts are the counts of the
    returned corpus itself.
    """
    if min_session_length < 2:
        raise ValueError("min_session_length must be at least 2")
    if max_session_length < min_session_length:
        raise ValueError("max_session_length must cover min_session_length")

    sessions = _group_events(events)
    while True:
        counts = Counter(item for _, rows in sessions for _, item in rows)
        kept_items = {item for item, c in counts.items() if c >= min_item_count}
        nxt = []
        for sid, rows in sessions:
            rows = [r for r in rows if r[1] in kept_items]
            if len(rows) < min_session_length:
                continue
            nxt.append((sid, rows[-max_session_length:]))
        if nxt == sessions:
            break
        sessions = nxt

    if not sessions:
        raise EmptyDatasetError("no sessions survive preprocessing")

    vocab = ItemVocab()
    out = []
    for sid, rows in sessions:
        indices = []
        for ts, item in rows:
            idx = vocab.add(item)
            vocab.counts[idx] += 1
            indices.append(idx)
        out.append(Session(sid, indices, [ts for ts, _ in rows]))
    return Dataset(out, vocab)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def split_train_test(dataset: Dataset, test_fraction: float = 0.1) -> Split:
    """Hold out the chronologically last fraction of sessions for testing.

    The train side gets a fresh dense vocabulary; test items that never occur
    in train are removed (they could not be recommended, so keeping them
    would only add unanswerable ground truth), and test sessions left with
    fewer than two items are dropped.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = len(dataset.sessions)
    ordered = sorted(dataset.sessions, key=lambda s: s.start_time)
    # the epsilon keeps float noise like 30 * 0.1 = 3.0000000000000004
    # from bumping the ceiling up a whole session
    n_test = max(1, math.ceil(n * test_fraction - 1e-9))
    if n_test >= n:
        raise EmptyDatasetError("test fraction leaves no training sessions")

    train_sessions = ordered[:-n_test]
    test_sessions = ordered[-n_test:]

    train_vocab = ItemVocab()
    train_out = []
    for s in train_sessions:
        indices = []
        for idx in s.items:
            new_idx = train_vocab.add(dataset.vocab.ids[idx])
            train_vocab.counts[new_idx] += 1
            indices.append(new_idx)
        train_out.append(Session(s.session_id, indices, list(s.timestamps)))

    test_out = []
    for s in test_sessions:
        pairs = [(train_vocab.index[dataset.vocab.ids[idx]], ts)
                 for idx, ts in zip(s.items, s.timestamps)
                 if dataset.vocab.ids[idx] in train_vocab]
        if len(pairs) < 2:
            continue
        test_out.append(Session(s.session_id, [i for i, _ in pairs],
                                [t for _, t in pairs]))
    if not test_out:
        raise EmptyDatasetError("test split empty after vocabulary closure")
    return Split(Dataset(train_out, train_vocab), Dataset(test_out, train_vocab))


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
        handle = open(path, "r", encoding="utf-8")
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


def dataset_from_sessions(rows: list[tuple[str, list[str], list[int]]],
                          vocab: ItemVocab | None = None) -> Dataset:
    """Assemble a Dataset from id-level sessions.

    Without a vocabulary one is built in first-appearance order.  With one,
    unknown items are dropped and sessions shrinking below two items are
    discarded (the vocabulary is shared, not copied).
    """
    if vocab is None:
        vocab = ItemVocab()
        sessions = []
        for sid, items, timestamps in rows:
            indices = []
            for item in items:
                idx = vocab.add(item)
                vocab.counts[idx] += 1
                indices.append(idx)
            sessions.append(Session(sid, indices, list(timestamps)))
        return Dataset(sessions, vocab)

    sessions = []
    dropped_items = 0
    for sid, items, timestamps in rows:
        pairs = [(vocab.index[i], t) for i, t in zip(items, timestamps) if i in vocab]
        dropped_items += len(items) - len(pairs)
        if len(pairs) < 2:
            continue
        sessions.append(Session(sid, [i for i, _ in pairs], [t for _, t in pairs]))
    if dropped_items:
        logger.warning("dropped %d events with out-of-vocabulary items", dropped_items)
    if not sessions:
        raise EmptyDatasetError("no usable sessions after vocabulary mapping")
    return Dataset(sessions, vocab)
