"""The tuple-loop set-up that the array code in ``sml.data`` replaced, kept
as the reference that ``ingest`` and ``preprocess`` are tested against.

``ingest`` reads rows with ``csv.DictReader``; ``preprocess`` groups events
into per-session tuple lists and repeats whole-corpus filter passes until a
pass changes nothing.
"""

import csv
import json
import logging
from collections import Counter

from sml.data import (REQUIRED_COLUMNS, DataError, Dataset, EmptyDatasetError,
                      ItemVocab, RawEvent, Session)

logger = logging.getLogger("sml.data")


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
