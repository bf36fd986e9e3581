"""Ingestion, preprocessing filters, chronological split, stats."""

import csv
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sml import data

import reference_preprocess as reference


def ev(sid, ts, item):
    return data.RawEvent(str(sid), ts, str(item))


def to_events(dataset):
    """Flatten a dataset back into an event stream (session order kept)."""
    return [data.RawEvent(s.session_id, ts, dataset.vocab.ids[idx])
            for s in dataset.sessions
            for idx, ts in zip(s.items, s.timestamps)]


def corpus_events():
    """Five sessions; items u/v/w are frequent, 'rare' occurs twice."""
    rows = [
        ("s1", [("u", 0), ("v", 1), ("w", 2)]),
        ("s2", [("u", 10), ("rare", 11), ("v", 12)]),
        ("s3", [("w", 20), ("u", 21), ("v", 22), ("w", 23)]),
        ("s4", [("rare", 30), ("u", 31)]),
        ("s5", [("v", 40), ("w", 41), ("u", 42), ("v", 43)]),
    ]
    return [ev(sid, ts, item) for sid, items in rows for item, ts in items]


class TestIngest:
    def test_csv_round(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("session_id,timestamp,item_id\n"
                        "a,3,x\n"
                        "a,1,y\n"
                        "b,5,z\n")
        events = data.ingest(str(path), "csv")
        assert events == [ev("a", 3, "x"), ev("a", 1, "y"), ev("b", 5, "z")]

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("session_id,when,item_id\na,1,x\n")
        with pytest.raises(data.DataError):
            data.ingest(str(path))

    def test_jsonl_rows(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text(
            json.dumps({"session_id": "a", "timestamp": 1, "item_id": "x"}) + "\n"
            + json.dumps({"session_id": "a", "timestamp": 2, "item_id": "y"}) + "\n")
        assert data.ingest(str(path), "jsonl") == [ev("a", 1, "x"), ev("a", 2, "y")]

    def test_malformed_rows_skipped_below_threshold(self, tmp_path):
        path = tmp_path / "raw.csv"
        good = [f"s{i},{i},item{i}" for i in range(20)]
        path.write_text("session_id,timestamp,item_id\n" + "\n".join(good)
                        + "\ns_bad,not_a_time,item\n")
        events = data.ingest(str(path))
        assert len(events) == 20

    def test_too_many_malformed_rows(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("session_id,timestamp,item_id\n"
                        "a,1,x\n"
                        "a,oops,y\n"
                        "b,nope,z\n")
        with pytest.raises(data.DataError):
            data.ingest(str(path))

    def test_unreadable_file(self):
        with pytest.raises(data.DataError):
            data.ingest("/nonexistent/raw.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(data.DataError):
            data.ingest(str(tmp_path / "x"), "parquet")

    def test_empty_item_id_skipped(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"s,{i},i{i}" for i in range(20)]
        path.write_text("session_id,timestamp,item_id\n" + "\n".join(rows) + "\ns,99,\n")
        assert len(data.ingest(str(path))) == 20


class TestPreprocess:
    def test_counts_match_brute_force_recount(self):
        ds = data.preprocess(corpus_events(), min_item_count=3,
                             min_session_length=2, max_session_length=15)
        recount = Counter(i for s in ds.sessions for i in s.items)
        for idx, count in enumerate(ds.vocab.counts):
            assert count == recount[idx]
            assert count >= 3

    def test_rare_item_removed_before_length_filter(self):
        # s4 = [rare, u] loses 'rare', shrinks to one event, and is dropped
        ds = data.preprocess(corpus_events(), min_item_count=3)
        ids = {s.session_id for s in ds.sessions}
        assert "s4" not in ids
        assert "rare" not in ds.vocab.index

    def test_session_order_and_time_order(self):
        events = [ev("a", 5, "x"), ev("a", 1, "y"), ev("a", 3, "x"),
                  ev("b", 0, "y"), ev("b", 2, "x")]
        ds = data.preprocess(events, min_item_count=1, max_session_length=15)
        assert [s.session_id for s in ds.sessions] == ["a", "b"]
        assert ds.sessions[0].timestamps == [1, 3, 5]

    def test_truncation_keeps_most_recent(self):
        events = [ev("a", t, f"i{t}") for t in range(6)] * 2  # counts >= 2
        ds = data.preprocess(events, min_item_count=2, max_session_length=4)
        (session,) = ds.sessions
        assert len(session) == 4
        assert [ds.vocab.ids[i] for i in session.items] == ["i4", "i4", "i5", "i5"]

    def test_empty_result_raises(self):
        with pytest.raises(data.EmptyDatasetError):
            data.preprocess([ev("a", 0, "x"), ev("a", 1, "y")], min_item_count=5)

    def test_vocab_is_dense_bijection(self):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        assert sorted(ds.vocab.index.values()) == list(range(len(ds.vocab)))
        for item_id, idx in ds.vocab.index.items():
            assert ds.vocab.ids[idx] == item_id

    def test_idempotent_on_example_corpus(self):
        first = data.preprocess(corpus_events(), min_item_count=3)
        second = data.preprocess(to_events(first), min_item_count=3)
        assert first == second

    def test_min_session_length_validation(self):
        with pytest.raises(ValueError):
            data.preprocess(corpus_events(), min_session_length=1)


class TestSplit:
    def _dataset(self, n=10):
        events = []
        for k in range(n):
            base = 100 * k
            events += [ev(f"s{k}", base, "a"), ev(f"s{k}", base + 1, "b"),
                       ev(f"s{k}", base + 2, "c")]
        return data.preprocess(events, min_item_count=1)

    def test_ten_sessions_yield_one_test(self):
        split = data.split_train_test(self._dataset(10), 0.1)
        assert len(split.train.sessions) == 9
        assert len(split.test.sessions) == 1
        assert split.test.sessions[0].session_id == "s9"

    def test_thirty_sessions_yield_three_test(self):
        split = data.split_train_test(self._dataset(30), 0.1)
        assert len(split.test.sessions) == 3

    def test_chronological(self):
        split = data.split_train_test(self._dataset(10), 0.2)
        last_train = max(s.start_time for s in split.train.sessions)
        first_test = min(s.start_time for s in split.test.sessions)
        assert last_train <= first_test

    def test_session_multiset_preserved(self):
        ds = self._dataset(10)
        split = data.split_train_test(ds, 0.3)
        got = sorted(s.session_id for s in split.train.sessions) + sorted(
            s.session_id for s in split.test.sessions)
        assert sorted(got) == sorted(s.session_id for s in ds.sessions)

    def test_vocab_closure_drops_test_only_items(self):
        events = []
        for k in range(9):
            base = 100 * k
            events += [ev(f"s{k}", base, "a"), ev(f"s{k}", base + 1, "b")]
        events += [ev("s9", 900, "a"), ev("s9", 901, "zz"), ev("s9", 902, "b")]
        ds = data.preprocess(events, min_item_count=1)
        split = data.split_train_test(ds, 0.1)
        assert "zz" not in split.train.vocab
        (test_session,) = split.test.sessions
        assert [split.test.vocab.ids[i] for i in test_session.items] == ["a", "b"]

    def test_test_sessions_below_two_items_dropped(self):
        events = []
        for k in range(9):
            base = 100 * k
            events += [ev(f"s{k}", base, "a"), ev(f"s{k}", base + 1, "b")]
        events += [ev("s9", 900, "a"), ev("s9", 901, "zz")]
        ds = data.preprocess(events, min_item_count=1)
        with pytest.raises(data.EmptyDatasetError):
            data.split_train_test(ds, 0.1)

    def test_fraction_validation(self):
        ds = self._dataset(5)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                data.split_train_test(ds, bad)

    def test_indices_in_train_vocab(self):
        split = data.split_train_test(self._dataset(12), 0.25)
        v = len(split.train.vocab)
        for s in split.train.sessions + split.test.sessions:
            assert all(0 <= i < v for i in s.items)


class TestStats:
    def test_repeat_fraction_one_third(self):
        events = [ev("s", 0, "a"), ev("s", 1, "b"), ev("s", 2, "a")]
        ds = data.preprocess(events, min_item_count=1)
        st_ = data.stats(ds)
        assert st_.repeat_fractions["s"] == pytest.approx(1 / 3)

    def test_length_histogram(self):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        st_ = data.stats(ds)
        assert st_.length_histogram == Counter(len(s) for s in ds.sessions)

    def test_tsv_shapes(self):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        st_ = data.stats(ds)
        hist = data.length_histogram_tsv(st_).splitlines()
        assert hist[0] == "length\tcount"
        reps = data.repeat_fractions_tsv(st_).splitlines()
        assert reps[0] == "session_id\trepeat_fraction"
        assert len(reps) == len(ds.sessions) + 1


class TestSessionsJsonl:
    def test_round_trip(self, tmp_path):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        path = tmp_path / "sessions.jsonl"
        data.write_sessions_jsonl(ds, str(path))
        rows = data.read_sessions_jsonl(str(path))
        rebuilt = data.dataset_from_sessions(rows)
        assert rebuilt == ds

    def test_mapping_through_existing_vocab(self, tmp_path):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        rows = [("q", ["u", "mystery", "v"], [0, 1, 2])]
        mapped = data.dataset_from_sessions(rows, ds.vocab)
        (session,) = mapped.sessions
        assert [ds.vocab.ids[i] for i in session.items] == ["u", "v"]

    def test_unusable_sessions_raise(self):
        ds = data.preprocess(corpus_events(), min_item_count=3)
        with pytest.raises(data.EmptyDatasetError):
            data.dataset_from_sessions([("q", ["mystery"], [0])], ds.vocab)

    def test_one_item_sessions_dropped_with_or_without_vocab(self, caplog):
        rows = [("a", ["x", "y"], [0, 1]), ("b", ["z"], [2]), ("c", ["y", "x"], [3, 4])]
        built = data.dataset_from_sessions(rows)
        assert [s.session_id for s in built.sessions] == ["a", "c"]
        assert built.vocab.ids == ["x", "y"]
        assert built.vocab.counts == [2, 2]
        mapped = data.dataset_from_sessions(rows + [("d", ["x"], [5])], built.vocab)
        assert [s.session_id for s in mapped.sessions] == ["a", "c"]
        assert "dropped 1 sessions with fewer than two items" in caplog.text
        assert "dropped 2 sessions with fewer than two items" in caplog.text

    def test_only_one_item_sessions_raise(self):
        with pytest.raises(data.EmptyDatasetError):
            data.dataset_from_sessions([("a", ["x"], [0]), ("b", ["y"], [1])])

    def test_bad_record_raises(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        path.write_text('{"id": "a", "items": ["x"]}\n')
        with pytest.raises(data.DataError):
            data.read_sessions_jsonl(str(path))


# hypothesis: random corpora keep the preprocessing contract

sessions_strategy = st.lists(
    st.tuples(
        st.integers(0, 30),                       # session key
        st.lists(st.integers(0, 12), min_size=1, max_size=8),  # item pool picks
    ),
    min_size=1, max_size=25,
)


def _events_from(blueprint):
    events = []
    t = 0
    for sid, items in blueprint:
        for item in items:
            events.append(ev(f"s{sid}", t, f"i{item}"))
            t += 1
    return events


@settings(max_examples=60, deadline=None)
@given(sessions_strategy, st.integers(1, 4), st.integers(2, 6))
def test_preprocess_invariants(blueprint, min_count, max_len):
    events = _events_from(blueprint)
    try:
        ds = data.preprocess(events, min_item_count=min_count,
                             min_session_length=2, max_session_length=max_len)
    except data.EmptyDatasetError:
        return
    recount = Counter(i for s in ds.sessions for i in s.items)
    for idx, count in enumerate(ds.vocab.counts):
        assert count == recount[idx] >= min_count
    for s in ds.sessions:
        assert 2 <= len(s) <= max_len
        assert all(0 <= i < len(ds.vocab) for i in s.items)
        assert s.timestamps == sorted(s.timestamps)


@settings(max_examples=60, deadline=None)
@given(sessions_strategy, st.integers(1, 4), st.integers(2, 6))
def test_preprocess_idempotent(blueprint, min_count, max_len):
    events = _events_from(blueprint)
    try:
        first = data.preprocess(events, min_item_count=min_count,
                                min_session_length=2, max_session_length=max_len)
    except data.EmptyDatasetError:
        return
    second = data.preprocess(to_events(first), min_item_count=min_count,
                             min_session_length=2, max_session_length=max_len)
    assert first == second


# byte-order marks: Excel's "CSV UTF-8" starts the file with one

def test_csv_with_byte_order_mark(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes("session_id,timestamp,item_id\na,1,x\na,2,y\n".encode("utf-8-sig"))
    assert data.ingest(str(path), "csv") == [ev("a", 1, "x"), ev("a", 2, "y")]


def test_jsonl_with_byte_order_mark(tmp_path, caplog):
    path = tmp_path / "raw.jsonl"
    rows = [{"session_id": "a", "timestamp": t, "item_id": i} for t, i in ((1, "x"), (2, "y"))]
    path.write_bytes("".join(json.dumps(r) + "\n" for r in rows).encode("utf-8-sig"))
    assert data.ingest(str(path), "jsonl") == [ev("a", 1, "x"), ev("a", 2, "y")]
    assert "skipped" not in caplog.text


def test_sessions_jsonl_with_byte_order_mark(tmp_path):
    path = tmp_path / "sessions.jsonl"
    record = {"id": "a", "items": ["x", "y"], "timestamps": [1, 2]}
    path.write_bytes((json.dumps(record) + "\n").encode("utf-8-sig"))
    assert data.read_sessions_jsonl(str(path)) == [("a", ["x", "y"], [1, 2])]


# oracle: the array set-up against the tuple loop it replaced

STAMPS = st.one_of(st.integers(-3, 6),
                   st.sampled_from([-(2 ** 70), -(2 ** 63) - 1, 2 ** 63, 10 ** 23]))

raw_logs = st.lists(
    st.tuples(st.integers(0, 6), STAMPS, st.integers(0, 5)),  # session, time, item
    min_size=6, max_size=80)


@settings(max_examples=200, deadline=None)
@given(raw_logs, st.integers(1, 5), st.data())
def test_preprocess_matches_reference(log, min_count, draw):
    max_len = draw.draw(st.integers(2, 6))
    min_len = draw.draw(st.integers(2, max_len))
    events = [ev(f"s{s}", t, f"i{i}") for s, t, i in log]
    limits = dict(min_item_count=min_count, min_session_length=min_len,
                  max_session_length=max_len)
    try:
        expected = reference.preprocess(events, **limits)
    except data.EmptyDatasetError:
        with pytest.raises(data.EmptyDatasetError):
            data.preprocess(events, **limits)
        return
    got = data.preprocess(events, **limits)
    assert got == expected
    assert all(type(i) is int for s in got.sessions for i in s.items)
    assert all(type(c) is int for c in got.vocab.counts)


def _ingest_outcome(ingest, path, caplog):
    """Events or the error message, and the warnings, of one ingest call."""
    caplog.clear()
    try:
        outcome = ingest(str(path))
    except data.DataError as exc:
        outcome = str(exc)
    return outcome, [r.getMessage() for r in caplog.records]


FIELDS = st.sampled_from(["a", "b", "", "x,y", "12.0", " 7 ", "nan", "1e400",
                          "3", "-2", "oops", '"q"'])
CSV_ROWS = st.lists(st.one_of(st.lists(FIELDS, max_size=6), st.just(None)),
                    max_size=30)  # None is a blank line
HEADERS = st.permutations(["session_id", "timestamp", "item_id", "extra", "item_id"])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(HEADERS, st.integers(3, 5), CSV_ROWS)
def test_csv_ingest_matches_reference(tmp_path_factory, caplog, header, width, rows):
    path = tmp_path_factory.mktemp("csv") / "raw.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header[:width])
        for row in rows:
            if row is None:
                handle.write("\r\n")
            else:
                writer.writerow(row)
    assert (_ingest_outcome(data.ingest, path, caplog)
            == _ingest_outcome(reference.ingest, path, caplog))


@pytest.mark.parametrize("good, bad", [(9, 1), (8, 1), (18, 2), (17, 2)])
def test_refusal_at_ten_percent_matches_reference(tmp_path, caplog, good, bad):
    path = tmp_path / "raw.csv"
    path.write_text("session_id,timestamp,item_id\n" + "a,1,x\n" * good + "a,,x\n" * bad)
    outcome = _ingest_outcome(data.ingest, path, caplog)
    assert outcome == _ingest_outcome(reference.ingest, path, caplog)
    assert isinstance(outcome[0], str) == (bad / (good + bad) > 0.10)


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.sampled_from(["", "a", "12.0", " 7 ", "nan", 1e300, 2.5]))
JSONL_LINES = st.lists(st.one_of(
    st.fixed_dictionaries({}, optional={c: JSON_VALUES for c in data.REQUIRED_COLUMNS}),
    st.sampled_from(["", "   ", "[1, 2]", "7", "{broken", '"text"'])), max_size=30)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSONL_LINES)
def test_jsonl_ingest_matches_reference(tmp_path_factory, caplog, lines):
    path = tmp_path_factory.mktemp("jsonl") / "raw.jsonl"
    path.write_text("".join((json.dumps(x) if isinstance(x, dict) else x) + "\n"
                            for x in lines))
    assert (_ingest_outcome(lambda p: data.ingest(p, "jsonl"), path, caplog)
            == _ingest_outcome(lambda p: reference.ingest(p, "jsonl"), path, caplog))
