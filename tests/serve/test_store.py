"""Durable daemon state: journal codec and atomic result store.

Property tests for the crash-safety contracts the search daemon
trusts: a journal truncated at *any* byte offset (a crash mid-append)
replays every complete record and nothing corrupt; a result-store
write that dies mid-flight can never leave a torn file at the digest's
final path — the regression test for the non-atomic cache write
``run_search.py --cache-dir`` used to do.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel._fingerprint import numerics_fingerprint
from repro.perf import PerfRegistry
from repro.serve.store import JOURNAL_OPS, Journal, ResultStore, result_record


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

journal_records = st.fixed_dictionaries({
    "op": st.sampled_from(JOURNAL_OPS),
    "job": st.text(min_size=1, max_size=12),
    "extra": json_scalars,
})


class TestJournalAppendReplay:
    def test_roundtrip_in_order(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("submitted", "a", digest="d1", priority=2)
        journal.append("running", "a")
        journal.append("done", "a", digest="d1")
        ops = [(r["op"], r["job"]) for r in journal.replay()]
        assert ops == [("submitted", "a"), ("running", "a"), ("done", "a")]
        journal.close()

    def test_unknown_op_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError, match="unknown journal op"):
            journal.append("exploded", "a")

    def test_missing_file_replays_empty(self, tmp_path):
        assert Journal(tmp_path / "missing.jsonl").replay() == []

    def test_mid_file_corruption_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"v":1,"op":"submitted","job":"a"}\n'
                        'garbage not json\n'
                        '{"v":1,"op":"done","job":"a"}\n')
        with pytest.raises(ValueError, match="line 2"):
            Journal(path).replay()

    def test_torn_tail_repaired_before_next_append(self, tmp_path):
        """An unterminated tail from a crash mid-append must not splice
        into the next append's record."""
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("submitted", "a")
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"v":1,"op":"run')  # the crash point
        journal2 = Journal(journal.path)
        journal2.append("running", "a")
        ops = [r["op"] for r in journal2.replay()]
        assert ops == ["submitted", "running"]
        journal2.close()

    @given(records=st.lists(journal_records, min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncation_recovers_every_complete_record(
        self, tmp_path_factory, records, data
    ):
        """The satellite property: simulate a crash by truncating the
        journal at an arbitrary byte offset — replay returns a prefix
        of the appended records containing at least every record whose
        full line (newline included) survived."""
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = Journal(tmp_path / "j.jsonl", perf=PerfRegistry())
        ends = []
        for record in records:
            journal.append(record["op"], record["job"],
                           extra=record["extra"])
            ends.append(journal.path.stat().st_size)
        journal.close()
        offset = data.draw(st.integers(0, ends[-1]), label="truncate_at")
        with open(journal.path, "r+b") as fh:
            fh.truncate(offset)
        replayed = Journal(journal.path, perf=PerfRegistry()).replay()
        complete = sum(1 for end in ends if end <= offset)
        assert len(replayed) >= complete
        # whatever was recovered is a verbatim prefix of what was written
        for got, want in zip(replayed, records):
            assert (got["op"], got["job"]) == (want["op"], want["job"])
        if offset == ends[-1]:
            assert len(replayed) == len(records)

    def test_torn_tail_counts_in_perf(self, tmp_path):
        perf = PerfRegistry()
        journal = Journal(tmp_path / "j.jsonl", perf=perf)
        journal.append("submitted", "a")
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"torn')
        assert len(Journal(journal.path, perf=perf).replay()) == 1
        assert perf.counter("journal.torn_tails").value == 1


class TestJournalCompaction:
    def test_compact_keeps_submission_and_terminal(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("submitted", "a", digest="da")
        journal.append("running", "a")
        journal.append("done", "a", digest="da")
        journal.append("submitted", "b", digest="db")
        journal.append("running", "b")  # interrupted: no terminal record
        dropped = journal.compact()
        assert dropped == 2  # a's running + b's running
        ops = [(r["op"], r["job"]) for r in journal.replay()]
        assert ops == [("submitted", "a"), ("done", "a"), ("submitted", "b")]

    def test_rewrite_is_atomic_under_failure(self, tmp_path, monkeypatch):
        """A crash during compaction must leave the old journal intact
        (write-then-rename: the blob-store idiom)."""
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("submitted", "a")
        journal.append("running", "a")
        before = journal.path.read_bytes()

        def boom(src, dst):
            raise OSError("disk pulled")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk pulled"):
            journal.rewrite([{"v": 1, "op": "submitted", "job": "a"}])
        monkeypatch.undo()
        assert journal.path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up


def _record(fitness: float) -> dict:
    """A result record as this process would store it."""
    return {"fitness": fitness, "fingerprint": numerics_fingerprint()}


class TestResultStoreAtomicity:
    def test_roundtrip_and_cache_stats(self, tmp_path):
        perf = PerfRegistry()
        store = ResultStore(tmp_path / "results", perf=perf)
        digest = "a" * 64
        assert store.load(digest) is None
        store.store(digest, _record(0.5))
        assert store.load(digest) == _record(0.5)
        stats = perf.cache("serve.results")
        assert (stats.hits, stats.misses) == (1, 1)

    @pytest.mark.parametrize("stamp", [None, "0" * 16])
    def test_record_from_other_numerics_is_a_miss(self, tmp_path, stamp):
        """A record stored without this process's numerics fingerprint
        (before fingerprints existed, or on a host whose kernels round
        differently) is a miss, so the search re-runs."""
        perf = PerfRegistry()
        store = ResultStore(tmp_path, perf=perf)
        record = {"fitness": 0.5}
        if stamp is not None:
            record["fingerprint"] = stamp
        store.store("d" * 64, record)
        assert store.load("d" * 64) is None
        assert perf.cache("serve.results").misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = "b" * 64
        store.path(digest).write_text("{torn json")
        assert store.load(digest) is None
        store.path(digest).write_text('"not an object"')
        assert store.load(digest) is None

    def test_crash_mid_write_leaves_no_torn_entry(self, tmp_path,
                                                  monkeypatch):
        """The latent-bug regression: the old ``run_search.py`` cache
        wrote the final path directly, so a crash mid-write left a
        torn JSON file the daemon would later trust.  With
        write-then-rename, a failure at any point leaves either no
        entry or the previous complete one — never a torn file."""
        store = ResultStore(tmp_path)
        digest = "c" * 64

        real_dump = json.dump

        def dies_mid_write(obj, fh, **kw):
            fh.write('{"fitness": 0.')  # partial bytes reach the disk...
            fh.flush()
            raise OSError("killed mid-write")

        monkeypatch.setattr(json, "dump", dies_mid_write)
        with pytest.raises(OSError, match="killed mid-write"):
            store.store(digest, _record(0.5))
        monkeypatch.setattr(json, "dump", real_dump)
        assert not store.path(digest).exists()  # nothing torn published
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up
        assert store.load(digest) is None

        # now with a previous complete entry: the failed overwrite
        # leaves the old record untouched
        store.store(digest, _record(1.0))
        monkeypatch.setattr(json, "dump", dies_mid_write)
        with pytest.raises(OSError):
            store.store(digest, _record(2.0))
        monkeypatch.setattr(json, "dump", real_dump)
        assert store.load(digest) == _record(1.0)

    def test_run_search_cache_is_the_atomic_store(self):
        """``run_search.py --cache-dir`` must route through ResultStore
        (the fix): the script's cache opener returns one."""
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        sys.path.insert(0, str(repo / "scripts"))
        try:
            import run_search
        finally:
            sys.path.pop(0)
        cache = run_search._cache_open(Path("/tmp/run-search-cache-test"))
        assert isinstance(cache, ResultStore)
        assert run_search._cache_open(None) is None


class TestResultRecord:
    def test_token_scrubbed_and_digest_stamped(self):
        from repro.parallel import ExecutorConfig
        from repro.spec import CalibSpec, SearchSpec

        spec = SearchSpec(
            model="tiny:mlp", calib=CalibSpec(batch=4),
            executor=ExecutorConfig(
                "remote", addresses=("127.0.0.1:1",), token="s3cret"
            ),
        )

        class FakeResult:
            fitness = 1.0
            mean_weight_bits = 4.0
            mean_act_bits = 8.0
            evaluations = 3

            class solution:
                layer_params = ()

            @staticmethod
            def model_size_mb():
                return 0.25

        record = result_record(spec, FakeResult, wall=1.5)
        assert record["digest"] == spec.digest()
        assert record["spec"]["executor"]["token"] is None
        assert "s3cret" not in json.dumps(record)
        assert record["wall_s"] == 1.5
