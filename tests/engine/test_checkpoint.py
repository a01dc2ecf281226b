"""Checkpoint journal: lossless records, durability, refusal paths."""

import json
from pathlib import Path

import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    record_from_json,
    record_to_json,
)


@pytest.fixture(scope="module")
def records(request):
    """A handful of real scored records (all five methods)."""
    trace = request.getfixturevalue("minute_trace")
    grid = ExperimentGrid(granularities=(32,), replications=1, seed=2)
    return grid.run(trace).records


class TestRecordSerialization:
    def test_round_trip_is_lossless(self, records):
        for record in records:
            clone = record_from_json(record_to_json(record))
            assert record_to_json(clone) == record_to_json(record)

    def test_floats_survive_exactly(self, records):
        """JSON must round-trip the scores bit-for-bit, or a resumed
        run would drift from an uninterrupted one."""
        for record in records:
            clone = record_from_json(
                json.loads(json.dumps(record_to_json(record)))
            )
            assert clone.score.scores.phi == record.score.scores.phi
            assert clone.score.scores.chi2 == record.score.scores.chi2
            assert clone.score.fraction == record.score.fraction

    def test_parameters_preserved(self, records):
        timer = [r for r in records if r.method == "timer-systematic"]
        assert timer, "fixture should cover timer methods"
        clone = record_from_json(record_to_json(timer[0]))
        assert clone.score.parameters == timer[0].score.parameters


class TestJournal:
    def test_append_then_load(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:2]))
        journal.append("shard-b", list(records[2:4]))
        journal.close()

        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a", "shard-b"}
        assert [record_to_json(r) for r in reloaded["shard-a"]] == [
            record_to_json(r) for r in records[:2]
        ]

    def test_missing_journal_loads_empty(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        assert journal.load() == {}

    def test_fingerprint_mismatch_refused(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp-one")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:1]))
        journal.close()
        with pytest.raises(CheckpointError, match="different grid"):
            CheckpointJournal(str(tmp_path), fingerprint="fp-two").load()

    def test_torn_final_line_dropped(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:1]))
        journal.close()
        with open(journal.path, "a") as stream:
            stream.write('{"shard": "shard-b", "records": [')  # died mid-write
        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a"}

    def test_corrupt_interior_line_raises(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.close()
        with open(journal.path, "a") as stream:
            stream.write("not json at all\n")
            stream.write('{"shard": "shard-a", "records": []}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointJournal(str(tmp_path), fingerprint="fp").load()

    def test_missing_header_refused(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        with open(journal.path, "w") as stream:
            stream.write('{"shard": "shard-a", "records": []}\n')
        with pytest.raises(CheckpointError, match="header"):
            journal.load()

    def test_fresh_start_truncates(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:1]))
        journal.close()
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.close()
        assert journal.load() == {}


class TestTornTailRecovery:
    """A run can die mid-``write``: the final journal line may then be
    any prefix of a record — unparseable, or valid JSON that decodes to
    the wrong shape.  Both must be dropped on load, and appending after
    either must not concatenate onto the fragment."""

    def _journal_with(self, tmp_path, records, tail):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:1]))
        journal.close()
        with open(journal.path, "a") as stream:
            stream.write(tail)
        return journal

    def test_parseable_but_garbled_final_line_dropped(
        self, tmp_path, records
    ):
        # Truncation landed exactly so the fragment is valid JSON with
        # a records list whose entries are not decodable records.
        self._journal_with(
            tmp_path,
            records,
            '{"shard": "shard-b", "records": [{"target": "size"}]}',
        )
        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a"}

    def test_non_dict_final_line_dropped(self, tmp_path, records):
        self._journal_with(tmp_path, records, "42")
        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a"}

    def test_garbled_interior_line_raises(self, tmp_path, records):
        journal = self._journal_with(
            tmp_path, records, '{"shard": "shard-b", "records": [{}]}\n'
        )
        with open(journal.path, "a") as stream:
            stream.write('{"shard": "shard-c", "records": []}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointJournal(str(tmp_path), fingerprint="fp").load()

    def test_append_after_torn_line_stays_clean(self, tmp_path, records):
        """Regression: resuming used to append straight after the torn
        fragment, gluing a fresh record onto it and corrupting an
        interior line no later resume could recover from."""
        self._journal_with(
            tmp_path, records, '{"shard": "shard-b", "records": ['
        )
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=False)
        journal.append("shard-b", list(records[1:2]))
        journal.close()

        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a", "shard-b"}
        assert [record_to_json(r) for r in reloaded["shard-b"]] == [
            record_to_json(records[1])
        ]

    def test_torn_header_gets_fresh_header_on_resume(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        with open(journal.path, "w") as stream:
            stream.write('{"journal": {"vers')  # died writing the header
        journal.start(fresh=False)
        journal.append("shard-a", list(records[:1]))
        journal.close()
        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a"}


class TestQuarantineLines:
    def test_quarantined_shards_are_not_completed(self, tmp_path, records):
        journal = CheckpointJournal(str(tmp_path), fingerprint="fp")
        journal.start(fresh=True)
        journal.append("shard-a", list(records[:1]))
        journal.append_quarantine("shard-b", attempts=3, error="boom")
        journal.close()

        reloaded = CheckpointJournal(str(tmp_path), fingerprint="fp").load()
        assert set(reloaded) == {"shard-a"}  # shard-b re-attempts on resume

        lines = [json.loads(l) for l in Path(journal.path).read_text().splitlines()]
        quarantine = [e for e in lines if "quarantine" in e]
        assert quarantine == [
            {
                "quarantine": {
                    "shard": "shard-b",
                    "attempts": 3,
                    "error": "boom",
                }
            }
        ]
