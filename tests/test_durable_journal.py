"""The write-ahead invocation journal: entries, replay, persistence.

The journal is the durable layer's source of truth, so its contract is
tested directly: effect records replay positionally (label-checked),
``begin_attempt`` rewinds the cursor without forgetting results, the
canonical JSON encoding round-trips byte-stably, and a version-skewed
document degrades to the named :class:`JournalVersionError` — never a
silent misparse.
"""

import json
import random

import pytest

from taureau.durable import (
    JOURNAL_VERSION,
    InvocationJournal,
    JournalDivergenceError,
    JournalVersionError,
)


class TestJournalEntry:
    def test_open_assigns_stable_sequential_ids(self):
        journal = InvocationJournal()
        first = journal.open("alpha")
        second = journal.open("beta")
        assert first.entry_id == "je0"
        assert second.entry_id == "je1"
        assert journal.entries[first.entry_id] is first

    def test_append_then_replay_returns_journaled_result(self):
        journal = InvocationJournal()
        entry = journal.open("fn")
        entry.begin_attempt()
        entry.append("effect:a", 41)
        entry.begin_attempt()
        assert entry.peek() is not None
        record = entry.replay("effect:a")
        assert record.result == 41
        assert record.executions == 1

    def test_replay_label_mismatch_raises_divergence(self):
        journal = InvocationJournal()
        entry = journal.open("fn")
        entry.begin_attempt()
        entry.append("effect:a", 1)
        entry.begin_attempt()
        with pytest.raises(JournalDivergenceError):
            entry.replay("effect:b")

    def test_begin_attempt_rewinds_cursor_and_reopens(self):
        journal = InvocationJournal()
        entry = journal.open("fn")
        entry.begin_attempt()
        entry.append("effect:a", 1)
        entry.finalize("error", error_kind="sandbox_crash")
        assert entry.completed
        entry.begin_attempt()
        assert not entry.completed
        assert entry.last_error_kind is None
        assert entry.cursor == 0
        assert entry.attempts == 2

    def test_duplicate_executions_counts_extra_runs(self):
        journal = InvocationJournal()
        entry = journal.open("fn")
        entry.begin_attempt()
        entry.append("effect:a", 1)
        assert journal.duplicate_executions() == 0
        # Simulate a non-durable re-execution of the same position.
        entry.effects[0].executions += 1
        assert entry.duplicate_executions() == 1
        assert journal.duplicate_executions() == 1

    def test_open_count_tracks_unfinalized_entries(self):
        journal = InvocationJournal()
        first = journal.open("fn")
        journal.open("fn")
        assert journal.open_count() == 2
        first.finalize("ok")
        assert journal.open_count() == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_open_count_equals_a_recount(self, seed):
        # The live count against a walk over every entry, through
        # re-opened and re-finalized entries and redelivered keys.
        rng = random.Random(seed)
        journal = InvocationJournal()
        entries = []
        for __ in range(300):
            op = rng.random()
            if op < 0.2 or not entries:
                entries.append(journal.open(rng.choice(("a", "b"))))
            elif op < 0.35:
                key = f"pulsar:fn:{rng.randint(0, 12)}"
                entry = journal.open_keyed(key, "fn")
                assert journal.open_keyed(key, "fn") is entry
                entries.append(entry)
            elif op < 0.65:
                rng.choice(entries).begin_attempt()
            else:
                rng.choice(entries).finalize(
                    rng.choice(("ok", "error")),
                    rng.choice((None, "sandbox_crash")),
                )
            assert journal.open_count() == sum(
                1 for entry in journal.entries.values() if not entry.completed
            )


class TestJournalPersistence:
    def build(self):
        journal = InvocationJournal()
        entry = journal.open("fn")
        entry.begin_attempt()
        entry.append("effect:a", {"nested": [1, 2]})
        entry.finalize("ok")
        journal.checkpoints["wf"] = {"step": "value"}
        return journal

    def test_to_json_is_canonical_and_versioned(self):
        journal = self.build()
        text = journal.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["journal_version"] == JOURNAL_VERSION
        assert text == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_round_trip_preserves_entries_and_checkpoints(self):
        journal = self.build()
        data = InvocationJournal.from_json(journal.to_json())
        assert data["entries"]["je0"]["function"] == "fn"
        assert data["entries"]["je0"]["effects"][0]["result"] == {
            "nested": [1, 2]
        }
        assert data["checkpoints"] == {"wf": {"step": "value"}}

    def test_save_load_round_trip(self, tmp_path):
        journal = self.build()
        path = tmp_path / "journal.json"
        journal.save(path)
        data = InvocationJournal.load(path)
        assert data["entries"]["je0"]["status"] == "ok"


class TestJournalVersionSkew:
    def test_future_version_raises_named_error(self):
        text = json.dumps({"journal_version": JOURNAL_VERSION + 1})
        with pytest.raises(JournalVersionError):
            InvocationJournal.from_json(text)

    def test_missing_version_raises_named_error(self):
        with pytest.raises(JournalVersionError):
            InvocationJournal.from_json(json.dumps({"entries": {}}))

    def test_non_object_document_raises_named_error(self):
        with pytest.raises(JournalVersionError):
            InvocationJournal.from_json(json.dumps([1, 2, 3]))

    def test_version_error_is_a_value_error(self):
        # Callers catching the broad class still degrade gracefully.
        assert issubclass(JournalVersionError, ValueError)
        with pytest.raises(ValueError):
            InvocationJournal.from_json(json.dumps({"journal_version": 99}))

    def test_error_message_names_both_versions(self):
        try:
            InvocationJournal.from_json(
                json.dumps({"journal_version": JOURNAL_VERSION + 7})
            )
        except JournalVersionError as error:
            message = str(error)
            assert str(JOURNAL_VERSION + 7) in message
            assert str(JOURNAL_VERSION) in message
        else:  # pragma: no cover - the raise is the test
            raise AssertionError("version skew must raise")
