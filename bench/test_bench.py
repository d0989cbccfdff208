"""Tests of the benchmark's own code; they do not import the simulator.

    python3 -m pytest bench/test_bench.py -q
"""

import pytest

import gen
import stats
import tracing


def test_poll_steady_inputs_are_deterministic_per_seed():
    a = gen.poll_steady_inputs(7, files_per_machine=40, rounds=3)
    b = gen.poll_steady_inputs(7, files_per_machine=40, rounds=3)
    c = gen.poll_steady_inputs(8, files_per_machine=40, rounds=3)
    assert a == b
    assert a.preload != c.preload


def test_log_churn_inputs_are_deterministic_per_seed():
    a = gen.log_churn_inputs(3, batch=10, rounds=20)
    assert a == gen.log_churn_inputs(3, batch=10, rounds=20)
    assert a.rogue != gen.log_churn_inputs(4, batch=10, rounds=20).rogue


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_seed_changes_identities_not_amount_of_work(seed):
    steady = gen.poll_steady_inputs(seed, files_per_machine=40, rounds=3)
    for files in steady.preload.values():
        assert len(files) == 40
        assert sum(f.signed for f in files) == 4
    churn = gen.log_churn_inputs(seed, batch=5, rounds=20)
    for m in churn.machine_ids:
        signed = [sum(f.signed for f in batch[m]) for batch in churn.batches]
        assert all(len(batch[m]) == 5 for batch in churn.batches)
        assert signed == [0, 1] * 10
    rogue_round, rogue_machine, rogue_file = churn.rogue
    assert 5 <= rogue_round <= 15 and rogue_machine in churn.machine_ids
    assert rogue_file not in churn.whitelist()


def test_whitelist_holds_every_unsigned_file_once():
    churn = gen.log_churn_inputs(5, batch=10, rounds=4)
    listed = churn.whitelist()
    assert len(listed) == 4 * 4 * 9
    assert len({f.path for f in listed}) == len(listed)
    assert not any(f.signed for f in listed)


def test_policy_text_appends_runtime_and_location_sections():
    inputs = gen.poll_steady_inputs(1, files_per_machine=10, rounds=1)
    text = gen.policy_text("chain: x\n", inputs, b"\x01" * 32, b"\x02" * 32)
    assert text.startswith("chain: x\nruntime:\n  certificate: |\n")
    assert text.count('": "/opt/') == 4 * 9
    assert "location:\n- host: beacon-dc1\n" in text


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 90) == 90
    assert sum(v > stats.percentile(values, 90) for v in values) == 10
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_decile_means():
    assert stats.decile_means(list(range(20))) == (0.5, 18.5)
    assert stats.decile_means([7.0]) == (7.0, 7.0)


def test_self_time_subtracts_direct_children_only():
    # name 0 spans [0, 10] and has two children of name 1: [1, 3] and [4, 8];
    # the second child has a grandchild of name 2 at [5, 6]; a second root
    # of name 1 spans [20, 21].
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (1, 4.0, 8.0, 0),
        (2, 5.0, 6.0, 2),
        (1, 20.0, 21.0, -1),
    ]
    calls, selfs = tracing.self_times(spans, 3)
    assert calls == [1, 3, 1]
    assert selfs == pytest.approx([10 - 2 - 4, 2 + (4 - 1) + 1, 1])
    assert sum(selfs) == pytest.approx(10 + 1)  # roots' total time


def test_tracer_records_nested_spans_and_counters():
    tracer = tracing.Tracer(targets=(("outer", "x:outer"), ("modelcheck.successors", "x:s")))
    inner = tracer._wrap(1, lambda: [1, 2, 3])
    outer = tracer._wrap(0, lambda: inner() + inner())
    assert outer() == [1, 2, 3, 1, 2, 3]
    summary = tracer.summary()
    assert summary["outer"][0] == 1 and summary["modelcheck.successors"][0] == 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counters["modelcheck.successors.generated"] == 6
    assert len(tracer.durations("modelcheck.successors")) == 2
