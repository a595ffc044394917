"""The op list is a pure function of the seed, and matches the golden file."""

import json

import pytest

from ledger import corpus, golden, ops

DOCUMENTS, _ = corpus.build("tiny")


def fake_reference(text):
    return ("reference", str(len(text)))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = ops.op_list(workload, ops.Scenarios(DOCUMENTS), 7, fake_reference)
    second = ops.op_list(workload, ops.Scenarios(DOCUMENTS), 7, fake_reference)
    assert first == second
    assert first != ops.op_list(workload, ops.Scenarios(DOCUMENTS), 8, fake_reference)


def test_closure_workloads_share_their_start_nodes():
    scenarios = ops.Scenarios(DOCUMENTS)
    delta = ops.closure_ops(scenarios, 7, naive=False)
    naive = ops.closure_ops(scenarios, 7, naive=True)
    assert [op.text for op in delta] == [op.text.replace(" using naive", "") for op in naive]
    assert all(" using naive" in op.text for op in naive)
    assert [op.expected for op in delta] == [op.expected for op in naive]


def test_adhoc_texts_never_repeat():
    texts = [op.text for op in ops.adhoc_ops(ops.Scenarios(DOCUMENTS), 7, fake_reference)]
    assert len(set(texts)) == len(texts)
    per_engine = sum(1 for op in ops.adhoc_ops(ops.Scenarios(DOCUMENTS), 7, fake_reference)
                     if op.engine == "algebra")
    assert per_engine > 256


def test_service_mix_leaves_out_the_wrong_cell_and_writes_at_a_fixed_period():
    mix = ops.service_ops(ops.Scenarios(DOCUMENTS), 7)
    assert not any((op.cls, op.engine) == ("curriculum", "algebra") for op in mix)
    writes = [index for index, op in enumerate(mix) if op.cls == "write"]
    assert writes and all(index % ops.WRITE_EVERY == ops.WRITE_EVERY - 1 for index in writes)
    assert {op.engine for op in mix if op.cls != "write"} == set(ops.ENGINES)


def test_start_nodes_come_from_a_band_of_equal_work():
    import random
    picks = ops.equal_work(range(100), lambda value: value, 0.5, 10, random.Random(1))
    assert len(set(picks)) == 10 and all(40 <= pick <= 60 for pick in picks)
    assert sorted(ops.equal_work(range(5), lambda value: value, 1.0, 10,
                                 random.Random(1))) == [0, 1, 2, 3, 4]


def test_default_seed_matches_the_golden_digests():
    with open(golden.PATH, encoding="utf-8") as handle:
        assert golden.digests() == json.load(handle)
