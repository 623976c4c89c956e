from __future__ import annotations

import builtins
import csv
import gc
import json
import random
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf_ensemble import (
    BuildConfig,
    Dataset,
    EnsembleManifest,
    InvalidInputError,
    RuntimeConfig,
    ScoreHistogram,
    ScoreMemo,
    batch_evaluate,
    build_ensemble,
    cascade,
    cascade_predict,
    generate_blobs,
    init_model,
    save_csv,
)
from conf_ensemble import datasets, metrics
from conf_ensemble.cascade import CONSENSUS_CHOICES, EvaluationRecord, member_prediction_arrays
from conf_ensemble.datasets import CHUNK_ROWS

from conftest import (
    BLOBS,
    MLP_ARCH,
    MLP_SPEC,
    TRAIN,
    identity_member,
    logits_for_uncertainty,
    member_with_uncertainty,
    stub_manifest,
)
from oracles import (
    cascade_replay,
    dataset_csv_text,
    evaluation_csv_text,
    evaluation_json_text,
    histogram_csv_text,
    record_row,
)

X2 = [0.0, 0.0]  # constant-output stubs ignore their input


def consensus_pick(members, consensus):
    """Run stubs with every threshold at 0, so consensus decides, through
    batch_evaluate; each row must be cascade_replay's, which is returned."""
    manifest = stub_manifest(members)
    rcfg = RuntimeConfig(thresholds=(0.0,) * len(members), consensus=consensus)
    want = cascade_replay(members, rcfg.thresholds, consensus, X2)
    assert want.answering_level is None
    assert want.consulted == len(members)

    data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64),
                   num_classes=members[0].spec.num_classes, id="flat")
    record = batch_evaluate(manifest, rcfg, data)
    assert record.consensus_count == 3
    assert [record_row(record, i) for i in range(3)] == [want] * 3
    return want


class TestRuntimeConfig:
    def test_threshold_range(self):
        with pytest.raises(InvalidInputError):
            RuntimeConfig(thresholds=(0.6,))
        with pytest.raises(InvalidInputError):
            RuntimeConfig(thresholds=(-0.1,))

    @pytest.mark.parametrize("value", ["0.2", None, float("nan"), float("inf"), True])
    def test_thresholds_must_be_finite_numbers(self, value):
        with pytest.raises(InvalidInputError, match="runtime threshold must be a finite number"):
            RuntimeConfig(thresholds=(0.2, value))

    @pytest.mark.parametrize("value", [0.2, None, "0.2", {"a": 1}, np.array(0.2),
                                       np.array([[0.2]])], ids=repr)
    def test_thresholds_must_be_a_list(self, value):
        """Not read one character or key at a time, and no bare TypeError."""
        message = re.escape(f"runtime thresholds must be a list of numbers, got {value!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            RuntimeConfig(thresholds=value)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            RuntimeConfig.for_members(value, 3)

    def test_thresholds_may_be_a_1d_array(self):
        rcfg = RuntimeConfig.for_members(np.array([0.3]), 2)
        assert rcfg.thresholds == (0.3, 0.3)
        assert all(type(t) is float for t in rcfg.thresholds)

    def test_unknown_consensus(self):
        with pytest.raises(InvalidInputError):
            RuntimeConfig(thresholds=(0.2,), consensus="majority")

    def test_count_checked_against_members(self):
        rcfg = RuntimeConfig(thresholds=(0.2, 0.2))
        with pytest.raises(InvalidInputError):
            rcfg.validate_for(3)

    def test_homogeneous(self):
        rcfg = RuntimeConfig.for_members((0.1,), 3)
        assert rcfg.thresholds == (0.1, 0.1, 0.1)

    def test_for_members_takes_one_value_per_level(self):
        rcfg = RuntimeConfig.for_members([0.4, 0.1, 0.0], 3, consensus="last_member")
        assert rcfg == RuntimeConfig(thresholds=(0.4, 0.1, 0.0), consensus="last_member")

    @pytest.mark.parametrize("thresholds", [(0.4, 0.1), (0.4, 0.1, 0.2, 0.3)])
    def test_for_members_checks_the_count(self, thresholds):
        with pytest.raises(InvalidInputError, match=f"{len(thresholds)} runtime thresholds "
                                                    "for 3 members"):
            RuntimeConfig.for_members(thresholds, 3)


class TestConsensusHeuristics:
    def test_last_member(self):
        members = [member_with_uncertainty(0.4, num_classes=3),
                   member_with_uncertainty(0.2, num_classes=3),
                   member_with_uncertainty(0.45, top_class=2, num_classes=3)]
        pick = consensus_pick(members, "last_member")
        assert pick.chosen_level == 2
        assert pick.chosen_class == 2

    def test_last_member_single(self):
        pick = consensus_pick([member_with_uncertainty(0.3)], "last_member")
        assert pick.chosen_level == 0

    def test_most_confident(self):
        members = [member_with_uncertainty(0.4),
                   member_with_uncertainty(0.1, top_class=1),
                   member_with_uncertainty(0.3)]
        pick = consensus_pick(members, "most_confident")
        assert pick.chosen_level == 1
        assert pick.chosen_class == 1

    def test_most_confident_tie_breaks_low_index(self):
        members = [member_with_uncertainty(0.2), member_with_uncertainty(0.2, top_class=1)]
        pick = consensus_pick(members, "most_confident")
        assert pick.uncertainties[0] == pick.uncertainties[1]
        assert pick.chosen_level == 0
        assert pick.chosen_class == 0

    def test_most_confident_single(self):
        pick = consensus_pick([member_with_uncertainty(0.05)], "most_confident")
        assert pick.chosen_level == 0

    def test_empty_ensemble_rejected(self):
        # With no empty ensemble, consensus always has a prediction to pick.
        with pytest.raises(InvalidInputError, match=r"^num_members must be >= 1, got 0$"):
            EnsembleManifest(members=(), selection_rule="nested", training_thresholds=(),
                             default_runtime=RuntimeConfig(thresholds=(0.2,)),
                             dataset_id="stub", dataset_digest="stub")


class TestCascadePredict:
    """cascade_predict, the one-query API: a (Prediction, CascadeTrace)
    for one feature vector."""

    def test_accept_at_level_zero_with_max_threshold(self):
        manifest = stub_manifest([member_with_uncertainty(0.3)])
        rcfg = RuntimeConfig(thresholds=(0.5,))
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level == 0
        assert len(trace.predictions) == 1
        assert chosen.uncertainty == pytest.approx(0.3)

    def test_accept_at_level_one(self):
        manifest = stub_manifest(
            [member_with_uncertainty(0.3), member_with_uncertainty(0.05, top_class=1)]
        )
        rcfg = RuntimeConfig(thresholds=(0.1, 0.1))
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level == 1
        assert len(trace.predictions) == 2
        assert chosen == trace.predictions[1]
        assert chosen.class_index == 1

    def test_zero_thresholds_force_consensus(self):
        members = [member_with_uncertainty(u) for u in (0.3, 0.2, 0.4)]
        manifest = stub_manifest(members)
        rcfg = RuntimeConfig(thresholds=(0.0, 0.0, 0.0), consensus="most_confident")
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level is None
        assert len(trace.predictions) == 3
        assert chosen.uncertainty == pytest.approx(0.2)

    def test_exact_threshold_is_not_accepted(self):
        # U == 0.5 exactly (tied logits) vs threshold 0.5: strict "below".
        manifest = stub_manifest([member_with_uncertainty(0.5)])
        rcfg = RuntimeConfig(thresholds=(0.5,), consensus="last_member")
        _, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.predictions[0].uncertainty == 0.5
        assert trace.accepted_level is None

    def test_dimension_mismatch(self):
        manifest = stub_manifest([member_with_uncertainty(0.3)])
        rcfg = RuntimeConfig(thresholds=(0.5,))
        with pytest.raises(InvalidInputError):
            cascade_predict(manifest, rcfg, [0.0, 0.0, 0.0])

    def test_trace_invariants(self):
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 4)
            members = [member_with_uncertainty(rng.uniform(0.01, 0.5)) for _ in range(size)]
            thresholds = tuple(rng.uniform(0, 0.5) for _ in range(size))
            manifest = stub_manifest(members)
            rcfg = RuntimeConfig(thresholds=thresholds)
            _, trace = cascade_predict(manifest, rcfg, X2)
            if trace.accepted_level is None:  # consensus consults every member
                assert len(trace.predictions) == size
            else:  # acceptance terminates the trace
                assert trace.accepted_level == len(trace.predictions) - 1

    def test_matches_the_replay(self):
        rng = random.Random(2024)
        for trial in range(200):
            size = rng.randint(1, 4)
            num_classes = rng.choice([2, 3, 5])
            members = [
                member_with_uncertainty(0.2 if rng.random() < 0.15 else rng.uniform(0.005, 0.5),
                                        top_class=rng.randrange(num_classes),
                                        num_classes=num_classes)
                for _ in range(size)
            ]
            rcfg = RuntimeConfig(
                thresholds=tuple(rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, rng.uniform(0, 0.5)])
                                 for _ in range(size)),
                consensus=rng.choice(CONSENSUS_CHOICES),
            )
            chosen, trace = cascade_predict(stub_manifest(members), rcfg, X2)
            want = cascade_replay(members, rcfg.thresholds, rcfg.consensus, X2)
            assert trace.accepted_level == want.answering_level, f"trial {trial}"
            assert trace.predictions[want.chosen_level] == chosen, f"trial {trial}"
            assert (chosen.class_index, chosen.top_probability, chosen.uncertainty) == \
                want[2:5], f"trial {trial}"
            assert tuple(p.uncertainty for p in trace.predictions) == want.uncertainties


class TestBatchEvaluate:
    def test_single_member_utilization(self, blobs3, trained_m0):
        manifest = stub_manifest([trained_m0])
        record = batch_evaluate(manifest, RuntimeConfig(thresholds=(0.5,)), blobs3)
        cls, _, _ = member_prediction_arrays(trained_m0, blobs3.features)
        standalone = float((cls == blobs3.labels).mean())
        assert record.level_counts[0] + record.consensus_count == len(blobs3)
        assert record.accuracy == standalone

    def test_matches_per_sample_replay(self, blobs3, trained_m0):
        # Trained members: decisions must agree; scores may differ by the
        # ulp-level associativity gap between batched and row-wise matmul.
        # The second runtime rejects the stub at exactly its own U, so
        # consensus decides between the two members row by row.
        stub = member_with_uncertainty(0.15, num_classes=3, input_dim=4)
        members = [trained_m0, stub]
        stub_u = cascade_replay([stub], (0.0,), "last_member", blobs3.features[0]).uncertainty
        chosen = set()
        for thresholds in ((0.05, 0.2), (0.05, stub_u)):
            rcfg = RuntimeConfig(thresholds=thresholds, consensus="most_confident")
            record = batch_evaluate(stub_manifest(members), rcfg, blobs3)

            level_counts = [0, 0]
            hits = 0
            for i in range(len(blobs3)):
                want = cascade_replay(members, thresholds, rcfg.consensus, blobs3.features[i])
                got = record_row(record, i)
                assert got[:5] == pytest.approx(want[:5], abs=1e-12), f"row {i}"
                assert got.uncertainties == pytest.approx(want.uncertainties, abs=1e-12)
                assert record.consulted[i] == want.consulted
                if want.answering_level is not None:
                    level_counts[want.answering_level] += 1
                hits += want.chosen_class == blobs3.labels[i]
                chosen.add(want[:2])
            assert record.level_counts == tuple(level_counts)
            assert record.consensus_count == len(blobs3) - sum(level_counts)
            assert record.accuracy == hits / len(blobs3)
        # Each level answers, and consensus picks each member, somewhere.
        assert chosen == {(0, 0), (1, 1), (None, 0), (None, 1)}

    def test_stub_manifests_replay_exactly(self):
        # Constant-output stubs make both evaluation paths bit-identical,
        # so every row must equal the replay exactly.
        rng = random.Random(99)
        features = np.asarray([X2] * 40)
        labels = np.asarray([i % 2 for i in range(40)])
        data = Dataset(features, labels, num_classes=2, id="flat")
        for _ in range(25):
            size = rng.randint(1, 4)
            members = [
                member_with_uncertainty(rng.uniform(0.01, 0.5),
                                        top_class=rng.randrange(2))
                for _ in range(size)
            ]
            rcfg = RuntimeConfig(
                thresholds=tuple(rng.uniform(0, 0.5) for _ in range(size)),
                consensus=rng.choice(CONSENSUS_CHOICES),
            )
            record = batch_evaluate(stub_manifest(members), rcfg, data)
            want = cascade_replay(members, rcfg.thresholds, rcfg.consensus, X2)
            assert [record_row(record, i) for i in range(len(data))] == [want] * len(data)
            counts = [0] * size
            if want.answering_level is not None:
                counts[want.answering_level] = len(data)
            assert record.level_counts == tuple(counts)
            assert record.consensus_count == (len(data) if want.answering_level is None else 0)

    def test_high_threshold_resolves_all_at_level_zero(self, blobs3, trained_m0):
        members = (trained_m0, member_with_uncertainty(0.4, num_classes=3, input_dim=4))
        manifest = stub_manifest(members)
        record = batch_evaluate(manifest, RuntimeConfig(thresholds=(0.5, 0.5)), blobs3)
        assert record.level_counts[0] == len(blobs3)

    def test_zero_thresholds_hit_consensus_and_pick_min_uncertainty(self, blobs3, trained_m0):
        members = (trained_m0, member_with_uncertainty(0.25, num_classes=3, input_dim=4))
        manifest = stub_manifest(members)
        rcfg = RuntimeConfig(thresholds=(0.0, 0.0), consensus="most_confident")
        record = batch_evaluate(manifest, rcfg, blobs3)
        assert record.consensus_count == len(blobs3)
        for i in range(len(blobs3)):
            assert record.consulted[i] == 2
            us = [float(u) for u in record.unc[i, : record.consulted[i]]]
            assert record.unc[i, record.chosen[i]] == min(us)

    def test_raising_one_threshold_never_loses_early_resolution(self, blobs3, trained_m0):
        members = (trained_m0, member_with_uncertainty(0.25, num_classes=3, input_dim=4))
        manifest = stub_manifest(members)
        resolved = []
        for t0 in (0.01, 0.1, 0.2, 0.4):
            record = batch_evaluate(
                manifest, RuntimeConfig(thresholds=(t0, 0.1)), blobs3
            )
            resolved.append(record.level_counts[0])
        assert resolved == sorted(resolved)

        # same property one level deeper: count resolved at level <= 1
        resolved_le1 = []
        for t1 in (0.05, 0.2, 0.3, 0.5):
            record = batch_evaluate(
                manifest, RuntimeConfig(thresholds=(0.05, t1)), blobs3
            )
            resolved_le1.append(record.level_counts[0] + record.level_counts[1])
        assert resolved_le1 == sorted(resolved_le1)

    def test_dataset_mismatch_rejected(self, blobs3, trained_m0):
        manifest = stub_manifest([member_with_uncertainty(0.3)])  # wants 2-dim input
        with pytest.raises(InvalidInputError):
            batch_evaluate(manifest, RuntimeConfig(thresholds=(0.2,)), blobs3)

    def test_width_mismatch(self):
        manifest = stub_manifest([member_with_uncertainty(0.3)])  # 2 classes, 2-dim input
        rcfg = RuntimeConfig(thresholds=(0.2,))
        wide = Dataset(np.zeros((5, 3)), np.zeros(5, dtype=np.int64), num_classes=2, id="wide")
        message = "^dataset feature_dim 3 != model input_dim 2$"
        with pytest.raises(InvalidInputError, match=message):
            batch_evaluate(manifest, rcfg, wide)
        # The width is checked before any forward pass, so no row is needed.
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), num_classes=2, id="e")
        with pytest.raises(InvalidInputError, match=message):
            batch_evaluate(manifest, rcfg, empty)
        # An empty dataset that fits gives an empty record.
        fits = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_classes=2, id="f")
        record = batch_evaluate(manifest, rcfg, fits)
        assert record.num_samples == 0
        assert record.level_counts == (0,)
        assert record.consensus_count == 0
        assert record.accuracy == 0.0

    def test_exports_match_per_sample_replay(self, tmp_path):
        # Member 0 reads its logits from the features, so acceptance varies
        # by row; every stub scores bit-identically in the batch kernel and
        # in the replay.
        rng = random.Random(31)
        for _ in range(20):
            size = rng.randint(1, 4)
            members = [identity_member(2)] + [
                member_with_uncertainty(rng.uniform(0.01, 0.5), top_class=rng.randrange(2))
                for _ in range(size - 1)
            ]
            rows = [
                logits_for_uncertainty(rng.uniform(0.01, 0.5), top_class=rng.randrange(2))
                for _ in range(30)
            ]
            labels = [rng.randrange(2) for _ in rows]
            data = Dataset(np.asarray(rows), np.asarray(labels), num_classes=2, id="rows")
            rcfg = RuntimeConfig(
                thresholds=tuple(rng.uniform(0, 0.5) for _ in range(size)),
                consensus=rng.choice(CONSENSUS_CHOICES),
            )
            record = batch_evaluate(stub_manifest(members), rcfg, data)
            record.write_json(tmp_path / "evaluation.json")
            samples = json.loads((tmp_path / "evaluation.json").read_text(encoding="utf-8"))
            samples = samples["samples"]
            record.write_csv(tmp_path / "evaluation.csv")
            with open(tmp_path / "evaluation.csv", newline="", encoding="utf-8") as fh:
                csv_rows = list(csv.reader(fh))[1:]
            assert len(samples) == len(csv_rows) == len(rows)

            for i, label in enumerate(labels):
                want = cascade_replay(members, rcfg.thresholds, rcfg.consensus,
                                      data.features[i])
                assert samples[i] == {
                    "sample_index": i,
                    "chosen_class": want.chosen_class,
                    "true_class": label,
                    "answering_level": want.answering_level,
                    "top_probability": want.top_probability,
                    "uncertainty": want.uncertainty,
                    "consulted_uncertainties": list(want.uncertainties),
                    "correct": want.chosen_class == label,
                }
                level = "consensus" if want.answering_level is None else str(want.answering_level)
                assert csv_rows[i] == (
                    [str(i), str(want.chosen_class), str(label), level]
                    + [repr(u) for u in want.uncertainties]
                    + [""] * (size - want.consulted)
                )


class TestScoreMemo:
    @pytest.fixture(scope="class")
    def members(self, trained_m0):
        """A trained member and two untrained ones, all 4 -> 3 MLPs."""
        return (trained_m0, *(init_model(replace(MLP_SPEC, seed=s)) for s in (2, 3)))

    def test_shared_memo_matches_memo_free_evaluation(self, blobs3, members):
        a, b, c = members
        chains = [(a, b), (a, b, c), (a, c), (b, a, c), (a, b, c)]  # shared prefixes
        grids = [(0.4,), (0.01,), (0.2, 0.01, 0.3), (0.01, 0.4, 0.1)]  # shared, per level
        scored = ScoreMemo()
        for i, chain in enumerate(chains):
            manifest = stub_manifest(chain)
            for thresholds in grids:
                for consensus in CONSENSUS_CHOICES:
                    rcfg = RuntimeConfig.for_members(thresholds[:len(chain)], len(chain),
                                                     consensus=consensus)
                    shared = batch_evaluate(manifest, rcfg, blobs3, scored)
                    fresh = batch_evaluate(manifest, rcfg, blobs3)
                    for name in ("classes", "top", "unc", "level", "chosen"):
                        assert np.array_equal(getattr(shared, name), getattr(fresh, name)), \
                            (i, thresholds, consensus, name)

    @pytest.fixture
    def passes(self, monkeypatch):
        """The row count of each forward pass a memo makes."""
        counts = []
        real = cascade.member_prediction_arrays

        def spy(member, features):
            counts.append(len(features))
            return real(member, features)

        monkeypatch.setattr(cascade, "member_prediction_arrays", spy)
        return counts

    def test_each_matrix_gets_its_own_entries(self, blobs3, members, passes):
        scored = ScoreMemo()
        manifest = stub_manifest(members)
        rcfg = RuntimeConfig.for_members((0.2,), len(members))
        batch_evaluate(manifest, rcfg, blobs3, scored)
        # Equal content is not the same matrix: a copy is scored afresh.
        copy = Dataset(blobs3.features.copy(), blobs3.labels, num_classes=3, id="copy")
        other = generate_blobs(**dict(BLOBS, per_class=200, seed=43))
        for data in (copy, other, blobs3):
            passes.clear()
            shared = batch_evaluate(manifest, rcfg, data, scored)
            made = list(passes)
            fresh = batch_evaluate(manifest, rcfg, data)
            # Only blobs3 was scored before; any other matrix makes every pass.
            assert made == ([] if data is blobs3 else passes[len(made):])
            for name in ("classes", "top", "unc", "level", "chosen"):
                assert np.array_equal(getattr(shared, name), getattr(fresh, name)), \
                    (data.id, name)

    def test_a_member_over_the_same_rows_is_scored_once(self, blobs3, members, passes):
        """Two runtimes whose level-0 thresholds differ but accept the same
        rows (none) pass member 1 the same rows: one pass serves both."""
        a, b, _ = members
        below = float(member_prediction_arrays(a, blobs3.features)[2].min()) / 2
        assert below > 0.0
        scored = ScoreMemo()
        manifest = stub_manifest((a, b))
        for first in (0.0, below):
            batch_evaluate(manifest, RuntimeConfig((first, 0.2)), blobs3, scored)
        assert passes == [len(blobs3.labels)] * 2

    def test_one_memo_serves_a_build_and_a_held_out_evaluation(self):
        train = generate_blobs(**dict(BLOBS, per_class=200))
        test = generate_blobs(**dict(BLOBS, per_class=200, seed=43))
        cfg = BuildConfig(num_members=3, training_thresholds=(0.1, 0.1), **MLP_ARCH,
                          training=replace(TRAIN, epochs=5), selection_rule="rebased")
        scored = ScoreMemo()
        manifest, _ = build_ensemble(train, cfg, scored=scored)
        for data in (test, train):
            for threshold in (0.4, 0.1, 0.01):
                for consensus in CONSENSUS_CHOICES:
                    rcfg = RuntimeConfig.for_members((threshold,), 3, consensus=consensus)
                    shared = batch_evaluate(manifest, rcfg, data, scored)
                    fresh = batch_evaluate(manifest, rcfg, data)
                    for name in ("classes", "top", "unc", "level", "chosen"):
                        assert np.array_equal(getattr(shared, name), getattr(fresh, name)), \
                            (data.id, threshold, consensus, name)

    def test_entries_are_read_only_and_hold_their_keys(self, blobs3):
        scored = ScoreMemo()
        member = init_model(replace(MLP_SPEC, seed=4))
        features = blobs3.features.copy()
        scores = scored.scores(member, features)
        assert not any(array.flags.writeable for array in scores)
        for got, want in zip(scores, member_prediction_arrays(member, features)):
            assert np.array_equal(got, want)
        assert scored.scores(member, features) is scores
        rows = np.arange(0, len(features), 7)
        some = scored.scores(member, features, rows)
        assert scored.scores(member, features, rows.copy()) is some  # keyed by the rows' bytes
        for other in (rows, rows + 1):  # as many rows, not the same ones
            for got, want in zip(scored.scores(member, features, other),
                                 member_prediction_arrays(member, features[other])):
                assert np.array_equal(got, want)
        alive = weakref.ref(member), weakref.ref(features)
        del member, features
        gc.collect()
        assert all(ref() is not None for ref in alive)  # so no other can take their ids


class TestRandomizedCascadeOracle:
    def test_stubs_deliver_intended_uncertainty(self):
        # The fixture builder solves for the bias that yields uncertainty u.
        for u in (0.01, 0.17, 0.2, 0.44, 0.5):
            for n in (2, 3, 5):
                member = member_with_uncertainty(u, num_classes=n)
                assert cascade_replay([member], (0.0,), "last_member", X2).uncertainty == \
                    pytest.approx(u, abs=1e-9)


def synthetic_record(seed, n, num_levels, consensus, answered="mixed", specials=()):
    """An EvaluationRecord with the cascade's invariants, from random
    columns: per-level uncertainties over many orders of magnitude (so
    float reprs include '0.0', '1e-05' and seventeen-digit forms), every
    level up to the answering one consulted, and consensus rows choosing by
    the record's rule.  ``answered`` is "mixed", "all_consensus" or
    "no_consensus"; about a third of the uncertainties are drawn from
    ``specials`` when it is given."""
    rng = np.random.default_rng(seed)
    levels = {"mixed": range(-1, num_levels), "all_consensus": [-1],
              "no_consensus": range(num_levels)}[answered]
    level = rng.choice(list(levels), size=n).astype(np.int64)
    consulted = np.where(level < 0, num_levels, level + 1)
    skipped = np.arange(num_levels)[None, :] >= consulted[:, None]
    top = 1.0 - 10.0 ** -rng.uniform(0.31, 17.0, size=(n, num_levels))
    top = np.where(rng.random((n, num_levels)) < 0.1, rng.uniform(0.2, 0.5, (n, num_levels)), top)
    unc = np.minimum(top, 1.0 - top)
    if specials:
        hit = rng.random((n, num_levels)) < 1 / 3
        unc[hit] = rng.choice(specials, size=int(hit.sum()))
    classes = rng.integers(0, 5, size=(n, num_levels))
    classes[skipped], top[skipped], unc[skipped] = -1, 0.0, 0.0
    if consensus == "last_member":
        fallback = np.full(n, num_levels - 1)
    else:
        fallback = unc.argmin(axis=1)
    return EvaluationRecord(
        runtime=RuntimeConfig(thresholds=tuple(rng.uniform(0, 0.5, size=num_levels).tolist()),
                              consensus=consensus),
        labels=rng.integers(0, 5, size=n),
        classes=classes,
        top=top,
        unc=unc,
        level=level,
        chosen=np.where(level < 0, fallback, level),
    )


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("export-property")


class TestExportBytes:
    """write_json and write_csv format each uncertainty once per record and
    stream one CHUNK_ROWS chunk of rows at a time, each row a template of
    its answering level; the oracles write one dict and one csv.writer row
    per sample."""

    def assert_matches_oracle(self, record, tmp_path):
        record.write_json(tmp_path / "evaluation.json")
        record.write_csv(tmp_path / "evaluation.csv")
        assert (tmp_path / "evaluation.json").read_bytes() == \
            evaluation_json_text(record).encode("utf-8")
        assert (tmp_path / "evaluation.csv").read_bytes() == \
            evaluation_csv_text(record).encode("utf-8")

    @pytest.mark.parametrize("consensus", CONSENSUS_CHOICES)
    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("num_levels", [1, 2, 3, 4])
    def test_writers_match_the_oracle(self, tmp_path, num_levels, n, consensus):
        record = synthetic_record(1000 * num_levels + n, n, num_levels, consensus)
        self.assert_matches_oracle(record, tmp_path)

    @pytest.mark.parametrize("consensus", CONSENSUS_CHOICES)
    @pytest.mark.parametrize("answered", ["all_consensus", "no_consensus"])
    @pytest.mark.parametrize("num_levels", [1, 2, 3, 4])
    def test_one_kind_of_answer(self, tmp_path, num_levels, answered, consensus):
        record = synthetic_record(num_levels, CHUNK_ROWS + 1, num_levels, consensus, answered)
        assert record.consensus_count == (record.num_samples if answered == "all_consensus" else 0)
        self.assert_matches_oracle(record, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3 * CHUNK_ROWS + 1),
           num_levels=st.integers(1, 4), consensus=st.sampled_from(CONSENSUS_CHOICES),
           specials=st.lists(st.sampled_from([0.0, 0.5, 5e-324, 1e-05]), max_size=4))
    def test_any_record_matches_the_oracle(self, export_dir, seed, n, num_levels, consensus,
                                           specials):
        record = synthetic_record(seed, n, num_levels, consensus, specials=tuple(specials))
        self.assert_matches_oracle(record, export_dir)

    @pytest.mark.parametrize("order", [("json", "csv"), ("csv", "json")])
    def test_writers_in_either_order_twice(self, tmp_path, order):
        record = synthetic_record(7, 2 * CHUNK_ROWS + 5, 3, "most_confident")
        arrays = {name: getattr(record, name).copy() for name in
                  ("labels", "classes", "top", "unc", "level", "chosen")}
        writers = {"json": record.write_json, "csv": record.write_csv}
        written = []
        for _ in range(2):
            for kind in order:
                writers[kind](tmp_path / f"evaluation.{kind}")
                written.append((kind, (tmp_path / f"evaluation.{kind}").read_bytes()))
        assert written[:2] == written[2:]
        assert dict(written) == {"json": evaluation_json_text(record).encode("utf-8"),
                                 "csv": evaluation_csv_text(record).encode("utf-8")}
        for name, before in arrays.items():
            after = getattr(record, name)
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes(), name

    def test_summary_has_no_samples(self):
        record = synthetic_record(3, 10, 2, "most_confident")
        doc = json.loads(evaluation_json_text(record))
        del doc["samples"]
        assert json.loads(json.dumps(record.to_json_dict())) == doc


class WriteRecorder:
    """A file handle that keeps the text of each write it passes on."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)


class TestRowStreaming:
    """Every per-row text file streams through datasets.write_rows: no
    write carries more than CHUNK_ROWS rows, so no file is built as one
    string, and the bytes are the oracle's."""

    N = 2 * CHUNK_ROWS + 5

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The handles the writers of datasets, cascade and metrics open."""
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(WriteRecorder(builtins.open(*args, **kwargs)))
            return handles[-1]

        for module in (datasets, cascade, metrics):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        return handles

    def assert_streamed(self, handles, path, oracle, row_mark, rows):
        assert len(handles) == 1
        per_write = [text.count(row_mark) for text in handles[0].writes]
        assert max(per_write) <= CHUNK_ROWS
        assert sum(per_write) == rows
        assert path.read_bytes() == oracle.encode("utf-8")

    def test_save_csv(self, tmp_path, recorded):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((self.N, 4)), rng.integers(0, 3, self.N),
                       num_classes=3, id="stream")
        save_csv(data, tmp_path / "data.csv")
        self.assert_streamed(recorded, tmp_path / "data.csv", dataset_csv_text(data),
                             "\r\n", self.N + 1)

    def test_evaluation_json(self, tmp_path, recorded):
        record = synthetic_record(6, self.N, 3, "most_confident")
        record.write_json(tmp_path / "evaluation.json")
        self.assert_streamed(recorded, tmp_path / "evaluation.json",
                             evaluation_json_text(record), '"sample_index"', self.N)

    def test_evaluation_csv(self, tmp_path, recorded):
        record = synthetic_record(6, self.N, 3, "most_confident")
        record.write_csv(tmp_path / "evaluation.csv")
        self.assert_streamed(recorded, tmp_path / "evaluation.csv",
                             evaluation_csv_text(record), "\r\n", self.N + 1)

    def test_histogram_csv(self, tmp_path, recorded):
        rng = np.random.default_rng(7)
        hist = ScoreHistogram(
            score_kind="uncertainty",
            bin_edges=tuple(np.linspace(0.0, 0.5, self.N + 1).tolist()),
            correct_counts=tuple(rng.integers(0, 1000, self.N).tolist()),
            incorrect_counts=tuple(rng.integers(0, 1000, self.N).tolist()),
        )
        hist.write_csv(tmp_path / "hist.csv")
        self.assert_streamed(recorded, tmp_path / "hist.csv", histogram_csv_text(hist),
                             "\r\n", self.N + 1)
