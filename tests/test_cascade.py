from __future__ import annotations

import csv
import json
import random

import numpy as np
import pytest

from conf_ensemble import (
    Dataset,
    EnsembleManifest,
    InvalidInputError,
    Prediction,
    RuntimeConfig,
    batch_evaluate,
    cascade_predict,
)
from conf_ensemble.builder import member_prediction_arrays

from conftest import (
    identity_member,
    logits_for_uncertainty,
    member_with_uncertainty,
    stub_manifest,
)

X2 = [0.0, 0.0]  # constant-output stubs ignore their input


def consensus_pick(members, consensus):
    """Run stubs with every threshold at 0, so consensus decides, through
    both cascade_predict and batch_evaluate; returns the chosen level."""
    manifest = stub_manifest(members)
    rcfg = RuntimeConfig(thresholds=(0.0,) * len(members), consensus=consensus)
    chosen, trace = cascade_predict(manifest, rcfg, X2)
    assert trace.consensus_used
    assert len(trace.steps) == len(members)
    level = next(s.member_index for s in trace.steps if s.prediction == chosen)

    data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64),
                   num_classes=members[0].spec.num_classes, id="flat")
    record = batch_evaluate(manifest, rcfg, data)
    assert record.consensus_count == 3
    assert record.chosen.tolist() == [level] * 3
    assert record.chosen_class.tolist() == [chosen.class_index] * 3
    return level, trace


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

    def test_unknown_consensus(self):
        with pytest.raises(InvalidInputError):
            RuntimeConfig(thresholds=(0.2,), consensus="majority")

    def test_count_checked_against_members(self):
        rcfg = RuntimeConfig(thresholds=(0.2, 0.2))
        with pytest.raises(InvalidInputError):
            rcfg.validate_for(3)

    def test_homogeneous(self):
        rcfg = RuntimeConfig.homogeneous(0.1, 3)
        assert rcfg.thresholds == (0.1, 0.1, 0.1)


class TestConsensusHeuristics:
    def test_last_member(self):
        members = [member_with_uncertainty(0.4, num_classes=3),
                   member_with_uncertainty(0.2, num_classes=3),
                   member_with_uncertainty(0.45, top_class=2, num_classes=3)]
        level, trace = consensus_pick(members, "last_member")
        assert level == 2
        assert trace.chosen.class_index == 2

    def test_last_member_single(self):
        level, _ = consensus_pick([member_with_uncertainty(0.3)], "last_member")
        assert level == 0

    def test_most_confident(self):
        members = [member_with_uncertainty(0.4),
                   member_with_uncertainty(0.1, top_class=1),
                   member_with_uncertainty(0.3)]
        level, trace = consensus_pick(members, "most_confident")
        assert level == 1
        assert trace.chosen.class_index == 1

    def test_most_confident_tie_breaks_low_index(self):
        members = [member_with_uncertainty(0.2), member_with_uncertainty(0.2, top_class=1)]
        level, trace = consensus_pick(members, "most_confident")
        assert trace.steps[0].prediction.uncertainty == trace.steps[1].prediction.uncertainty
        assert level == 0
        assert trace.chosen.class_index == 0

    def test_most_confident_single(self):
        level, _ = consensus_pick([member_with_uncertainty(0.05)], "most_confident")
        assert level == 0

    def test_empty_ensemble_rejected(self):
        # With no empty ensemble, consensus always has a prediction to pick.
        with pytest.raises(InvalidInputError):
            EnsembleManifest(members=(), selection_rule="nested", training_thresholds=(),
                             default_runtime=RuntimeConfig(thresholds=(0.2,)),
                             dataset_id="stub", dataset_digest="stub")


class TestCascadePredict:
    def test_accept_at_level_zero_with_max_threshold(self):
        manifest = stub_manifest([member_with_uncertainty(0.3)])
        rcfg = RuntimeConfig(thresholds=(0.5,))
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level == 0
        assert len(trace.steps) == 1
        assert chosen.uncertainty == pytest.approx(0.3)

    def test_accept_at_level_one(self):
        manifest = stub_manifest(
            [member_with_uncertainty(0.3), member_with_uncertainty(0.05, top_class=1)]
        )
        rcfg = RuntimeConfig(thresholds=(0.1, 0.1))
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level == 1
        assert len(trace.steps) == 2
        assert not trace.steps[0].accepted
        assert trace.steps[1].accepted
        assert chosen.class_index == 1

    def test_zero_thresholds_force_consensus(self):
        members = [member_with_uncertainty(u) for u in (0.3, 0.2, 0.4)]
        manifest = stub_manifest(members)
        rcfg = RuntimeConfig(thresholds=(0.0, 0.0, 0.0), consensus="most_confident")
        chosen, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.accepted_level is None
        assert trace.consensus_used
        assert len(trace.steps) == 3
        assert chosen.uncertainty == pytest.approx(0.2)

    def test_exact_threshold_is_not_accepted(self):
        # U == 0.5 exactly (tied logits) vs threshold 0.5: strict "below".
        manifest = stub_manifest([member_with_uncertainty(0.5)])
        rcfg = RuntimeConfig(thresholds=(0.5,), consensus="last_member")
        _, trace = cascade_predict(manifest, rcfg, X2)
        assert trace.steps[0].prediction.uncertainty == 0.5
        assert trace.accepted_level is None

    def test_dimension_mismatch(self):
        manifest = stub_manifest([member_with_uncertainty(0.3)])
        rcfg = RuntimeConfig(thresholds=(0.5,))
        with pytest.raises(InvalidInputError):
            cascade_predict(manifest, rcfg, [0.0, 0.0, 0.0])


def oracle_walk(realized, thresholds, consensus):
    """Brute-force replay of the decision rule on realized predictions."""
    for level, p in enumerate(realized):
        if p.uncertainty < thresholds[level]:
            return level, p
    if consensus == "last_member":
        return None, realized[-1]
    best = 0
    for i in range(1, len(realized)):
        if realized[i].uncertainty < realized[best].uncertainty:
            best = i
    return None, realized[best]


def realized_prediction(member):
    """The stub's realized prediction: one forward evaluation, outside the
    cascade.  The oracle walk below replays the decision logic on these
    values, so decisions must agree exactly."""
    from conf_ensemble import predict_logits, softmax

    probs = softmax(predict_logits(member, X2))
    cls = int(np.argmax(probs))
    top = float(probs[cls])
    return Prediction(class_index=cls, top_probability=top,
                      uncertainty=min(top, 1 - top))


class TestRandomizedCascadeOracle:
    def test_thousand_fixtures(self):
        rng = random.Random(2024)
        for trial in range(1000):
            size = rng.randint(1, 4)
            num_classes = rng.choice([2, 3, 5])
            members = []
            for _ in range(size):
                if rng.random() < 0.15:
                    u = 0.2  # exact collisions exercise the tie-break
                else:
                    u = rng.uniform(0.005, 0.5)
                members.append(
                    member_with_uncertainty(
                        u,
                        top_class=rng.randrange(num_classes),
                        num_classes=num_classes,
                        input_dim=2,
                    )
                )
            thresholds = tuple(
                rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, rng.uniform(0, 0.5)])
                for _ in range(size)
            )
            consensus = rng.choice(["last_member", "most_confident"])
            manifest = stub_manifest(members)
            rcfg = RuntimeConfig(thresholds=thresholds, consensus=consensus)

            chosen, trace = cascade_predict(manifest, rcfg, X2)
            realized = [realized_prediction(m) for m in members]
            want_level, want_pred = oracle_walk(realized, thresholds, consensus)

            assert trace.accepted_level == want_level, f"trial {trial}"
            assert chosen.class_index == want_pred.class_index, f"trial {trial}"
            assert chosen.uncertainty == want_pred.uncertainty, f"trial {trial}"
            expected_consulted = size if want_level is None else want_level + 1
            assert len(trace.steps) == expected_consulted

    def test_stubs_deliver_intended_uncertainty(self):
        # The fixture builder solves for the bias that yields uncertainty u.
        for u in (0.01, 0.17, 0.2, 0.44, 0.5):
            for n in (2, 3, 5):
                member = member_with_uncertainty(u, num_classes=n)
                assert realized_prediction(member).uncertainty == pytest.approx(
                    u, abs=1e-9
                )

    def test_trace_invariants(self):
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 4)
            members = [member_with_uncertainty(rng.uniform(0.01, 0.5)) for _ in range(size)]
            thresholds = tuple(rng.uniform(0, 0.5) for _ in range(size))
            manifest = stub_manifest(members)
            rcfg = RuntimeConfig(thresholds=thresholds)
            _, trace = cascade_predict(manifest, rcfg, X2)
            indices = [s.member_index for s in trace.steps]
            assert indices == list(range(len(indices)))  # increasing, no gaps
            accepted = [s for s in trace.steps if s.accepted]
            assert len(accepted) <= 1
            if accepted:
                assert trace.steps[-1].accepted  # acceptance terminates the trace


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
        members = [trained_m0, member_with_uncertainty(0.15, num_classes=3, input_dim=4)]
        manifest = stub_manifest(members)
        rcfg = RuntimeConfig(thresholds=(0.05, 0.2), consensus="most_confident")
        record = batch_evaluate(manifest, rcfg, blobs3)

        level_counts = [0, 0]
        consensus_count = 0
        hits = 0
        for i in range(len(blobs3)):
            chosen, trace = cascade_predict(manifest, rcfg, blobs3.features[i])
            want_level = -1 if trace.accepted_level is None else trace.accepted_level
            assert record.level[i] == want_level
            assert record.chosen_class[i] == chosen.class_index
            assert record.chosen_uncertainty[i] == pytest.approx(
                chosen.uncertainty, abs=1e-12
            )
            assert record.consulted[i] == len(trace.steps)
            if trace.accepted_level is None:
                consensus_count += 1
            else:
                level_counts[trace.accepted_level] += 1
            hits += chosen.class_index == blobs3.labels[i]
        assert record.level_counts == tuple(level_counts)
        assert record.consensus_count == consensus_count
        assert record.accuracy == hits / len(blobs3)

    def test_stub_manifests_replay_exactly(self):
        # Constant-output stubs make both evaluation paths bit-identical,
        # so utilization counts must match a per-sample replay exactly.
        rng = random.Random(99)
        features = np.asarray([[0.0, 0.0]] * 40)
        labels = np.asarray([i % 2 for i in range(40)])
        from conf_ensemble import Dataset

        data = Dataset(features, labels, num_classes=2, id="flat")
        for _ in range(25):
            size = rng.randint(1, 4)
            members = [
                member_with_uncertainty(rng.uniform(0.01, 0.5),
                                        top_class=rng.randrange(2))
                for _ in range(size)
            ]
            manifest = stub_manifest(members)
            rcfg = RuntimeConfig(
                thresholds=tuple(rng.uniform(0, 0.5) for _ in range(size)),
                consensus=rng.choice(["last_member", "most_confident"]),
            )
            record = batch_evaluate(manifest, rcfg, data)
            counts = [0] * size
            consensus_count = 0
            for i in range(len(data)):
                chosen, trace = cascade_predict(manifest, rcfg, data.features[i])
                assert Prediction(
                    class_index=record.chosen_class[i],
                    top_probability=record.chosen_top[i],
                    uncertainty=record.chosen_uncertainty[i],
                ) == chosen
                want_level = -1 if trace.accepted_level is None else trace.accepted_level
                assert record.level[i] == want_level
                if trace.accepted_level is None:
                    consensus_count += 1
                else:
                    counts[trace.accepted_level] += 1
            assert record.level_counts == tuple(counts)
            assert record.consensus_count == consensus_count

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
            assert record.chosen_uncertainty[i] == min(us)

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
        with pytest.raises(InvalidInputError, match="features must have shape"):
            batch_evaluate(manifest, rcfg, wide)
        # No row reaches a forward pass, so the width is never checked.
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), num_classes=2, id="e")
        record = batch_evaluate(manifest, rcfg, empty)
        assert record.num_samples == 0
        assert record.level_counts == (0,)
        assert record.consensus_count == 0
        assert record.accuracy == 0.0

    def test_exports_match_per_sample_replay(self, tmp_path):
        # Member 0 reads its logits from the features, so acceptance varies
        # by row; all stubs score bit-identically in batch and one row.
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
            manifest = stub_manifest(members)
            rcfg = RuntimeConfig(
                thresholds=tuple(rng.uniform(0, 0.5) for _ in range(size)),
                consensus=rng.choice(["last_member", "most_confident"]),
            )
            record = batch_evaluate(manifest, rcfg, data)
            samples = json.loads(json.dumps(record.to_json_dict()))["samples"]
            record.write_csv(tmp_path / "evaluation.csv")
            with open(tmp_path / "evaluation.csv", newline="", encoding="utf-8") as fh:
                csv_rows = list(csv.reader(fh))[1:]
            assert len(samples) == len(csv_rows) == len(rows)

            for i, label in enumerate(labels):
                chosen, trace = cascade_predict(manifest, rcfg, data.features[i])
                consulted = [s.prediction.uncertainty for s in trace.steps]
                assert samples[i] == {
                    "sample_index": i,
                    "chosen_class": chosen.class_index,
                    "true_class": label,
                    "answering_level": trace.accepted_level,
                    "top_probability": chosen.top_probability,
                    "uncertainty": chosen.uncertainty,
                    "consulted_uncertainties": consulted,
                    "correct": chosen.class_index == label,
                }
                level = "consensus" if trace.accepted_level is None else str(trace.accepted_level)
                assert csv_rows[i] == (
                    [str(i), str(chosen.class_index), str(label), level]
                    + [repr(u) for u in consulted]
                    + [""] * (size - len(consulted))
                )
