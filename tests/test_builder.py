from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from conf_ensemble import (
    BuildConfig,
    ClassifierRecipe,
    DegenerateSubsetError,
    EmptyTrainingSetError,
    InvalidInputError,
    RuntimeConfig,
    ScoreMemo,
    TrainConfig,
    build_ensemble,
    expected_calibration_error,
    fit,
    generate_blobs,
    init_model,
)
from conf_ensemble import cascade
from conf_ensemble.builder import _filter_pool
from conf_ensemble.cascade import member_prediction_arrays
from conf_ensemble.datasets import Dataset, materialize

from conftest import MLP_ARCH, MLP_SPEC, TRAIN, identity_member, logits_for_uncertainty
from oracles import manifests_equal, predict_logits, softmax, uncertainty

# Frozen from the first verified run of this exact configuration; guards
# against silent changes to training, selection, or the generator.
REBASED_SIZES = (3000, 1408, 1657)
NESTED_SIZES = (3000, 1408, 1389)


def brute_force_select(pool, member, threshold, parent):
    """Independent per-sample filter: score each sample on its own."""
    kept = []
    for i in pool.tolist():
        u = uncertainty(softmax(predict_logits(member, parent.features[i])))
        if u > threshold:
            kept.append(i)
    return kept


def crafted_pool(u_values):
    """Dataset whose rows drive identity_member to the given uncertainties."""
    member = identity_member(2)
    rows = [logits_for_uncertainty(u, num_classes=2) for u in u_values]
    labels = [0] * len(rows)
    data = Dataset(np.asarray(rows), np.asarray(labels), num_classes=2, id="crafted")
    return data, member


def unc_of(member, data):
    """The predecessor's per-row uncertainty, as build_ensemble computes it."""
    return member_prediction_arrays(member, data.features)[2]


class TestSelection:
    def test_hand_built_pool(self):
        u_values = (0.4, 0.3, 0.05, 0.2, 0.01)
        data, member = crafted_pool(u_values)
        pool = data.all_indices()
        out = _filter_pool(pool, unc_of(member, data), 0.1)
        assert out.tolist() == [0, 1, 3]

    def test_a_row_at_the_threshold_stays_out(self):
        # Selection keeps U > T only: with T a row's own computed
        # uncertainty, that row stays out and every row above T is kept.
        data, member = crafted_pool((0.4, 0.3, 0.05, 0.2, 0.01))
        unc = unc_of(member, data)
        expected = {0: [], 1: [0], 2: [0, 1, 3], 3: [0, 1], 4: [0, 1, 2, 3]}
        for row, kept in expected.items():
            assert _filter_pool(data.all_indices(), unc, float(unc[row])).tolist() == kept

    def test_threshold_half_selects_nothing(self, blobs3, trained_m0):
        out = _filter_pool(blobs3.all_indices(), unc_of(trained_m0, blobs3), 0.5)
        assert out.tolist() == []

    def test_threshold_zero_selects_everything(self, blobs3, trained_m0):
        # MLP softmax outputs are never exactly one-hot, so U > 0 holds.
        pool = blobs3.all_indices()
        out = _filter_pool(pool, unc_of(trained_m0, blobs3), 0.0)
        assert out.tolist() == pool.tolist()

    def test_matches_brute_force_oracle(self, blobs3, trained_m0):
        pool = blobs3.all_indices()
        unc = unc_of(trained_m0, blobs3)
        for threshold in (0.01, 0.1, 0.3):
            fast = _filter_pool(pool, unc, threshold)
            assert fast.tolist() == brute_force_select(pool, trained_m0, threshold, blobs3)

    def test_nested_result_is_subset_of_pool(self, blobs3, trained_m0):
        pool = np.arange(0, len(blobs3), 3)
        out = _filter_pool(pool, unc_of(trained_m0, blobs3), 0.05)
        assert set(out.tolist()) <= set(pool.tolist())

    def test_level_one_equivalence(self, blobs3):
        # nested filters the previous pool and rebased the full pool; at
        # level 1 these are the same pool, so builds must agree there.
        pools = {}
        for rule in ("nested", "rebased"):
            cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                              **MLP_ARCH, training=TRAIN,
                              selection_rule=rule)
            _, report = build_ensemble(blobs3, cfg)
            pools[rule] = report.members[1].subset_indices.tolist()
        assert pools["nested"] == pools["rebased"]

    def test_rebased_threshold_half_selects_nothing(self, blobs3, trained_m0):
        out = _filter_pool(blobs3.all_indices(), unc_of(trained_m0, blobs3), 0.5)
        assert out.tolist() == []

    def test_threshold_monotonicity(self, blobs3, trained_m0):
        pool = blobs3.all_indices()
        unc = unc_of(trained_m0, blobs3)
        thresholds = np.linspace(0.0, 0.45, 10)
        selections = [
            set(_filter_pool(pool, unc, float(t)).tolist())
            for t in thresholds
        ]
        for lower, higher in zip(selections, selections[1:]):
            assert higher <= lower

    @pytest.mark.parametrize("rule", ["nested", "rebased"])
    def test_every_level_replays_scalar_oracle(self, blobs3, rule):
        # Level k's pool must be exactly the samples of its source pool
        # (previous pool for nested, full pool for rebased) that member
        # k-1, scored one sample at a time, is uncertain about.
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, training=TRAIN,
                          selection_rule=rule)
        manifest, report = build_ensemble(blobs3, cfg)
        full = blobs3.all_indices()
        for level in (1, 2):
            prev = report.members[level - 1].subset_indices
            source = prev if rule == "nested" else full
            expected = brute_force_select(source, manifest.members[level - 1],
                                          cfg.training_thresholds[level - 1], blobs3)
            assert report.members[level].subset_indices.tolist() == expected


class TestBuildEnsemble:
    def test_single_member_equals_plain_fit(self, blobs3):
        cfg = BuildConfig(num_members=1, training_thresholds=(),
                          **MLP_ARCH, training=TRAIN)
        manifest, report = build_ensemble(blobs3, cfg)
        assert manifest.num_members == 1
        reference = fit(init_model(MLP_SPEC), materialize(blobs3.all_indices(), blobs3), TRAIN)
        assert np.array_equal(manifest.members[0].parameters, reference.parameters)
        assert report.subset_sizes() == (len(blobs3),)

    def test_degenerate_threshold_aborts(self, blobs3):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.5,),
                          **MLP_ARCH, training=TRAIN)
        with pytest.raises(DegenerateSubsetError) as err:
            build_ensemble(blobs3, cfg)
        assert err.value.level == 1
        assert err.value.size == 0

    def test_empty_dataset_fails_in_fit(self, blobs3):
        empty = Dataset(blobs3.features[:0], blobs3.labels[:0], num_classes=3, id="empty")
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, training=TRAIN)
        with pytest.raises(EmptyTrainingSetError, match="cannot fit on an empty dataset"):
            build_ensemble(empty, cfg)

    def test_rebased_three_member_regression(self, blobs3):
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, training=TRAIN,
                          selection_rule="rebased")
        manifest, report = build_ensemble(blobs3, cfg)
        assert manifest.num_members == 3
        assert report.subset_sizes() == REBASED_SIZES

    def test_nested_pools_are_nested(self, blobs3):
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, training=TRAIN,
                          selection_rule="nested")
        _, report = build_ensemble(blobs3, cfg)
        assert report.subset_sizes() == NESTED_SIZES
        pools = [set(m.subset_indices) for m in report.members]
        assert pools[2] <= pools[1] <= pools[0]

    def test_rebased_escapes_previous_pool(self, blobs3):
        # Level-2 pool filters the full dataset, so it can include samples
        # the level-1 pool dropped.
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, training=TRAIN,
                          selection_rule="rebased")
        _, report = build_ensemble(blobs3, cfg)
        full = set(range(len(blobs3)))
        pool1 = set(report.members[1].subset_indices)
        pool2 = set(report.members[2].subset_indices)
        assert pool2 <= full
        assert not pool2 <= pool1

    def test_build_is_deterministic(self, blobs3):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, training=TRAIN)
        first, _ = build_ensemble(blobs3, cfg)
        second, _ = build_ensemble(blobs3, cfg)
        assert manifests_equal(first, second)

    def test_members_use_distinct_seeds(self, blobs3):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.01,),
                          **MLP_ARCH, training=TRAIN)
        manifest, _ = build_ensemble(blobs3, cfg)
        assert manifest.members[0].spec.seed != manifest.members[1].spec.seed

    def test_manifest_carries_default_runtime(self, blobs3):
        runtime = RuntimeConfig(thresholds=(0.4, 0.1), consensus="last_member")
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, training=TRAIN)
        manifest, _ = build_ensemble(blobs3, cfg, default_runtime=runtime)
        assert manifest.default_runtime == runtime

    def test_report_records_losses_and_digests(self, blobs3):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, training=TRAIN)
        _, report = build_ensemble(blobs3, cfg)
        for record in report.members:
            assert np.isfinite(record.final_loss)
            assert len(record.index_digest) == 64
            for hist in (record.uncertainty_histogram, record.probability_histogram):
                assert sum(hist.correct_counts + hist.incorrect_counts) == len(blobs3)

    def test_report_scores_every_member_on_the_full_dataset(self, blobs3):
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, training=TRAIN, selection_rule="rebased")
        manifest, report = build_ensemble(blobs3, cfg)
        for member, record in zip(manifest.members, report.members):
            predicted = [int(np.argmax(predict_logits(member, x))) for x in blobs3.features]
            assert record.accuracy == float(np.mean(np.asarray(predicted) == blobs3.labels))
            cls, top, _ = member_prediction_arrays(member, blobs3.features)
            assert record.ece == expected_calibration_error(top, cls == blobs3.labels).ece


class TestMemberCache:
    """The members of build_ensemble's ScoreMemo are keyed by training
    fingerprint: a member is reused exactly when its data, train config
    and spec (and so its init) are all unchanged."""

    DATA = dict(num_classes=3, per_class=100, dim=2, spread=1.0, overlap=0.5, seed=4)
    BASE = BuildConfig(num_members=2, training_thresholds=(0.1,),
                       classifier=ClassifierRecipe("mlp", hidden_units=4, seed=1),
                       training=TrainConfig(epochs=10, batch_size=32,
                                            learning_rate=0.05, seed=2))

    def test_equal_fingerprints_hit(self, fitted):
        scored = ScoreMemo()
        first, _ = build_ensemble(generate_blobs(**self.DATA), self.BASE, scored=scored)
        assert len(fitted) == 2
        again, _ = build_ensemble(generate_blobs(**self.DATA), self.BASE, scored=scored)
        assert len(fitted) == 2
        assert [m.parameters.tobytes() for m in again.members] == \
            [m.parameters.tobytes() for m in first.members]
        assert {m.training_fingerprint for m in first.members} == set(scored.members)
        # A longer chain with the same prefix trains only its new level.
        longer = replace(self.BASE, num_members=3, training_thresholds=(0.1, 0.1))
        build_ensemble(generate_blobs(**self.DATA), longer, scored=scored)
        assert len(fitted) == 3

    def test_one_memo_serves_fits_and_scores(self, fitted, monkeypatch):
        """A build that shares its ScoreMemo with an identical earlier one
        neither fits nor scores a member again."""
        passes = []
        real = cascade.member_prediction_arrays

        def spy(member, features):
            passes.append(member)
            return real(member, features)

        monkeypatch.setattr(cascade, "member_prediction_arrays", spy)
        data, scored = generate_blobs(**self.DATA), ScoreMemo()
        first, first_report = build_ensemble(data, self.BASE, scored=scored)
        assert (len(fitted), len(passes)) == (2, 2)
        fitted.clear()
        passes.clear()
        again, again_report = build_ensemble(data, self.BASE, scored=scored)
        assert (len(fitted), len(passes)) == (0, 0)
        assert all(a is b for a, b in zip(again.members, first.members))
        assert ([(m.index_digest, m.accuracy, m.ece) for m in again_report.members]
                == [(m.index_digest, m.accuracy, m.ece) for m in first_report.members])

    @pytest.mark.parametrize("change, refit", [
        (dict(classifier=replace(BASE.classifier, seed=2)), 2),
        (dict(training=replace(BASE.training, seed=3)), 2),
        (dict(training_thresholds=(0.2,)), 1),
    ], ids=["classifier_seed", "training_seed", "training_threshold"])
    def test_a_changed_input_misses(self, fitted, change, refit):
        scored = ScoreMemo()
        data = generate_blobs(**self.DATA)
        _, base = build_ensemble(data, self.BASE, scored=scored)
        fitted.clear()
        _, report = build_ensemble(data, replace(self.BASE, **change), scored=scored)
        assert len(fitted) == refit
        assert len(scored.members) == 2 + refit
        if refit == 1:  # member 0 is reused; the changed pool is not
            assert report.members[1].subset_size != base.members[1].subset_size
            assert fitted[0][0].spec.seed == self.BASE.classifier.seed + 1

    def test_a_changed_dataset_misses(self, fitted):
        scored = ScoreMemo()
        build_ensemble(generate_blobs(**self.DATA), self.BASE, scored=scored)
        other = generate_blobs(**{**self.DATA, "seed": 5})
        build_ensemble(other, self.BASE, scored=scored)
        assert len(fitted) == 4
        assert len(scored.members) == 4


# (fields replacing MLP_ARCH's recipe's, exact message); the index of each
# pair is its test id.
_BAD_RECIPES = [
    (dict(kind="forest"), "unknown classifier kind 'forest'"),
    (dict(hidden_units=None), "mlp requires hidden_units >= 1"),
    (dict(hidden_units=0), "hidden_units must be >= 1, got 0"),
    (dict(hidden_units=16.5), "hidden_units must be an integer, got 16.5"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(kind="mlp", hidden_units=-5), "hidden_units must be >= 1, got -5"),
    (dict(kind="linear", hidden_units=0), "hidden_units must be >= 1, got 0"),
    (dict(kind="linear", hidden_units=-5), "hidden_units must be >= 1, got -5"),
]


class TestBuildConfigValidation:
    def test_threshold_count_must_match(self):
        with pytest.raises(InvalidInputError):
            BuildConfig(num_members=3, training_thresholds=(0.1,),
                        **MLP_ARCH, training=TRAIN)

    def test_threshold_range(self):
        with pytest.raises(InvalidInputError):
            BuildConfig(num_members=2, training_thresholds=(0.7,),
                        **MLP_ARCH, training=TRAIN)

    def test_unknown_rule(self):
        with pytest.raises(InvalidInputError):
            BuildConfig(num_members=2, training_thresholds=(0.1,),
                        **MLP_ARCH, training=TRAIN,
                        selection_rule="bagging")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(num_members=2.0),
            dict(num_members="2"),
            dict(num_members=True),
            dict(training_thresholds=("0.1",)),
            dict(training_thresholds=(float("nan"),)),
            dict(training_thresholds=(True,)),
        ],
    )
    def test_rejects_non_numbers(self, fields):
        kwargs = dict(num_members=2, training_thresholds=(0.1,),
                      **MLP_ARCH, training=TRAIN)
        kwargs.update(fields)
        with pytest.raises(InvalidInputError):
            BuildConfig(**kwargs)

    @pytest.mark.parametrize("value", [0.1, None, "0.1", {"a": 1}], ids=repr)
    def test_thresholds_must_be_a_list(self, value):
        message = re.escape(f"training thresholds must be a list of numbers, got {value!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            BuildConfig(num_members=2, training_thresholds=value, **MLP_ARCH, training=TRAIN)

    @pytest.mark.parametrize("fields, message", _BAD_RECIPES,
                             ids=[f"fields{i}" for i in range(len(_BAD_RECIPES))])
    def test_rejects_bad_classifier(self, fields, message):
        """A BuildConfig's classifier is a ClassifierRecipe, which holds the
        architecture rule; hidden_units has its floor whatever the kind."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ClassifierRecipe(**{**vars(MLP_ARCH["classifier"]), **fields})

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("classifier", {"kind": "linear"}, "ClassifierRecipe"),
            ("classifier", "mlp", "ClassifierRecipe"),
            ("training", {"epochs": 1}, "TrainConfig"),
            ("training", None, "TrainConfig"),
            ("classifier", MLP_SPEC, "ClassifierRecipe"),
        ],
    )
    def test_nested_blocks_must_be_their_records(self, field, value, kind):
        # A library caller's dict here used to construct and then fail in
        # build_ensemble with a bare AttributeError; a ClassifierSpec, a
        # recipe with its data's shape, with a bare TypeError.
        kwargs = dict(num_members=1, training_thresholds=(), **MLP_ARCH, training=TRAIN)
        kwargs[field] = value
        message = re.escape(f"{field} must be a {kind}, got {value!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            BuildConfig(**kwargs)

    def test_default_min_subset_size(self):
        """A pool needs max(2 * num_classes, 10) samples, num_classes being
        the dataset's."""
        cfg = BuildConfig(num_members=2, training_thresholds=(0.5,),
                          classifier=ClassifierRecipe("linear"), training=TrainConfig(epochs=1))
        for num_classes, floor in ((3, 10), (20, 40)):
            data = generate_blobs(num_classes=num_classes, per_class=3, dim=2,
                                  spread=1.0, overlap=0.0, seed=0)
            with pytest.raises(DegenerateSubsetError) as err:
                build_ensemble(data, cfg)
            assert err.value.minimum == floor
