import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet.errors import ShapeError
from dnet.metrics import ConfusionCounts, confusion, metrics, roc_pr_curves


def pairwise_ranking_auc(scores, labels) -> float:
    """All positive-negative pairs; ties count one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels) > 0.5
    pos = s[y]
    neg = s[~y]
    wins = 0.0
    for p in pos:
        wins += float(np.count_nonzero(p > neg)) + 0.5 * float(np.count_nonzero(p == neg))
    return wins / (pos.size * neg.size)


def stable_sweep(scores, labels) -> dict:
    """The threshold sweep with ties kept in input order by a stable sort."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels) > 0.5
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    ends = np.r_[np.nonzero(s_sorted[1:] != s_sorted[:-1])[0], s.size - 1]
    cum_tp = np.cumsum(y_sorted)[ends].astype(np.float64)
    cum_fp = (ends + 1) - cum_tp
    return {
        "thresholds": np.r_[np.inf, s_sorted[ends]],
        "fpr": np.r_[0.0, cum_fp / (y.size - y.sum())],
        "tpr": np.r_[0.0, cum_tp / y.sum()],
        "precision": np.r_[1.0, cum_tp / (cum_tp + cum_fp)],
    }


class TestConfusion:
    def test_perfect_prediction(self):
        gt = np.array([[1, 0], [0, 1]])
        c = confusion(gt, gt)
        assert (c.fp, c.fn) == (0, 0)
        assert (c.tp, c.tn) == (2, 2)

    def test_total_inversion(self):
        gt = np.array([[1, 0], [0, 1]])
        c = confusion(1 - gt, gt)
        assert (c.tp, c.tn) == (0, 0)
        assert (c.fp, c.fn) == (2, 2)

    def test_enumerated_ten_pixels(self):
        gt = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        pred = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 6)

    def test_fov_restriction(self):
        gt = np.array([1, 0, 1, 0])
        pred = np.array([1, 1, 0, 0])
        fov = np.array([1, 1, 0, 0])
        c = confusion(pred, gt, fov)
        assert c.total == 2
        assert (c.tp, c.fp) == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            confusion(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(4))

    def test_counts_add(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        assert (a + b) == ConfusionCounts(11, 22, 33, 44)


class TestMetrics:
    def test_hand_case_exact(self):
        m = metrics(ConfusionCounts(tp=2, fp=1, fn=1, tn=6))
        assert m.precision == pytest.approx(2 / 3, abs=1e-12)
        assert m.recall == pytest.approx(2 / 3, abs=1e-12)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert m.accuracy == pytest.approx(0.8, abs=1e-12)
        assert m.specificity == pytest.approx(6 / 7, abs=1e-12)

    def test_perfect_prediction_all_ones(self):
        m = metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=5))
        assert (m.accuracy, m.precision, m.recall, m.specificity, m.f1) == (1, 1, 1, 1, 1)
        assert not m.degenerate

    def test_empty_positive_set_degenerate(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=7))
        assert m.precision == 0.0
        assert "precision" in m.degenerate

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ShapeError):
            metrics(ConfusionCounts(0, 0, 0, 0))

    @settings(deadline=None, max_examples=50)
    @given(st.tuples(*[st.integers(0, 500)] * 4))
    def test_accuracy_matches_ratio(self, counts):
        tp, tn, fp, fn = counts
        if tp + tn + fp + fn == 0:
            return
        m = metrics(ConfusionCounts(tp, tn, fp, fn))
        assert m.accuracy == pytest.approx((tp + tn) / (tp + tn + fp + fn), abs=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(st.tuples(*[st.integers(1, 200)] * 4))
    def test_f1_is_harmonic_mean_when_positive(self, counts):
        tp, tn, fp, fn = counts
        m = metrics(ConfusionCounts(tp, tn, fp, fn))
        assert m.precision > 0 and m.recall > 0
        harmonic = 2 / (1 / m.precision + 1 / m.recall)
        assert m.f1 == pytest.approx(harmonic, rel=1e-12)


class TestCurves:
    def test_perfect_separation(self):
        rep = roc_pr_curves([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert rep.auc_roc == pytest.approx(1.0, abs=1e-12)
        assert rep.auc_pr == pytest.approx(1.0, abs=1e-12)

    def test_single_inverted_pair(self):
        rep = roc_pr_curves([0.3, 0.7], [1, 0])
        assert rep.auc_roc == pytest.approx(0.0, abs=1e-12)

    def test_all_ties_is_half(self):
        rep = roc_pr_curves([0.4] * 6, [1, 0, 1, 0, 1, 0])
        assert rep.auc_roc == pytest.approx(0.5, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ShapeError):
            roc_pr_curves([0.1, 0.9], [1, 1])

    def test_roc_endpoints(self):
        rep = roc_pr_curves([0.2, 0.9, 0.5, 0.7], [0, 1, 1, 0])
        assert (rep.fpr[0], rep.tpr[0]) == (0.0, 0.0)
        assert (rep.fpr[-1], rep.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(rep.fpr) >= 0)
        assert np.all(np.diff(rep.tpr) >= 0)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_pairwise_ranking_oracle(self, data):
        n = data.draw(st.integers(4, 200))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            return
        rep = roc_pr_curves(scores, labels)
        assert rep.auc_roc == pytest.approx(pairwise_ranking_auc(scores, labels), abs=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(size=50), 2)
        labels = rng.integers(0, 2, size=50)
        if labels.sum() in (0, 50):
            return
        base = roc_pr_curves(scores, labels)
        squashed = roc_pr_curves(np.tanh(3.0 * scores) + 2.0, labels)
        assert squashed.auc_roc == pytest.approx(base.auc_roc, abs=1e-12)
        assert squashed.auc_pr == pytest.approx(base.auc_pr, abs=1e-12)
        assert np.array_equal(squashed.fpr, base.fpr)
        assert np.array_equal(squashed.tpr, base.tpr)

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = 3000
        scores = rng.integers(0, 6, size=n) / 5.0  # six levels: every score is tied
        scores[rng.random(n) < 0.5] *= -1.0  # signed zeros tie at level 0
        labels = rng.random(n) < 0.3
        reference = stable_sweep(scores, labels)
        first = roc_pr_curves(scores, labels)
        for _ in range(5):
            perm = rng.permutation(n)
            rep = roc_pr_curves(scores[perm], labels[perm])
            for field, expected in reference.items():
                assert np.array_equal(getattr(rep, field), expected), field
                assert np.array_equal(getattr(rep, field), getattr(first, field)), field
            assert (rep.auc_roc, rep.auc_pr) == (first.auc_roc, first.auc_pr)

    @pytest.mark.parametrize(
        "scores, labels, auc",
        [
            ([np.inf, np.inf, 0.0, 0.0], [1, 0, 1, 0], 0.5),
            ([-np.inf, -np.inf, 1.0], [1, 0, 1], 0.75),
        ],
    )
    def test_tie_of_infinities_is_one_group(self, scores, labels, auc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = roc_pr_curves(scores, labels)
        assert rep.auc_roc == auc == pairwise_ranking_auc(scores, labels)
        assert rep.thresholds.size == len(set(scores)) + 1

    @pytest.mark.parametrize("seed", range(4))
    def test_logits_of_saturated_probabilities(self, seed):
        # logit is strictly monotone and maps probabilities 0 and 1 to -inf
        # and +inf, so the curves must be those of the probabilities.
        rng = np.random.default_rng(seed)
        probs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=200)
        labels = rng.random(200) < 0.4
        with np.errstate(divide="ignore"):
            logits = np.log(probs) - np.log1p(-probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = roc_pr_curves(logits, labels)
        base = roc_pr_curves(probs, labels)
        assert np.isinf(logits).sum() > 0
        assert rep.auc_roc == pytest.approx(pairwise_ranking_auc(probs, labels), abs=1e-12)
        assert rep.auc_roc == pytest.approx(pairwise_ranking_auc(logits, labels), abs=1e-12)
        for field in ("fpr", "tpr", "precision"):
            assert np.array_equal(getattr(rep, field), getattr(base, field)), field
        assert (rep.auc_roc, rep.auc_pr) == (base.auc_roc, base.auc_pr)

    def test_signed_zero_tie_reads_zero(self):
        for scores in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, -0.0, 1.0]):
            rep = roc_pr_curves(scores, [0, 1, 1])
            assert not np.signbit(rep.thresholds).any()

    def test_nan_score_rejected(self):
        with pytest.raises(ShapeError, match="NaN"):
            roc_pr_curves([0.1, np.nan, 0.9], [0, 1, 1])
