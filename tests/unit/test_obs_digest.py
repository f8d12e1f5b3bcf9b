"""Unit tests for the mergeable latency digest (repro.obs.digest)."""

import math

import pytest

from repro.obs.digest import GROWTH, LatencyDigest


def exact_nearest_rank(samples, q):
    """Reference nearest-rank quantile over the raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestAdd:
    def test_counts_and_exact_moments(self):
        digest = LatencyDigest()
        _fold(digest, [1.0, 2.0, 3.0, 4.0])
        assert digest.count == 4
        assert digest.total == pytest.approx(10.0)
        assert digest.mean == pytest.approx(2.5)
        assert digest.minimum == 1.0
        assert digest.maximum == 4.0

    def test_zero_and_negative_samples_land_in_the_zero_bucket(self):
        digest = LatencyDigest()
        _fold(digest, [0.0, -0.5, 2.0])
        assert digest.zeros == 2
        assert digest.count == 3
        # The zero bucket dominates p50; the estimate clamps at zero.
        assert digest.quantile(0.5) == 0.0

    def test_non_finite_samples_are_rejected(self):
        digest = LatencyDigest()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                digest.add(bad)
        assert digest.count == 0

    def test_empty_digest_reports_none(self):
        digest = LatencyDigest()
        assert digest.mean is None
        assert digest.quantile(0.5) is None
        assert digest.percentiles() == {
            "count": 0,
            "p50": None,
            "p95": None,
            "p99": None,
        }

    def test_quantile_rejects_out_of_range_q(self):
        digest = LatencyDigest()
        digest.add(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            digest.quantile(1.5)


class TestQuantiles:
    def test_single_sample_quantiles_are_that_sample(self):
        digest = LatencyDigest()
        digest.add(3.7)
        # Clamping to [min, max] makes a one-sample digest exact.
        assert digest.quantile(0.0) == pytest.approx(3.7)
        assert digest.quantile(0.5) == pytest.approx(3.7)
        assert digest.quantile(1.0) == pytest.approx(3.7)

    def test_quantile_error_is_bounded_by_the_bin_width(self):
        samples = [0.01 * i for i in range(1, 1001)]
        digest = LatencyDigest()
        _fold(digest, samples)
        # Geometric bins of width GROWTH bound the relative error by
        # sqrt(GROWTH) - 1 (~2.2%); allow the full bin width for slack.
        tolerance = GROWTH - 1.0
        for q in (0.10, 0.50, 0.90, 0.95, 0.99):
            exact = exact_nearest_rank(samples, q)
            estimate = digest.quantile(q)
            assert abs(estimate - exact) / exact <= tolerance

    def test_quantiles_are_monotone_in_q(self):
        digest = LatencyDigest()
        _fold(digest, [0.5 * i for i in range(1, 200)])
        grid = [i / 20 for i in range(21)]
        estimates = [digest.quantile(q) for q in grid]
        assert estimates == sorted(estimates)

    def test_percentiles_key_set_matches_campaign_contract(self):
        digest = LatencyDigest()
        _fold(digest, [1.0, 2.0, 3.0])
        block = digest.percentiles()
        assert set(block) == {"count", "p50", "p95", "p99"}
        assert block["count"] == 3
        assert block["p50"] <= block["p95"] <= block["p99"]


class TestMerge:
    def test_merge_is_exact_on_counts(self):
        samples = [0.1 * i for i in range(1, 301)]
        whole = LatencyDigest()
        _fold(whole, samples)
        chunks = [samples[0:100], samples[100:200], samples[200:300]]
        merged = _merged(_digests(chunks))
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.zeros == whole.zeros
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        # Quantiles depend only on counts, so they agree exactly.
        for q in (0.05, 0.5, 0.95):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merging_in_canonical_order_is_bit_identical(self):
        chunks = [[0.3 * i + j for i in range(1, 50)] for j in range(4)]
        one = _merged(_digests(chunks))
        two = _merged(_digests(chunks))
        assert one.to_dict() == two.to_dict()
        assert one.total == two.total  # exact float equality, not approx

    def test_merge_handles_empty_sides(self):
        digest = LatencyDigest()
        _fold(digest, [1.0, 2.0])
        empty = LatencyDigest()
        merged = _merged([empty, digest, empty])
        assert merged.to_dict() == digest.to_dict()


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        digest = LatencyDigest()
        _fold(digest, [0.0, 0.004, 1.5, 1.5, 88.0])
        clone = LatencyDigest.from_dict(digest.to_dict())
        assert clone == digest
        assert clone.to_dict() == digest.to_dict()

    def test_empty_round_trip(self):
        payload = LatencyDigest().to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None
        clone = LatencyDigest.from_dict(payload)
        assert clone.count == 0
        assert clone.minimum == math.inf
        assert clone.maximum == -math.inf

    def test_to_dict_bin_keys_are_sorted_strings(self):
        digest = LatencyDigest()
        _fold(digest, [100.0, 0.001, 7.0])
        keys = list(digest.to_dict()["bins"])
        assert keys == sorted(keys, key=int)
        assert all(isinstance(key, str) for key in keys)


def _digests(chunks):
    out = []
    for chunk in chunks:
        digest = LatencyDigest()
        _fold(digest, chunk)
        out.append(digest)
    return out


def _fold(digest, samples):
    for value in samples:
        digest.add(value)


def _merged(digests):
    out = LatencyDigest()
    for digest in digests:
        out.merge(digest)
    return out
