"""Tests for the random-pairing reservoir (Gemulla et al.)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EdgeExistsError
from repro.samplers.random_pairing import RandomPairingReservoir


class TestBasics:
    def test_fills_to_capacity(self):
        rp = RandomPairingReservoir(5, rng=0)
        for i in range(5):
            added, evicted = rp.insert(i)
            assert added and evicted is None
        assert len(rp) == 5

    def test_capacity_never_exceeded(self):
        rp = RandomPairingReservoir(5, rng=0)
        for i in range(100):
            rp.insert(i)
        assert len(rp) <= 5

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            RandomPairingReservoir(0)

    def test_duplicate_sampled_item_rejected(self):
        rp = RandomPairingReservoir(5, rng=0)
        rp.insert("a")
        with pytest.raises(EdgeExistsError):
            rp.insert("a")

    def test_delete_of_sampled_item(self):
        rp = RandomPairingReservoir(5, rng=0)
        rp.insert("a")
        assert rp.delete("a") is True
        assert "a" not in rp
        assert rp.d_i == 1
        assert rp.population == 0

    def test_delete_of_unsampled_item(self):
        rp = RandomPairingReservoir(1, rng=0)
        rp.insert("a")
        rp.insert("b")
        unsampled = "a" if "a" not in rp else "b"
        assert rp.delete(unsampled) is False
        assert rp.d_o == 1
        assert rp.d_i == 0

    def test_pairing_compensates_deletions(self):
        """After a deletion of a sampled item, the next insertion is
        paired with it (d_i drains before standard sampling resumes)."""
        rp = RandomPairingReservoir(3, rng=0)
        for i in range(3):
            rp.insert(i)
        rp.delete(0)
        assert rp.d_i == 1
        added, evicted = rp.insert("new")
        assert added is True
        assert evicted is None
        assert rp.d_i == 0

    def test_iteration_matches_membership(self):
        rp = RandomPairingReservoir(4, rng=0)
        for i in range(4):
            rp.insert(i)
        assert set(rp) == {0, 1, 2, 3}


class TestProbabilities:
    def test_joint_probability_full_population_in_sample(self):
        rp = RandomPairingReservoir(10, rng=0)
        for i in range(5):
            rp.insert(i)
        assert rp.joint_inclusion_probability(2) == 1.0

    def test_joint_probability_zero_when_sample_too_small(self):
        rp = RandomPairingReservoir(10, rng=0)
        rp.insert(0)
        assert rp.joint_inclusion_probability(2) == 0.0

    def test_joint_probability_k_zero(self):
        rp = RandomPairingReservoir(10, rng=0)
        assert rp.joint_inclusion_probability(0) == 1.0

    def test_joint_probability_formula(self):
        rp = RandomPairingReservoir(2, rng=0)
        for i in range(10):
            rp.insert(i)
        s, n = len(rp), rp.population
        expected = (s / n) * ((s - 1) / (n - 1))
        assert rp.joint_inclusion_probability(2) == pytest.approx(expected)

    def test_triest_probability_uses_augmented_population(self):
        rp = RandomPairingReservoir(3, rng=0)
        for i in range(6):
            rp.insert(i)
        sampled = next(iter(rp))
        rp.delete(sampled)
        w = rp.population + rp.d_i + rp.d_o
        omega = min(rp.capacity, w)
        expected = 1.0
        for j in range(2):
            expected *= (omega - j) / (w - j)
        assert rp.triest_inclusion_probability(2) == pytest.approx(expected)

    def test_triest_probability_zero_when_omega_small(self):
        rp = RandomPairingReservoir(2, rng=0)
        rp.insert(0)
        assert rp.triest_inclusion_probability(3) == 0.0


class TestUniformity:
    def test_insertion_only_uniform(self):
        """Classic reservoir property: each of n items is sampled with
        probability M/n."""
        capacity, n, runs = 5, 25, 3000
        counts = np.zeros(n)
        for seed in range(runs):
            rp = RandomPairingReservoir(capacity, rng=seed)
            for i in range(n):
                rp.insert(i)
            for item in rp:
                counts[item] += 1
        freqs = counts / runs
        expected = capacity / n
        assert np.all(np.abs(freqs - expected) < 0.035)

    def test_uniform_after_deletions(self):
        """RP's guarantee: after deletions + compensating insertions the
        sample is still uniform over alive items."""
        capacity, runs = 4, 4000
        # Alive at the end: items 5..19 (0..4 deleted).
        alive = list(range(5, 20))
        counts = {i: 0 for i in alive}
        sizes = []
        for seed in range(runs):
            rp = RandomPairingReservoir(capacity, rng=seed)
            for i in range(12):
                rp.insert(i)
            for i in range(5):
                rp.delete(i)
            for i in range(12, 20):
                rp.insert(i)
            sizes.append(len(rp))
            for item in rp:
                if item in counts:
                    counts[item] += 1
        total = sum(counts.values())
        freqs = np.array([counts[i] / total for i in alive])
        # Uniformity over alive items (items 0..4 dead, never counted).
        assert np.all(np.abs(freqs - 1.0 / len(alive)) < 0.02)
