from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpow.majorization import (
    Prop1Verdict,
    int_tuple,
    majorizes,
    p_power_norm,
    prop1_check,
    weakly_majorizes,
)

tuples = st.lists(st.integers(0, 50), min_size=1, max_size=12)


def weaken(rng: random.Random, y: list[int], ops: int) -> list[int]:
    """Apply decrement / transfer steps; the result stays weakly majorized by y."""
    x = sorted(y, reverse=True)
    for _ in range(ops):
        if rng.random() < 0.5:
            i = rng.randrange(len(x))
            if x[i] > 0:
                x[i] -= 1
        else:
            i, j = rng.randrange(len(x)), rng.randrange(len(x))
            if x[i] > x[j] + 1:  # Robin Hood transfer
                x[i] -= 1
                x[j] += 1
        x.sort(reverse=True)
    return x


class TestWeakMajorization:
    def test_basic(self):
        assert weakly_majorizes((3, 2, 1), (2, 2, 2))

    def test_reflexive_example(self):
        assert weakly_majorizes((5, 1), (5, 1))

    def test_first_prefix_fails(self):
        assert not weakly_majorizes((2, 2), (3, 1))

    def test_degree_sequence_pair(self):
        # pi(K_{2,3}) vs pi(C5): weakly majorizes but sums differ (12 vs 10)
        y, x = (3, 3, 2, 2, 2), (2, 2, 2, 2, 2)
        assert weakly_majorizes(y, x)
        assert not majorizes(y, x)

    def test_majorizes_needs_equal_sums(self):
        assert majorizes((3, 2, 1), (2, 2, 2))
        assert not majorizes((3, 2, 2), (2, 2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weakly_majorizes((1, 2), (1, 2, 3))

    def test_unsorted_input_is_normalized(self):
        assert weakly_majorizes((1, 2, 3), (2, 2, 2))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            int_tuple((3, -1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            int_tuple(())


class TestPowerNorm:
    def test_appendix_equality_instance(self):
        # the two n=7 comparison tuples share the same square norm
        assert p_power_norm((6, 2, 2, 2, 2, 2, 2), 2) == 60
        assert p_power_norm((4, 4, 4, 3, 1, 1, 1), 2) == 60

    def test_ones(self):
        assert p_power_norm((1, 1, 1), 5) == 3

    def test_p1_is_sum(self):
        assert p_power_norm((4, 3, 2), 1) == 9


class TestProp1Check:
    def test_degree_sequences_strict(self):
        assert prop1_check((2,) * 5, (3, 3, 2, 2, 2), 2) is Prop1Verdict.HOLDS_STRICT

    def test_equal_tuples(self):
        assert prop1_check((4, 2, 2, 2, 2), (4, 2, 2, 2, 2), 3) is Prop1Verdict.HOLDS_EQUAL

    def test_incomparable_tuples_inapplicable(self):
        # norms are 222 < 264, but the prefix-sum hypothesis fails at s=3,
        # so the norm comparison is outside this law's scope
        x, y = (4, 4, 4, 3, 1, 1, 1), (6, 2, 2, 2, 2, 2, 2)
        assert p_power_norm(x, 3) == 222
        assert p_power_norm(y, 3) == 264
        assert not weakly_majorizes(y, x)
        assert prop1_check(x, y, 3) is Prop1Verdict.INAPPLICABLE

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            prop1_check((1,), (1,), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: int_tuple((3, 1.5)), "entries must be ints, got 1.5"),
    (lambda: int_tuple((2, True)), "entries must be ints, got True"),
    (lambda: p_power_norm((2, 1), 0), "p must be >= 1"),
    (lambda: prop1_check((2, 1), (2, 1, 1), 2), "length mismatch: 2 vs 3"),
], ids=["float-entry", "bool-entry", "norm-p-below-one", "prop1-length-mismatch"])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@settings(max_examples=300, deadline=None)
@given(tuples)
def test_weak_majorization_reflexive(values):
    assert weakly_majorizes(values, values)


@settings(max_examples=300, deadline=None)
@given(tuples, st.randoms(use_true_random=False))
def test_weak_majorization_transitive(values, rng):
    z = sorted(values, reverse=True)
    y = weaken(rng, z, rng.randint(0, 6))
    x = weaken(rng, y, rng.randint(0, 6))
    assert weakly_majorizes(z, y) and weakly_majorizes(y, x)
    assert weakly_majorizes(z, x)


def test_weak_majorization_order_axioms_bulk():
    # 10^4 seeded chains x <=_w y <=_w z, entries <= 50, length <= 12
    rng = random.Random(0xAB12)
    for _ in range(10_000):
        length = rng.randint(1, 12)
        z = sorted((rng.randint(0, 50) for _ in range(length)), reverse=True)
        y = weaken(rng, z, rng.randint(0, 5))
        x = weaken(rng, y, rng.randint(0, 5))
        assert weakly_majorizes(z, z)
        assert weakly_majorizes(z, y) and weakly_majorizes(y, x)
        assert weakly_majorizes(z, x)


@settings(max_examples=300, deadline=None)
@given(tuples, st.randoms(use_true_random=False), st.integers(2, 6))
def test_prop1_never_violated(values, rng, p):
    y = sorted(values, reverse=True)
    x = weaken(rng, y, rng.randint(0, 8))
    verdict = prop1_check(x, y, p)
    assert verdict is not Prop1Verdict.VIOLATION
    assert verdict is not Prop1Verdict.INAPPLICABLE
    if tuple(x) == tuple(y):
        assert verdict is Prop1Verdict.HOLDS_EQUAL
    else:
        assert verdict is Prop1Verdict.HOLDS_STRICT
