"""Retry-policy contract: validation, backoff, and adaptive re-search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FAILURE_CLASSES, ResilienceError
from repro.resilience import RetryPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 1
        assert policy.reads_per_extraction % 2 == 1  # odd: no tie bits

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"reads_per_extraction": 0},
            {"base_backoff_s": -1.0},
            {"max_backoff_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"setpoint_step_v": -0.001},
            {"max_setpoint_boost_v": -0.001},
            {"confidence_threshold": 0.4},
            {"confidence_threshold": 1.1},
            {"min_confident_fraction": -0.1},
            {"min_confident_fraction": 1.1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_and_clamped(self):
        policy = RetryPolicy(
            base_backoff_s=0.5, backoff_multiplier=2.0, max_backoff_s=8.0
        )
        assert policy.backoff_s(1) == 0.5
        assert policy.backoff_s(2) == 1.0
        assert policy.backoff_s(3) == 2.0
        assert policy.backoff_s(10) == 8.0  # clamped

    def test_defined_only_after_a_failure(self):
        with pytest.raises(ResilienceError):
            RetryPolicy().backoff_s(0)


#: Arbitrary-but-valid backoff policies for the determinism properties.
_policies = st.builds(
    RetryPolicy,
    base_backoff_s=st.floats(0.0, 10.0, allow_nan=False),
    backoff_multiplier=st.floats(1.0, 8.0, allow_nan=False),
    max_backoff_s=st.floats(0.0, 60.0, allow_nan=False),
)

#: Fault sequences as the supervised engine sees them: each element is
#: one failed attempt, labelled with its typed failure class.  The
#: backoff schedule depends only on the *count* of prior failures,
#: never on their class, order, or any ambient state — that is the
#: determinism property under test.
_fault_sequences = st.lists(
    st.sampled_from(FAILURE_CLASSES), min_size=1, max_size=12
)


class TestBackoffDeterminism:
    """Same policy + same fault sequence => same simulated schedule.

    The engine records ``backoff_s(n)`` per re-attempt round (it never
    sleeps), so schedule determinism is exactly what makes a faulted run
    with N injected faults byte-reproducible across retries.
    """

    @settings(max_examples=200, deadline=None)
    @given(policy=_policies, faults=_fault_sequences)
    def test_schedule_is_a_pure_function_of_the_failure_count(
        self, policy, faults
    ):
        schedule = [policy.backoff_s(n) for n in range(1, len(faults) + 1)]
        again = [policy.backoff_s(n) for n in range(1, len(faults) + 1)]
        assert schedule == again
        # Rebuilding an identical policy (a resumed process would)
        # reproduces the schedule bit for bit.
        clone = RetryPolicy(
            base_backoff_s=policy.base_backoff_s,
            backoff_multiplier=policy.backoff_multiplier,
            max_backoff_s=policy.max_backoff_s,
        )
        assert [
            clone.backoff_s(n) for n in range(1, len(faults) + 1)
        ] == schedule

    @settings(max_examples=200, deadline=None)
    @given(policy=_policies, faults=_fault_sequences)
    def test_schedule_is_monotone_and_bounded(self, policy, faults):
        schedule = [policy.backoff_s(n) for n in range(1, len(faults) + 1)]
        assert all(b <= policy.max_backoff_s for b in schedule)
        assert all(
            earlier <= later or later == policy.max_backoff_s
            for earlier, later in zip(schedule, schedule[1:])
        )

    @settings(max_examples=100, deadline=None)
    @given(
        faults=_fault_sequences,
        permutation_seed=st.integers(0, 2**32 - 1),
    )
    def test_failure_classes_never_perturb_the_schedule(
        self, faults, permutation_seed
    ):
        # Reordering or relabelling the faults changes nothing: only
        # how many have happened matters to the pacing contract.
        import random

        policy = RetryPolicy()
        shuffled = list(faults)
        random.Random(permutation_seed).shuffle(shuffled)
        original = [policy.backoff_s(n) for n in range(1, len(faults) + 1)]
        relabelled = [
            policy.backoff_s(n) for n in range(1, len(shuffled) + 1)
        ]
        assert original == relabelled


class TestSetpointSearch:
    def test_boost_scales_with_lossy_failures_and_caps(self):
        policy = RetryPolicy(
            setpoint_step_v=0.015, max_setpoint_boost_v=0.060
        )
        assert policy.setpoint_boost_v(0) == 0.0
        assert policy.setpoint_boost_v(1) == pytest.approx(0.015)
        assert policy.setpoint_boost_v(4) == pytest.approx(0.060)
        assert policy.setpoint_boost_v(9) == pytest.approx(0.060)

    def test_negative_count_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy().setpoint_boost_v(-1)


class TestVariants:
    def test_single_shot_is_the_naive_baseline(self):
        naive = RetryPolicy.single_shot()
        assert naive.max_attempts == 1
        assert naive.reads_per_extraction == 1
        assert naive.min_confident_fraction == 0.0
