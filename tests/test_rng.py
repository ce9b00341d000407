"""Deterministic RNG derivation."""

import numpy as np

from repro.rng import (
    DEFAULT_SEED,
    _restore_words,
    SeedSequenceFactory,
    derive_seed,
    from_state,
    generator,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_not_concatenation(self):
        # ("ab",) and ("a", "b") must differ: labels are delimited.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_nonnegative_63_bit(self):
        seed = derive_seed(DEFAULT_SEED, "x")
        assert 0 <= seed < 2**63


class TestGenerator:
    def test_same_path_same_stream(self):
        a = generator(7, "sram").integers(0, 1000, 10)
        b = generator(7, "sram").integers(0, 1000, 10)
        assert (a == b).all()

    def test_different_path_different_stream(self):
        a = generator(7, "sram").integers(0, 1000, 10)
        b = generator(7, "dram").integers(0, 1000, 10)
        assert not (a == b).all()


class TestFromState:
    def test_restored_stream_continues_the_original(self):
        original = generator(7, "restore")
        original.random(dtype=np.float32)  # leaves a buffered uint32 half
        assert original.bit_generator.state["has_uint32"] == 1
        restored = from_state(original.bit_generator.state)
        assert restored is not original
        assert restored.bit_generator.state == original.bit_generator.state
        assert original.random(dtype=np.float32) == restored.random(
            dtype=np.float32
        )
        assert (
            original.integers(0, 2**40, 8) == restored.integers(0, 2**40, 8)
        ).all()
        assert (
            original.standard_normal(8) == restored.standard_normal(8)
        ).all()

    def test_a_second_restore_generates_no_seed_state(self, monkeypatch):
        """The throwaway initial state comes from cached words: once
        they exist, a restore runs no ``SeedSequence.generate_state``."""
        calls = []

        class CountingSeedSequence(np.random.SeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                calls.append(n_words)
                return super().generate_state(n_words, dtype)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        _restore_words.cache_clear()
        original = generator(7, "restore")
        state = original.bit_generator.state
        first = from_state(state)
        assert len(calls) == 1
        second = from_state(state)
        assert len(calls) == 1
        assert first.random() == second.random() == original.random()
        _restore_words.cache_clear()

    def test_restored_stream_is_independent(self):
        original = generator(7, "restore")
        restored = from_state(original.bit_generator.state)
        restored.random(4)
        assert original.random() == generator(7, "restore").random()


class TestFactory:
    def test_child_matches_direct_derivation(self):
        factory = SeedSequenceFactory(42)
        child = factory.child("soc")
        assert child.root == factory.seed("soc")

    def test_generators_reproducible(self):
        factory = SeedSequenceFactory(42)
        a = factory.generator("x").random(5)
        b = factory.generator("x").random(5)
        assert (a == b).all()

    def test_root_property(self):
        assert SeedSequenceFactory(9).root == 9
