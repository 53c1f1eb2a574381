"""Deterministic seed derivation and the counter-based uniform stream."""

import numpy as np

from rankrefine.seeding import derive_rng, derive_seed, unit_uniform


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("split", 0, 3) == derive_seed("split", 0, 3)

    def test_distinct_parts_distinct_seeds(self):
        seen = {
            derive_seed("split", master, i)
            for master in range(10)
            for i in range(10)
        }
        assert len(seen) == 100

    def test_label_separates_streams(self):
        assert derive_seed("forest", 0, 1) != derive_seed("oracle", 0, 1)

    def test_part_boundaries_not_ambiguous(self):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_float_and_int_parts_distinct(self):
        # 1 and 1.0 are different protocol values.
        assert derive_seed("x", 1) != derive_seed("x", 1.0)

    def test_float_canonicalization_exact(self):
        # repr round-trips floats, so equal floats give equal seeds, numpy's included.
        assert derive_seed("x", 0.1 + 0.2) == derive_seed("x", 0.30000000000000004)
        assert derive_seed("x", np.float64(0.1)) == derive_seed("x", 0.1)

    def test_range(self):
        for i in range(100):
            s = derive_seed("range-check", i)
            assert 0 <= s < 2**64


class TestDeriveRng:
    def test_same_parts_same_stream(self):
        a = derive_rng("stream", 7).standard_normal(5)
        b = derive_rng("stream", 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_parts_different_stream(self):
        a = derive_rng("stream", 7).standard_normal(5)
        b = derive_rng("stream", 8).standard_normal(5)
        assert not np.array_equal(a, b)


class TestUnitUniform:
    def test_in_unit_interval(self):
        values = [unit_uniform("u", i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_deterministic(self):
        assert unit_uniform("oracle", 3, "q01", 5) == unit_uniform("oracle", 3, "q01", 5)

    def test_roughly_uniform(self):
        # Coarse distribution check: mean near 1/2, mass in every decile.
        values = np.array([unit_uniform("dist", i) for i in range(4000)])
        assert abs(values.mean() - 0.5) < 0.02
        counts, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
        assert counts.min() > 300
