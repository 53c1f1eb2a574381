"""Deterministic seed derivation and the counter-based uniform stream."""

import math

import numpy as np
import pytest

from rankrefine.seeding import _unit_interval, derive_rng, derive_seed, unit_uniforms

from conftest import unit_uniform

# Name parts that stress the canonical form: big and negative ints, floats
# whose repr needs all 17 digits, numpy floats, and ids with the characters a
# careless join would confuse (commas, spaces, the separator's neighbours) or
# encode wrongly (non-ASCII text).
FUZZ_PARTS = [
    ("oracle", 2**64 - 1, "q01"),
    ("oracle", -(2**80), "a,b", 0.1 + 0.2),
    (np.float64(1e-310), "é, ü", 3, 1.0),
    ("x", "数据 query", np.float64(-2.5), 2**53 + 1),
    ("\x1e", "", "\x20", float("inf")),
    (7,),
]


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
        values = unit_uniforms(1000, "u")
        assert values.shape == (1000,)
        assert ((0.0 <= values) & (values < 1.0)).all()

    def test_deterministic(self):
        a = unit_uniforms(6, "oracle", 3, "q01")
        np.testing.assert_array_equal(a, unit_uniforms(6, "oracle", 3, "q01"))
        assert a[5] == unit_uniform("oracle", 3, "q01", 5)

    def test_roughly_uniform(self):
        # Coarse distribution check: mean near 1/2, mass in every decile.
        values = unit_uniforms(4000, "dist")
        assert abs(values.mean() - 0.5) < 0.02
        counts, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
        assert counts.min() > 300

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    @pytest.mark.parametrize("parts", FUZZ_PARTS, ids=range(len(FUZZ_PARTS)))
    def test_batch_matches_the_scalar_draw_bit_for_bit(self, parts, n):
        got = unit_uniforms(n, *parts)
        want = np.array([unit_uniform(*parts, i) for i in range(n)], dtype=float)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()

    def test_top_seeds_stay_below_one(self):
        # seed / 2**64 rounds the top 2**10 seeds up to 1.0; they take the
        # largest double below 1.0, as the next seed down already does.
        below_one = math.nextafter(1.0, 0.0)
        top = [2**64 - 1, 2**64 - 2**10]
        assert [seed / 2.0**64 for seed in top] == [1.0, 1.0]
        assert (2**64 - 2**10 - 1) / 2.0**64 == below_one
        seeds = [*top, 2**64 - 2**10 - 1]
        assert [_unit_interval(seed) for seed in seeds] == [below_one] * 3
        as_array = _unit_interval(np.array(seeds, dtype=np.uint64))
        assert as_array.tolist() == [below_one] * 3
