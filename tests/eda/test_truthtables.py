"""Property tests for the truth-table algebra and ISOP."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.eda.truthtables import (
    Cube,
    cofactor0,
    cofactor1,
    cube_cover,
    depends_on,
    expand_table,
    flip_var,
    full_mask,
    isop,
    support,
    var_table,
)


class TestBasics:
    def test_full_mask(self):
        assert full_mask(0) == 1
        assert full_mask(1) == 0b11
        assert full_mask(2) == 0b1111
        with pytest.raises(ValueError):
            full_mask(7)

    def test_var_table(self):
        assert var_table(0, 2) == 0b1010
        assert var_table(1, 2) == 0b1100
        with pytest.raises(ValueError):
            var_table(2, 2)

    def test_cofactors_of_projection(self):
        x0 = var_table(0, 2)
        assert cofactor1(x0, 0, 2) == full_mask(2)
        assert cofactor0(x0, 0, 2) == 0

    def test_depends_on(self):
        x0 = var_table(0, 3)
        assert depends_on(x0, 0, 3)
        assert not depends_on(x0, 1, 3)
        assert support(x0, 3) == [0]

    def test_flip_var_on_projection(self):
        x0 = var_table(0, 2)
        assert flip_var(x0, 0, 2) == (~x0 & full_mask(2))


@given(st.integers(0, 2**16 - 1), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_shannon_expansion(table, var):
    """f = (~x & f0) | (x & f1) for every variable."""
    n = 4
    f0 = cofactor0(table, var, n)
    f1 = cofactor1(table, var, n)
    x = var_table(var, n)
    rebuilt = ((~x & f0) | (x & f1)) & full_mask(n)
    assert rebuilt == table & full_mask(n)


@given(st.integers(0, 2**16 - 1), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_flip_var_involution(table, var):
    n = 4
    assert flip_var(flip_var(table, var, n), var, n) == table & full_mask(n)


@given(st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_expand_table_preserves_semantics(table):
    """Lifting a 3-var table to positions in a 5-var space keeps values."""
    n_old, n_new = 3, 5
    positions = [4, 0, 2]  # var j -> new position positions[j]
    lifted = expand_table(table, positions, n_new)
    for minterm in range(1 << n_new):
        old_minterm = 0
        for j, pos in enumerate(positions):
            if (minterm >> pos) & 1:
                old_minterm |= 1 << j
        assert ((lifted >> minterm) & 1) == ((table >> old_minterm) & 1)


class TestISOP:
    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=200, deadline=None)
    def test_isop_exact_cover(self, table):
        """With lower == upper, the cubes cover exactly the function."""
        n = 4
        cubes = isop(table, table, n)
        assert cube_cover(cubes, n) == table & full_mask(n)

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    @settings(max_examples=150, deadline=None)
    def test_isop_respects_bounds(self, a, b):
        """lower <= cover <= upper whenever lower is contained in upper."""
        n = 3
        lower = a & b & full_mask(n)
        upper = (a | b) & full_mask(n)
        cubes = isop(lower, upper, n)
        cover = cube_cover(cubes, n)
        assert (lower & ~cover) & full_mask(n) == 0
        assert (cover & ~upper) & full_mask(n) == 0

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_isop_irredundant(self, table):
        """Dropping any cube leaves some minterm uncovered."""
        n = 4
        cubes = isop(table, table, n)
        if len(cubes) <= 1:
            return
        for i in range(len(cubes)):
            reduced = cubes[:i] + cubes[i + 1 :]
            assert cube_cover(reduced, n) != table & full_mask(n)

    def test_isop_constants(self):
        assert isop(0, 0, 3) == []
        cubes = isop(full_mask(3), full_mask(3), 3)
        assert cube_cover(cubes, 3) == full_mask(3)
        assert cubes == [(0, 0)]  # single tautology cube

    def test_isop_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            isop(0b10, 0b01, 1)

    def test_cube_cover_of_literal(self):
        # cube: x1 (care bit 1, value bit 1) over 2 vars
        assert cube_cover([(0b10, 0b10)], 2) == var_table(1, 2)


def _expand_table_reference(table, old_vars, new_nvars):
    """The original per-minterm lifting loop, kept here as the oracle for
    the memoized mask-table implementation."""
    out = 0
    for new_minterm in range(1 << new_nvars):
        old_minterm = 0
        for j, pos in enumerate(old_vars):
            if (new_minterm >> pos) & 1:
                old_minterm |= 1 << j
        if (table >> old_minterm) & 1:
            out |= 1 << new_minterm
    return out


class TestExpandTableDifferential:
    """``expand_table`` equals the per-minterm loop on every placement of
    up to four old variables into up to six new ones."""

    @staticmethod
    def check(tables, placement, n_new):
        for table in tables:
            assert expand_table(table, placement, n_new) == (
                _expand_table_reference(table, placement, n_new)
            ), (table, placement, n_new)

    @pytest.mark.parametrize("n_old", [0, 1, 2, 3])
    def test_every_table_of_up_to_three_vars(self, n_old):
        """All tables on every increasing placement (the ones cut merging
        produces) and, for up to two variables, on every placement; other
        three-variable placements get a seeded sample of tables."""
        every_table = range(1 << (1 << n_old))
        rng = random.Random(n_old)
        for n_new in range(n_old, 7):
            for placement in itertools.permutations(range(n_new), n_old):
                if n_old < 3 or list(placement) == sorted(placement):
                    self.check(every_table, placement, n_new)
                else:
                    self.check(rng.sample(every_table, 16), placement, n_new)

    def test_seeded_sample_of_four_var_tables(self):
        rng = random.Random(0)
        for n_new in range(4, 7):
            for placement in itertools.permutations(range(n_new), 4):
                self.check(rng.sample(range(1 << 16), 4), list(placement), n_new)
