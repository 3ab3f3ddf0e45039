import random

from moorev1.gf2linalg import (
    Subspace,
    column_space_basis,
    kernel_basis,
    rank,
    rref,
    subquotient_basis,
    transpose,
)
from oracles import apply_matrix


def random_matrix(rng, nrows, ncols, density=0.4):
    return [
        sum((1 << j) for j in range(ncols) if rng.random() < density)
        for _ in range(nrows)
    ]


class TestRref:
    def test_canonical(self):
        # two spanning sets of the same space reduce identically
        a = rref([0b011, 0b101])
        b = rref([0b110, 0b011, 0b101])
        assert a == b

    def test_rank(self):
        assert rank([0b011, 0b101, 0b110]) == 2
        assert rank([0, 0]) == 0

    def test_pivot_bits_cleared_elsewhere(self):
        rows = rref([0b111, 0b011])
        pivots = [r & -r for r in rows]
        for r in rows:
            for p in pivots:
                if r & -r != p:
                    assert not (r & p)


class TestKernel:
    def test_simple(self):
        # d(e0) = f0, d(e1) = f0: kernel is e0 + e1
        rows = [0b11]
        assert kernel_basis(rows, 2) == [0b11]

    def test_zero_map(self):
        assert kernel_basis([0], 3) == [0b001, 0b010, 0b100]

    def test_rank_nullity_and_membership(self):
        rng = random.Random(11)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, nrows, ncols)
            ker = kernel_basis(m, ncols)
            assert len(ker) == ncols - rank(transpose(m, ncols))
            for v in ker:
                assert apply_matrix(m, v) == 0
            assert rank(ker) == len(ker)


class TestColumnSpace:
    def test_image(self):
        # columns (f0+f1, f0+f1): image is one line
        m = [0b11, 0b11]
        assert column_space_basis(m, 2) == [0b11]

    def test_every_image_vector_in_column_space(self):
        rng = random.Random(5)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols)
            im = Subspace(column_space_basis(m, ncols))
            for _ in range(10):
                v = rng.getrandbits(ncols)
                assert apply_matrix(m, v) in im


class TestSubspace:
    def test_membership(self):
        s = Subspace([0b011, 0b110])
        assert 0b101 in s
        assert 0b001 not in s

    def test_equality_independent_of_generators(self):
        assert Subspace([0b01, 0b10]) == Subspace([0b11, 0b01])

    def test_inclusion(self):
        small = Subspace([0b011])
        big = Subspace([0b011, 0b100])
        assert small <= big
        assert not big <= small

    def test_reduce_is_canonical(self):
        s = Subspace([0b011])
        assert s.reduce(0b001) == s.reduce(0b010)


class TestSubquotient:
    def test_keeps_original_cycles(self):
        # cycles e0 and e1, boundaries e0 + e1: one class, represented by e0
        reps = subquotient_basis([0b01, 0b10], Subspace([0b11]))
        assert reps == [0b01]

    def test_dimension(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 8)
            cyc = rref(random_matrix(rng, rng.randint(0, 6), n))
            # boundaries: random subspace of the cycles
            bnd = Subspace(
                [v for v in cyc if rng.random() < 0.5]
                + [a ^ b for a in cyc for b in cyc if rng.random() < 0.2]
            )
            reps = subquotient_basis(cyc, bnd)
            assert len(reps) == rank(cyc) - bnd.dim
            for r in reps:
                assert r in cyc  # literally one of the inputs
            assert rank(list(bnd.rows) + reps) == rank(cyc)
