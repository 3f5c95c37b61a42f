import random

import pytest

import weylbench as wb
from weylbench import abgroups, comrings
from weylbench.abgroups import (
    FGAbelianGroup,
    Presentation,
    cyclic_group,
    group_from_presentation,
    hermite_rows,
    kernel_basis,
    smith_normal_form,
    subgroup_generated,
)
from weylbench.errors import InputError


def test_snf_examples():
    D, U, V = smith_normal_form([[2, -1], [1, 1], [-1, 2]])
    assert [D[0][0], D[1][1]] == [1, 3]
    D, U, V = smith_normal_form([[0, 0], [0, 0]])
    assert all(D[i][j] == 0 for i in range(2) for j in range(2))
    D, U, V = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert [D[i][i] for i in range(3)] == [1, 1, 1]


def test_snf_invariant_factors_match_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(4242)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        D, _, _ = smith_normal_form(M)
        ours = [abs(D[i][i]) for i in range(min(r, c))]
        theirs = [abs(int(d)) for d in invariant_factors(Matrix(M), domain=ZZ)]
        assert ours == theirs, M


def test_snf_random_matrices():
    # postconditions are verified inside smith_normal_form on every call
    rng = random.Random(12345)
    for _ in range(200):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        D, U, V = smith_normal_form(M)
        diag = [D[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)


def test_snf_invariant_under_row_shuffle():
    rng = random.Random(99)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        D1, _, _ = smith_normal_form(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        D2, _, _ = smith_normal_form(shuffled)
        d1 = sorted(D1[i][i] for i in range(3))
        d2 = sorted(D2[i][i] for i in range(3))
        assert d1 == d2


def test_group_from_presentation_examples():
    G, proj, _ = group_from_presentation(Presentation(2, ((2, -1), (1, 1), (-1, 2))))
    assert G.group_str() == "Z/3"
    G, proj, _ = group_from_presentation(Presentation(2, ()))
    assert G.group_str() == "Z^2"
    G, proj, _ = group_from_presentation(Presentation(1, ((6,),)))
    assert G.group_str() == "Z/6"
    # relations composed with the projection vanish
    for rel in ((2, -1), (1, 1), (-1, 2)):
        G, proj, _ = group_from_presentation(Presentation(2, ((2, -1), (1, 1), (-1, 2))))
        acc = G.identity()
        for c, p in zip(rel, proj):
            acc = G.add(acc, G.scale(c, p))
        assert acc == G.identity()


def test_invariant_factor_chain_enforced():
    with pytest.raises(InputError):
        FGAbelianGroup((2, 3), 0)
    FGAbelianGroup((2, 4), 0)
    FGAbelianGroup((), 3)


def test_subgroup_examples():
    C6 = cyclic_group(6)
    res = subgroup_generated(C6, [(2,), (3,)])
    assert res.group.group_str() == "Z/6"
    assert res.relations == [[3, 0], [0, 2]]
    res = subgroup_generated(C6, [(2,)])
    assert res.group.group_str() == "Z/3"
    assert res.contains((4,)) and not res.contains((1,))
    Z2 = FGAbelianGroup((), 2)
    res = subgroup_generated(Z2, [])
    assert res.group.group_str() == "1"
    assert res.contains((0, 0)) and not res.contains((1, 0))


def test_subgroup_random_properties():
    rng = random.Random(31)
    for _ in range(30):
        torsion = rng.choice([(), (2,), (6,), (2, 4)])
        rank = rng.randint(0, 2)
        if not torsion and rank == 0:
            continue
        G = FGAbelianGroup(torsion, rank)
        S = [G.reduce(tuple(rng.randint(-5, 5) for _ in range(G.ncoords)))
             for _ in range(rng.randint(0, 3))]
        res = subgroup_generated(G, S)
        for s in S:
            assert res.contains(s)
        for rel in res.relations:
            acc = G.identity()
            for c, s in zip(rel, S):
                acc = G.add(acc, G.scale(c, s))
            assert acc == G.identity()


def test_kernel_and_hermite():
    K = kernel_basis([[2, 0], [0, 0]])
    assert K == [[0, 1]]
    H = hermite_rows([[2, 4], [2, 2]])
    # lattice spanned by (2,4),(2,2): contains (0,2); canonical form
    assert H == [[2, 0], [0, 2]]


def test_enumerate_characters_counts(F3, F7, Q):
    C3 = cyclic_group(3)
    R7 = comrings.base_field_ring(F7)
    chars = abgroups.enumerate_characters(C3, R7.unit_group())
    assert len(chars) == 3
    Z2 = FGAbelianGroup((), 2)
    R3 = comrings.base_field_ring(F3)
    chars = abgroups.enumerate_characters(Z2, R3.unit_group())
    assert len(chars) == 4
    # torsion-free shortcut over the rationals: only +-1 are torsion units
    one = R3.one
    assert len(abgroups.enumerate_characters(C3, {one: 1})) == 1


def test_element_arithmetic_and_parse():
    G = FGAbelianGroup((2, 4), 1)
    x = G.parse_element("1,3,-2")
    assert x == (1, 3, -2)
    assert G.add(x, x) == (0, 2, -4)
    assert G.element_str(G.neg(x)) == "1,1,2"
    T = abgroups.trivial_group()
    assert T.parse_element("0") == ()
    assert T.element_str(()) == "0"
    assert T.group_str() == "1"


def test_presentation_invariant_under_unimodular_row_ops():
    rng = random.Random(57)
    rel = [[2, -1], [1, 1], [-1, 2]]
    G0, _, _ = group_from_presentation(Presentation(2, tuple(map(tuple, rel))))
    for _ in range(25):
        rows = [r[:] for r in rel]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                q = rng.randint(-3, 3)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        G, _, _ = group_from_presentation(Presentation(2, tuple(map(tuple, rows))))
        assert G == G0


def test_invert_helper_matches_field_inverse(F7):
    assert F7.inv(3) == 5
