"""Exact linear algebra kernel: fields, Kronecker tools, elimination."""

import random
from fractions import Fraction
from math import prod

import pytest

from helpers import l_eye, l_inv, l_kron, l_mul, laplace_det
from mprat.matrix_kernel import (
    QQ,
    Matrix,
    PrimeField,
    block_matrix,
    commutation_matrix,
    det,
    direct_sum,
    inv_det,
    kron,
    permute_kron_factors,
    scalar_matrix,
    solve,
    tau_embed,
)

F = Fraction


def rand_matrix(rng, n, m, field=QQ, bound=9):
    return Matrix.of(field, [[F(rng.randint(-bound, bound), rng.randint(1, 3))
                              for _ in range(m)] for _ in range(n)])


def rand_int_matrix(rng, n, m, field=QQ, bound=9):
    return Matrix.of(field, [[rng.randint(-bound, bound) for _ in range(m)]
                             for _ in range(n)])


def rand_wide_matrix(rng, n, m):
    # zeros, small integers and large fractions with unrelated denominators
    def entry():
        roll = rng.random()
        if roll < 0.2:
            return 0
        if roll < 0.4:
            return rng.randint(-9, 9)
        return F(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 9))
    return Matrix.of(QQ, [[entry() for _ in range(m)] for _ in range(n)], m)


def all_fractions(m):
    return all(type(x) is Fraction for row in m.data for x in row)


# -- matrix basics ------------------------------------------------------------


def test_construction_and_access():
    a = Matrix.of(QQ, [[1, "1/2"], [0, -3]])
    assert a.rows == 2 and a.cols == 2
    assert a.entry(0, 1) == F(1, 2)
    assert a.flat() == [F(1), F(1, 2), F(0), F(-3)]
    assert Matrix.from_flat(QQ, 2, 2, [1, "1/2", 0, -3]) == a
    assert not a.is_zero()
    assert Matrix.zeros(2, 3).is_zero()
    assert Matrix.identity(2) == Matrix.of(QQ, [[1, 0], [0, 1]])


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix(QQ, [[F(1)], [F(1), F(2)]])


def test_arithmetic_and_shapes():
    a = Matrix.of(QQ, [[1, 2], [3, 4]])
    b = Matrix.of(QQ, [[0, 1], [1, 0]])
    assert a + b == Matrix.of(QQ, [[1, 3], [4, 4]])
    assert a - a == Matrix.zeros(2, 2)
    assert -a == a.scale(F(-1))
    assert a @ b == Matrix.of(QQ, [[2, 1], [4, 3]])
    assert a.transpose() == Matrix.of(QQ, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        a + Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        a @ Matrix.zeros(3, 2)
    with pytest.raises(ValueError):
        a @ Matrix.identity(2, PrimeField(97))


def test_submatrix_and_scalar():
    a = Matrix.of(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix(0, 2, 1, 3) == Matrix.of(QQ, [[2, 3], [5, 6]])
    assert scalar_matrix(3, F(1, 2)) == Matrix.identity(3).scale(F(1, 2))
    assert a.add_scalar(F(1, 2)) == a + scalar_matrix(3, F(1, 2))
    assert a.add_scalar(0) == a
    assert Matrix.zeros(0, 0).add_scalar(F(3)) == Matrix.zeros(0, 0)
    gf = PrimeField(97)
    ag = Matrix.of(gf, a.data)
    assert ag.add_scalar(gf.of(-1)) == ag + scalar_matrix(3, -1, gf)
    with pytest.raises(ValueError):
        a.submatrix(0, 2, 0, 3).add_scalar(1)


def test_empty_shapes():
    e = Matrix.zeros(0, 3)
    assert e.rows == 0 and e.cols == 3
    assert (e.transpose() @ e) == Matrix.zeros(3, 3)
    for n, m, k in [(0, 3, 2), (2, 0, 3), (3, 0, 0), (0, 0, 4), (2, 3, 0)]:
        p = Matrix.zeros(n, m) @ Matrix.zeros(m, k)
        assert (p.rows, p.cols) == (n, k)
        assert p == Matrix.zeros(n, k)
    gf = PrimeField(97)
    assert Matrix.zeros(2, 0, gf) @ Matrix.zeros(0, 3, gf) == Matrix.zeros(2, 3, gf)


def test_matmul_matches_reference():
    rng = random.Random("matmul-oracle")
    for n, m, k in [(1, 1, 1), (2, 3, 4), (4, 1, 3), (5, 5, 5), (3, 6, 2)]:
        a, b = rand_wide_matrix(rng, n, m), rand_wide_matrix(rng, m, k)
        assert (a @ b).data == l_mul(a.data, b.data)


# -- Kronecker tools ----------------------------------------------------------


def test_kron_zero_and_one_entries_match_reference():
    rng = random.Random("kron-oracle")
    a = Matrix.of(QQ, [[0, 1, -1], ["1/2", 0, 1]])
    b = rand_wide_matrix(rng, 2, 3)
    assert kron(a, b).data == l_kron(a.data, b.data)
    assert kron(b, a).data == l_kron(b.data, a.data)
    gf = PrimeField(97)
    a_p, b_p = Matrix.of(gf, a.data), Matrix.of(gf, rand_int_matrix(rng, 2, 3).data)
    assert kron(a_p, b_p) == Matrix.of(gf, l_kron(a_p.data, b_p.data))


def test_kron_example():
    a = Matrix.of(QQ, [[0, 1], [0, 0]])
    b = Matrix.of(QQ, [[2]])
    assert kron(a, b) == Matrix.of(QQ, [[0, 2], [0, 0]])


def test_kron_mixed_product():
    rng = random.Random("kron-mixed")
    for _ in range(10):
        a = rand_matrix(rng, 2, 3)
        c = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 2, 2)
        d = rand_matrix(rng, 2, 2)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_direct_sum():
    a = Matrix.of(QQ, [[1, 2]])
    b = Matrix.of(QQ, [[3], [4]])
    assert direct_sum(a, b) == Matrix.of(QQ, [[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert direct_sum(a, Matrix.zeros(0, 0)) == a
    assert direct_sum(Matrix.zeros(0, 0), b) == b


def l_blocks(grid):
    # entry (i, j) looked up through the offsets of the block that holds it
    rows = [(bi, r) for bi, band in enumerate(grid) for r in range(band[0].rows)]
    cols = [(bj, c) for bj, block in enumerate(grid[0]) for c in range(block.cols)]
    return [[grid[bi][bj].entry(r, c) for bj, c in cols] for bi, r in rows], len(cols)


def test_block_matrix_matches_list_reference():
    rng = random.Random("blocks")
    gf = PrimeField(97)

    def block(h, w, field=QQ):
        return Matrix.of(field, [[rng.randint(-9, 9) for _ in range(w)] for _ in range(h)], w)

    grids = [[[block(2, 3)]],
             [[block(h, w) for w in (1, 0, 3)] for h in (2, 0, 1)],
             [[block(0, 2), block(0, 3)]],
             [[block(2, 0)], [block(1, 0)]],
             [[block(1, 2, gf), block(1, 1, gf)], [block(2, 2, gf), block(2, 1, gf)]]]
    for grid in grids:
        field = grid[0][0].field
        data, cols = l_blocks(grid)
        out = block_matrix(grid)
        assert out.field == field
        assert out == Matrix(field, data, cols)
    a = grids[0][0][0]
    assert block_matrix([[a]]) == a


def test_block_matrix_rejects_bad_grids():
    a = Matrix.of(QQ, [[1, 2, 3], [4, 5, 6]])
    bad = [[],
           [[]],
           [[a, Matrix.zeros(1, 1)]],           # rows do not fit the band
           [[a], [Matrix.zeros(1, 2)]],         # columns do not fit the column
           [[a, a], [a]],                       # ragged grid
           [[a, Matrix.zeros(2, 1, PrimeField(97))]]]
    for grid in bad:
        with pytest.raises(ValueError):
            block_matrix(grid)


def test_tau_embed_is_homomorphism():
    rng = random.Random("tau-hom")
    dims = (2, 3, 2)
    n = 2 * 3 * 2
    for slot in (1, 2, 3):
        assert tau_embed(slot, Matrix.identity(dims[slot - 1]), dims) == Matrix.identity(n)
        a = rand_matrix(rng, dims[slot - 1], dims[slot - 1])
        b = rand_matrix(rng, dims[slot - 1], dims[slot - 1])
        assert tau_embed(slot, a, dims) @ tau_embed(slot, b, dims) == tau_embed(slot, a @ b, dims)
        assert tau_embed(slot, a + b, dims) == tau_embed(slot, a, dims) + tau_embed(slot, b, dims)


def test_tau_embed_cross_slot_commutation():
    rng = random.Random("tau-commute")
    dims = (2, 2, 3)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            a = rand_matrix(rng, dims[i - 1], dims[i - 1])
            b = rand_matrix(rng, dims[j - 1], dims[j - 1])
            assert (tau_embed(i, a, dims) @ tau_embed(j, b, dims)
                    == tau_embed(j, b, dims) @ tau_embed(i, a, dims))


# generic entries: zero, one, negatives and fractions, all units mod 97 or 0
GENERIC = [F(0), F(1), F(-1), F(-7, 3), F(5, 2), F(2), F(1, 9), F(-4), F(11, 6)]


@pytest.mark.parametrize("field", [QQ, PrimeField(97)], ids=["QQ", "GF97"])
@pytest.mark.parametrize("dims", [(1,), (3,), (2, 3), (3, 1, 2), (2, 2, 2), (2, 0, 3)])
def test_tau_embed_matches_kron_with_identities(dims, field):
    for slot in range(1, len(dims) + 1):
        n = dims[slot - 1]
        pre, post = prod(dims[: slot - 1]), prod(dims[slot:])
        a = [[GENERIC[(7 * r + 4 * c + slot) % len(GENERIC)] for c in range(n)]
             for r in range(n)]
        want = Matrix.of(field, l_kron(l_kron(l_eye(pre), a), l_eye(post)), prod(dims))
        got = tau_embed(slot, Matrix.of(field, a, n), dims)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data == want.data
        if field == QQ:
            assert all_fractions(got)


def test_tau_embed_validates():
    with pytest.raises(ValueError):
        tau_embed(3, Matrix.identity(2), (2, 2))
    with pytest.raises(ValueError):
        tau_embed(1, Matrix.identity(3), (2, 2))


def test_commutation_matrix_swap_2x2():
    # swapping two slots of size 2: rows are e1, e3, e2, e4
    k = commutation_matrix((2, 1), (2, 2))
    expected = Matrix.of(QQ, [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert k == expected


def test_commutation_matrix_law():
    rng = random.Random("commutation")
    cases = [
        ((2, 1), (2, 3)),
        ((2, 3, 1), (2, 2, 2)),
        ((3, 1, 2), (2, 3, 2)),
        ((1, 2, 3), (2, 2, 3)),
    ]
    for pi, dims in cases:
        mats = [rand_matrix(rng, d, d) for d in dims]
        k = commutation_matrix(pi, dims)
        assert k @ k.transpose() == Matrix.identity(k.rows)
        lhs = mats[pi[0] - 1]
        for idx in pi[1:]:
            lhs = kron(lhs, mats[idx - 1])
        rhs = mats[0]
        for m in mats[1:]:
            rhs = kron(rhs, m)
        assert lhs == k @ rhs @ k.transpose()


def test_permute_kron_factors_matches_conjugation():
    rng = random.Random("permute-apply")
    for pi, dims in [((2, 1), (2, 2)), ((3, 1, 2), (2, 2, 2))]:
        n = 1
        for d in dims:
            n *= d
        m = rand_matrix(rng, n, n, bound=5)
        k = commutation_matrix(pi, dims)
        assert permute_kron_factors(m, pi, dims) == k @ m @ k.transpose()


def test_commutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        commutation_matrix((1, 1), (2, 2))


# -- elimination --------------------------------------------------------------


def test_inv_det_2x2():
    a = Matrix.of(QQ, [[1, 2], [3, 4]])
    inv, d = inv_det(a)
    assert d == F(-2)
    assert inv == Matrix.of(QQ, [["-2", "1"], ["3/2", "-1/2"]])
    assert inv @ a == Matrix.identity(2)


def test_det_fractional_entries():
    a = Matrix.of(QQ, [["1/2", "1/3"], ["1/4", "1/5"]])
    assert det(a) == F(1, 60)


def test_det_edge_cases():
    assert det(Matrix.zeros(0, 0)) == F(1)
    assert det(Matrix.of(QQ, [[7]])) == F(7)
    assert det(Matrix.of(QQ, [[1, 2], [2, 4]])) == F(0)
    with pytest.raises(ValueError):
        det(Matrix.zeros(2, 3))




def test_zero_leading_pivot_forces_row_swaps():
    b = Matrix.of(QQ, [[1, 0, "-7/3"], [2, "1/5", 0], [0, -1, 4]])
    for a in [
        Matrix.of(QQ, [[0, 2, "1/3"], ["-3/2", 1, 0], [5, 0, "7/4"]]),
        Matrix.of(QQ, [[0, 0, 2], [0, 3, 1], [5, 1, 1]]),    # third row swaps up, det -30
        Matrix.of(QQ, [[1, 2, 3], [2, 4, 5], [1, 0, 1]]),    # zero second pivot
    ]:
        inv, d = inv_det(a)
        assert d == det(a) == laplace_det(a) != 0
        assert inv.data == l_inv(a.data)
        assert solve(a, b).data == l_mul(l_inv(a.data), b.data)
    assert det(Matrix.of(QQ, [[0, 0, 2], [0, 3, 1], [5, 1, 1]])) == -30


def test_singular_paths():
    rng = random.Random("singular")
    c = rand_wide_matrix(rng, 3, 3)
    dependent = Matrix(QQ, c.data[:2] + [[2 * x - y for x, y in zip(*c.data[:2])]], 3)
    for a in [
        Matrix.of(QQ, [[1, 2], [2, 4]]),
        Matrix.of(QQ, [[0, 0], [0, 1]]),                     # zero first column
        Matrix.of(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]),    # no pivot at step 2
        Matrix.of(QQ, [["1/2", "1/3"], ["3/2", 1]]),         # last pivot is zero
        dependent,
        Matrix.zeros(2, 2),
    ]:
        assert inv_det(a) is None
        assert solve(a, Matrix.identity(a.rows)) is None
        assert det(a) == 0 == laplace_det(a)
        assert type(det(a)) is Fraction


def test_det_matches_laplace():
    rng = random.Random("det-oracle")
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = rand_matrix(rng, n, n, bound=6)
            assert det(a) == laplace_det(a)


def test_inv_det_properties():
    rng = random.Random("inv-props")
    checked = 0
    while checked < 12:
        n = rng.choice((1, 2, 3, 4))
        a = rand_matrix(rng, n, n, bound=8)
        res = inv_det(a)
        if res is None:
            continue
        inv, d = res
        assert d == det(a) != 0
        assert a @ inv == Matrix.identity(n)
        assert inv @ a == Matrix.identity(n)
        checked += 1


def test_solve_properties():
    rng = random.Random("solve-props")
    checked = 0
    while checked < 8:
        n = rng.choice((2, 3))
        a = rand_matrix(rng, n, n)
        if inv_det(a) is None:
            continue
        b = rand_matrix(rng, n, 2)
        x = solve(a, b)
        assert a @ x == b
        checked += 1
    assert solve(Matrix.zeros(0, 0), Matrix.zeros(0, 3)) == Matrix.zeros(0, 3)


def test_inv_det_and_solve_match_reference():
    rng = random.Random("inv-oracle")
    checked = 0
    while checked < 10:
        n = rng.choice((1, 2, 3, 4, 5))
        a = rand_wide_matrix(rng, n, n)
        want = l_inv(a.data)
        res = inv_det(a)
        if want is None:
            assert res is None and det(a) == 0
            continue
        inv, d = res
        assert inv.data == want
        assert d == laplace_det(a)
        b = rand_wide_matrix(rng, n, 3)
        assert solve(a, b).data == l_mul(want, b.data)
        checked += 1


def test_qq_results_are_fractions():
    # an int entry prints like a Fraction, but 1 / int is a float
    a = Matrix.of(QQ, [[2, 1], [1, 1]])
    b = Matrix.of(QQ, [[0, 1], [1, 0]])
    inv, d = inv_det(a)
    results = [a @ b, a @ a, solve(a, b), inv, kron(a, b), kron(b, a),
               tau_embed(2, a, (2, 2, 3)), scalar_matrix(3, 2), scalar_matrix(2, 0),
               Matrix.identity(2), direct_sum(a, b), a.add_scalar(2), a.add_scalar(F(1, 2))]
    assert all(all_fractions(m) for m in results)
    assert type(d) is Fraction and type(det(a)) is Fraction
    assert type(det(Matrix.zeros(0, 0))) is Fraction


# -- prime fields -------------------------------------------------------------


def test_prime_field_arithmetic():
    gf = PrimeField(97)
    assert gf.of(-1) == 96
    assert gf.of(F(1, 2)) == 49
    assert gf.mul(gf.of(F(1, 2)), 2) == 1
    assert gf.inv(3) * 3 % 97 == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.of(F(1, 97))


def test_prime_field_matches_rationals():
    rng = random.Random("gfp-agree")
    gf = PrimeField(97)
    for n in (2, 3):
        for _ in range(6):
            a = rand_int_matrix(rng, n, n, bound=20)
            ap = Matrix.of(gf, a.data)
            dq = det(a)
            assert det(ap) == gf.of(dq)
            res_q = inv_det(a)
            res_p = inv_det(ap)
            if res_q is not None and gf.of(dq) != 0:
                assert res_p is not None
                assert res_p[0] @ ap == Matrix.identity(n, gf)
            b = rand_int_matrix(rng, n, 2, bound=20)
            bp = Matrix.of(gf, b.data)
            xp = solve(ap, bp)
            if gf.of(dq) != 0:
                # the rational solution's denominators divide det, a unit mod p
                assert xp == Matrix.of(gf, solve(a, b).data)
                assert ap @ xp == bp
            else:
                assert xp is None
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
    for field in (QQ, gf):
        s = Matrix.of(field, singular)
        assert det(s) == field.zero
        assert inv_det(s) is None
        assert solve(s, Matrix.identity(3, field)) is None
        empty = Matrix.zeros(0, 0, field)
        assert det(empty) == field.one
        assert inv_det(empty) == (empty, field.one)
        assert solve(empty, Matrix.zeros(0, 3, field)) == Matrix.zeros(0, 3, field)


def test_prime_field_singularity_is_mod_p():
    gf = PrimeField(97)
    a = Matrix.of(gf, [[97, 0], [0, 1]])
    assert det(a) == 0
    assert inv_det(a) is None
    # the constructor reduces a raw residue of p to 0, so the pivot is 0
    raw = Matrix(gf, [[97, 1], [0, 1]])
    assert det(raw) == 0
    assert inv_det(raw) is None
    assert solve(raw, Matrix.identity(2, gf)) is None


def test_default_modulus_is_large_prime():
    gf = PrimeField()
    assert gf.p == (1 << 61) - 1
    a = Matrix.of(gf, [[1, 2], [3, 4]])
    inv, d = inv_det(a)
    assert d == gf.of(-2)
    assert inv @ a == Matrix.identity(2, gf)
