import random

import pytest

from mcgcocycles import (
    FreeGroup,
    abelianize,
    compose,
    dual,
    induced_matrix,
    inner,
    intersection,
    is_symplectic,
    jablow,
    mat_vec,
    random_element,
    random_word,
    symplectic_inverse,
    twist_catalog,
)

from matrix_oracle import (
    adjugate,
    det,
    identity_matrix,
    invert_unimodular,
    mat_mul,
    symplectic_form,
    transpose,
)


def test_abelianize_examples():
    F = FreeGroup(2)
    assert abelianize(F.word("A1 B1 a1 b1")) == (0, 0, 0, 0)
    assert abelianize(F.word("A1 A1 b2")) == (2, 0, 0, -1)
    assert abelianize(F.zeta()) == (0, 0, 0, 0)


def test_abelianize_x_b_inverse():
    for g in (2, 3, 5):
        F = FreeGroup(g)
        xb = F.identity()
        for ell in range(g, 0, -1):
            xb = xb * F.b(ell)
        assert abelianize(xb.inverse()) == (0,) * g + (-1,) * g


def test_abelianize_is_a_homomorphism_randomized():
    rng = random.Random(314)
    for _ in range(1000):
        F = FreeGroup(rng.randint(2, 5))
        x = random_word(F, rng.randint(0, 50), rng)
        y = random_word(F, rng.randint(0, 50), rng)
        assert abelianize(x * y) == tuple(
            a + b for a, b in zip(abelianize(x), abelianize(y))
        )
        assert abelianize(x.inverse()) == tuple(-a for a in abelianize(x))


def test_intersection_basis_values():
    F = FreeGroup(3)
    th = lambda w: abelianize(w)
    for i in range(1, 4):
        for j in range(1, 4):
            assert intersection(th(F.a(i)), th(F.b(j))) == (1 if i == j else 0)
            assert intersection(th(F.a(i)), th(F.a(j))) == 0
            assert intersection(th(F.b(i)), th(F.b(j))) == 0


def test_intersection_matches_form_matrix():
    rng = random.Random(88)
    for g in (2, 3, 4):
        J = symplectic_form(g)
        for _ in range(50):
            x = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            y = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            assert intersection(x, y) == sum(
                x[i] * mat_vec(J, y)[i] for i in range(2 * g)
            )
            assert intersection(x, y) == -intersection(y, x)


def test_intersection_shape_check():
    with pytest.raises(ValueError):
        intersection((1, 0), (1, 0, 0, 0))


def test_dual_pairing_property():
    # dual(lam) . v == lam(v) for the functional with those generator values
    rng = random.Random(5)
    for g in (2, 3, 5):
        for _ in range(50):
            lam = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            v = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            assert intersection(dual(lam), v) == sum(
                lam[i] * v[i] for i in range(2 * g)
            )


def test_dual_example():
    # values 4 + 2(g-k) on A_k and -2 on B_k at g = 3
    lam = (8, 6, 4, -2, -2, -2)
    assert dual(lam) == (-2, -2, -2, -8, -6, -4)


def test_induced_matrix_columns():
    F = FreeGroup(2)
    phi = inner(F.a(1))
    assert induced_matrix(phi) == identity_matrix(4)
    t = twist_catalog(F)[0]  # A1 -> A1 B1
    m = induced_matrix(t)
    # column 0 is the class of A1 B1
    assert tuple(m[i][0] for i in range(4)) == (1, 0, 1, 0)


def test_induced_matrix_functorial_randomized():
    rng = random.Random(21)
    for g in (2, 3):
        F = FreeGroup(g)
        for k in range(20):
            p1 = random_element(F, 3, seed=rng.randrange(1 << 30))
            p2 = random_element(F, 3, seed=rng.randrange(1 << 30))
            assert induced_matrix(compose(p1, p2)) == mat_mul(
                induced_matrix(p1), induced_matrix(p2)
            )


def test_symplectic_checks():
    for g in (2, 3, 4):
        F = FreeGroup(g)
        assert is_symplectic(identity_matrix(2 * g))
        assert is_symplectic(induced_matrix(jablow(F)))
        for t in twist_catalog(F):
            assert is_symplectic(induced_matrix(t))
    not_sp = tuple(
        tuple(2 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert not is_symplectic(not_sp)


def test_is_symplectic_matches_the_matrix_definition():
    # m^T J m == J by matrix products, on actions, perturbed actions and noise
    rng = random.Random(4)
    for g in (2, 3, 4, 5):
        F = FreeGroup(g)
        J = symplectic_form(g)
        for k in range(20):
            m = induced_matrix(random_element(F, 4, seed=rng.randrange(1 << 30)))
            bumped = [list(row) for row in m]
            bumped[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice((-1, 1, 2))
            noise = [[rng.randint(-1, 1) for _ in range(2 * g)] for _ in range(2 * g)]
            for cand in (m, bumped, noise):
                cand = tuple(map(tuple, cand))
                want = mat_mul(mat_mul(transpose(cand), J), cand) == J
                assert is_symplectic(cand) == want


def _symplectic_product(g, steps, sizes, rng):
    """A product of elementary symplectic matrices that mix the handles.

    Each step is [[I, S], [0, I]] or [[I, 0], [S, I]] with S symmetric, or
    [[A, 0], [0, A^-T]] with A = I + k e_ij, for a random k with |k| in sizes.
    """
    n = 2 * g
    m = identity_matrix(n)
    for _ in range(steps):
        step = [[int(i == j) for j in range(n)] for i in range(n)]
        i, j = rng.randrange(g), rng.randrange(g)
        k = rng.choice((-1, 1)) * rng.choice(sizes)
        kind = rng.randrange(3)
        if kind == 0:
            step[i][g + j] += k
            step[j][g + i] += k if i != j else 0
        elif kind == 1:
            step[g + i][j] += k
            step[g + j][i] += k if i != j else 0
        elif i != j:
            step[i][j] += k
            step[g + j][g + i] -= k
        m = mat_mul(m, tuple(map(tuple, step)))
    return m


def _by_products(m):
    g = len(m) // 2
    return mat_mul(transpose(m), mat_mul(symplectic_form(g), m)) == symplectic_form(g)


def _bumped(m):
    """m with one entry moved by +-1, for every entry and both signs."""
    for i, row in enumerate(m):
        for j in range(len(row)):
            for step in (-1, 1):
                yield m[:i] + (row[:j] + (row[j] + step,) + row[j + 1:],) + m[i + 1:]


def test_is_symplectic_on_handle_mixing_products():
    rng = random.Random(1729)
    for g in range(2, 9):
        for _ in range(6):
            m = _symplectic_product(g, 3 * g, (1, 2, 3), rng)
            assert is_symplectic(m) and _by_products(m)
            if g <= 3:
                for cand in _bumped(m):
                    assert is_symplectic(cand) == _by_products(cand)


def test_is_symplectic_with_entries_near_a_billion():
    rng = random.Random(613)
    for g in (2, 3, 4):
        for _ in range(4):
            m = _symplectic_product(g, 4, range(10**9 - 99, 10**9 + 100), rng)
            assert max(abs(v) for row in m for v in row) > 10**9 - 100
            assert is_symplectic(m)
            for cand in _bumped(m):
                assert is_symplectic(cand) == _by_products(cand)


def test_is_symplectic_does_not_alias_across_fields():
    """Matrices whose rows of m^T J m - J all vanish when read in base 2^k.

    With x = 2^k, the first has entries of size up to x - 1 and
    m^T J m - J = x^2 E01 - x E02 + E12 (Eab the antisymmetric unit at
    a, b); the second is diag(A, D) with A = [[-x, 1], [1, 0]] and
    D = [[x, 0], [1, x]], so A^T D - I = [[-x^2, x], [x, -1]].  Fields
    k bits wide, as wide as the entries of m rather than their squares,
    would call each of them symplectic.
    """
    for k in range(2, 64):
        x = 1 << k
        mixed = ((1 - x, 2, 0, 0), (2 - x, 1, -1, 1), (1 - x, 1 - x, 0, 1), (1 - x, 1, 0, 0))
        diagonal = ((-x, 1, 0, 0), (1, 0, 0, 0), (0, 0, x, 0), (0, 0, 1, x))
        for m in (mixed, diagonal):
            assert not _by_products(m)
            assert not is_symplectic(m)


def test_det_and_adjugate():
    m = ((2, 3), (1, 4))
    assert det(m) == 5
    assert adjugate(m) == ((4, -3), (-1, 2))
    assert det(identity_matrix(6)) == 1
    singular = ((1, 2), (2, 4))
    assert det(singular) == 0


def test_invert_unimodular_rejects_other_determinants():
    diag_2111 = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for m in (((2, 0), (0, 1)), ((1, 2), (2, 4)), diag_2111):
        with pytest.raises(ValueError):
            invert_unimodular(m)
        # the closed form rejects them too
        with pytest.raises(ValueError):
            symplectic_inverse(m)


def test_symplectic_inverse_rejects_unimodular_non_symplectic():
    # the g = 2 shear A2 -> A1 + A2 has determinant 1 but is not symplectic,
    # and -J m^T J is not its inverse
    m = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert det(m) == 1 and not is_symplectic(m)
    J = symplectic_form(2)
    minus_J = tuple(tuple(-x for x in row) for row in J)
    assert mat_mul(mat_mul(minus_J, transpose(m)), J) != invert_unimodular(m)
    with pytest.raises(ValueError):
        symplectic_inverse(m)


def test_invert_unimodular_randomized_and_symplectic_closed_form():
    # the closed form against the adjugate inverse and the certified inverse images
    rng = random.Random(1001)
    for g in (2, 3, 4, 5, 6):
        F = FreeGroup(g)
        J = symplectic_form(g)
        minus_J = tuple(tuple(-x for x in row) for row in J)
        eye = identity_matrix(2 * g)
        for k in range(15):
            p = random_element(F, 4, seed=rng.randrange(1 << 30))
            m = induced_matrix(p)
            inv = invert_unimodular(m)
            assert mat_mul(m, inv) == eye
            assert mat_mul(inv, m) == eye
            assert is_symplectic(m)
            closed_form = mat_mul(mat_mul(minus_J, transpose(m)), J)
            assert inv == closed_form
            assert symplectic_inverse(m) == inv == induced_matrix(p.backward)


def test_invert_unimodular_det_minus_one():
    # swap two basis vectors: determinant -1
    m = ((0, 1), (1, 0))
    assert invert_unimodular(m) == m
    neg = tuple(
        tuple(-1 if i == j else 0 for j in range(6)) for i in range(6)
    )
    assert invert_unimodular(neg) == neg


def test_shapes_that_fit_no_genus_are_refused():
    with pytest.raises(ValueError, match="^odd length 3$"):
        dual((1, 2, 3))
    with pytest.raises(ValueError, match="^shape mismatch$"):
        mat_vec(((1, 2), (3, 4)), (1, 2, 3))
    # J with a third column, and a 1 x 1 matrix: the packed test alone would pass both
    assert is_symplectic(((0, 1, 5), (-1, 0, 7))) is False
    assert is_symplectic(((1,),)) is False


def test_a_matrix_with_no_rows_sends_every_vector_to_the_empty_one():
    assert mat_vec((), ()) == ()
    assert mat_vec((), (1, 2)) == ()


@pytest.mark.parametrize("g", [2, 5, 64])
def test_symplectic_inverse_returns_plus_and_minus_identity_unchanged(g):
    eye = identity_matrix(2 * g)
    minus = tuple(tuple(-x for x in row) for row in eye)
    for m in (eye, minus):
        assert symplectic_inverse(m) is m
        assert is_symplectic(m)
        if g < 64:
            J = symplectic_form(g)
            minus_J = tuple(tuple(-x for x in row) for row in J)
            assert mat_mul(mat_mul(minus_J, transpose(m)), J) == m
            assert mat_mul(m, m) == eye


@pytest.mark.parametrize("g", [2, 5, 64])
def test_symplectic_inverse_refuses_what_is_close_to_plus_or_minus_identity(g):
    n = 2 * g
    eye = identity_matrix(n)
    twice = tuple(tuple(2 * x for x in row) for row in eye)
    e01 = (tuple(int(j < 2) for j in range(n)),) + eye[1:]
    # the sign of A_1 kept and of B_1 flipped: diagonal, but not symplectic
    flipped = eye[:g] + (tuple(-x for x in eye[g]),) + eye[g + 1:]
    for m in (twice, e01, flipped, eye[:-1], eye[:-1] + (eye[-1] + (2,),)):
        with pytest.raises(ValueError):
            symplectic_inverse(m)
    # float entries still reach the packed test, which cannot shift them
    for m in (tuple(tuple(float(x) for x in row) for row in eye),
              eye[:-1] + (eye[-1][:-2] + (0.0, 1),)):
        with pytest.raises((AttributeError, TypeError)):
            symplectic_inverse(m)
    with pytest.raises(ValueError):
        symplectic_inverse(((1,),))
