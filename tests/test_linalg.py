import random
from fractions import Fraction

import pytest

from conftest import PRIMES, rand_rational
from so3p.linalg import (
    Mat,
    _int_isometry_loop,
    _int_special_isometry,
    QExtElem,
    aplus,
    aprime,
    is_special_isometry,
    lambda_inverse,
    lambda_matrix,
    so2_form,
)
from so3p.padic import PadicApprox, canonical_units, values_agree
from so3p.quaternion import quat
from so3p.rotation import cardano_matrix, decompose_cardano, quat_to_rotation

F = Fraction


def test_mat_basics():
    a = Mat(((F(1), F(2)), (F(3), F(4))))
    b = Mat(((F(0), F(1)), (F(1), F(0))))
    assert a * b == Mat(((F(2), F(1)), (F(4), F(3))))
    assert a.transpose() == Mat(((F(1), F(3)), (F(2), F(4))))
    assert a.det() == -2
    assert a[1, 0] == 3
    assert Mat.identity(3) * a3x3() == a3x3()
    with pytest.raises(ValueError):
        Mat(((F(1), F(2)),))


def a3x3():
    return Mat(tuple(tuple(F(i * 3 + j + 1) for j in range(3)) for i in range(3)))


def test_det_sizes():
    assert a3x3().det() == 0
    m = Mat(
        (
            (F(2), F(0), F(1)),
            (F(1), F(1), F(0)),
            (F(0), F(3), F(1)),
        )
    )
    assert m.det() == 5
    rng = random.Random(4)
    for n in (2, 3):
        a = Mat(tuple(tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)))
        b = Mat(tuple(tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)))
        assert (a * b).det() == a.det() * b.det()


@pytest.mark.parametrize("p", PRIMES)
def test_lambda_identities(p):
    ctx = canonical_units(p)
    lam = lambda_matrix(ctx)
    assert lam.det() == -(p**2) * ctx.v**2
    assert lam * lambda_inverse(ctx) == Mat.identity(3)
    # Conjugating A+ by Lambda lands on -vp times the trace-zero norm form.
    lhs = lam.transpose() * aplus(ctx).gram() * lam
    assert lhs == aprime(ctx).gram().scale(F(-ctx.v * p))


def test_quadform_catalog():
    ctx = canonical_units(3)
    # diag(1, -v, p) and diag(-v, p, -vp) with v = -1, p = 3
    assert aplus(ctx).diag == (1, 1, 3)
    assert aprime(ctx).diag == (1, 3, 3)
    for d in ctx.so2_catalog().values():
        assert so2_form(ctx, d).diag == (1, d)
    with pytest.raises(ValueError):
        so2_form(ctx, F(5))


def test_is_special_isometry():
    ctx = canonical_units(3)
    form = so2_form(ctx, F(1))  # -v = 1 at p = 3
    rot = Mat(((F(0), F(1)), (F(-1), F(0))))
    assert is_special_isometry(rot, form)
    assert not is_special_isometry(rot.scale(F(2)), form)
    refl = Mat(((F(0), F(1)), (F(1), F(0))))  # det -1 preserves the form
    assert not is_special_isometry(refl, form)


@pytest.mark.parametrize("p", (3, 5, 13))
def test_qext_field_laws(p):
    # the product against the field structure of Q_p(sqrt(v)), with the
    # conjugate, norm and inverse written out here
    ctx = canonical_units(p)
    v = ctx.v
    rng = random.Random(p)

    def conj(x):
        return QExtElem(x.a, -x.b, v)

    def norm(x):
        return x.a * x.a - v * x.b * x.b

    def inverse(x):
        return QExtElem(x.a / norm(x), -x.b / norm(x), v)

    for _ in range(100):
        x = QExtElem(rand_rational(rng, p), rand_rational(rng, p), v)
        y = QExtElem(rand_rational(rng, p), rand_rational(rng, p), v)
        assert norm(x * y) == norm(x) * norm(y)
        assert conj(x * y) == conj(x) * conj(y)
        assert x * conj(x) == QExtElem(norm(x), F(0), v)
        assert x * inverse(x) == QExtElem(F(1), F(0), v)
        assert (x - y) + y == x and x * y == y * x


def rand_entry(rng, p):
    return F(0) if rng.random() < 0.2 else rand_rational(rng, p)


def rand_mat(rng, n, p=5):
    return Mat(tuple(tuple(rand_entry(rng, p) for _ in range(n)) for _ in range(n)))


def reference_product(a, b):
    """Row-by-column product in plain Fraction arithmetic."""
    n = a.n
    return tuple(
        tuple(sum((a[i, k] * b[k, j] for k in range(n)), F(0)) for j in range(n))
        for i in range(n)
    )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_integer_product_matches_fraction_reference(n):
    rng = random.Random(40 + n)
    for _ in range(60):
        a, b, c = rand_mat(rng, n), rand_mat(rng, n), rand_mat(rng, n)
        ab = a * b
        assert ab.rows == reference_product(a, b)
        assert all(type(e) is F for r in ab.rows for e in r)
        # the product keeps its integer form; chaining must not drift
        assert (ab * c).rows == reference_product(Mat(ab.rows), c)
        num, den = ab.integer_form()
        assert den > 0
        assert tuple(tuple(F(e, den) for e in r) for r in num) == ab.rows


def test_integer_form_is_reduced():
    m = Mat.from_numerators(((6, -4), (0, 2)), -10)
    assert m.rows == ((F(-3, 5), F(2, 5)), (F(0), F(-1, 5)))
    assert m.integer_form() == (((-3, 2), (0, -1)), 5)
    assert m.n == 2 and m == Mat(m.rows)
    assert Mat(m.rows).integer_form() == m.integer_form()


@pytest.mark.parametrize("p", PRIMES)
def test_integer_certificate_rejects_non_rotations(p):
    ctx = canonical_units(p)
    form = aplus(ctx)
    rot = cardano_matrix(ctx, (F(2, p), F(3), F(p, 7))).mat
    assert is_special_isometry(rot, form)
    assert is_special_isometry(Mat(rot.rows), form)
    minus = Mat.identity(3).scale(F(-1))
    assert minus.transpose() * form.gram() * minus == form.gram()
    assert not is_special_isometry(minus, form)  # preserves the form, det -1
    assert not is_special_isometry(rot.scale(F(-1)), form)
    assert not is_special_isometry(Mat.identity(3).scale(F(2)), form)  # form scaled by 4
    for i in range(3):
        for j in range(3):
            for delta in (F(1), F(1, p), F(p)):
                rows = [list(r) for r in rot.rows]
                rows[i][j] += delta
                assert not is_special_isometry(Mat(rows), form), (i, j, delta)



@pytest.mark.parametrize("p", PRIMES)
def test_unrolled_certificate_can_fail(p):
    # The unrolled 3x3 integer certificate against the loop it unrolls, on
    # certified matrices, on every single-entry +-1 change to N or D, and
    # on -I and diag(1, 1, -1), which preserve the form with det -1.
    ctx = canonical_units(p)
    g = aplus(ctx)._integer_diag
    rng = random.Random(61 + p)
    cases = [
        (((-1, 0, 0), (0, -1, 0), (0, 0, -1)), 1, False),
        (((1, 0, 0), (0, 1, 0), (0, 0, -1)), 1, False),
        (((3, 0, 0), (0, 3, 0), (0, 0, -3)), 3, False),
    ]
    for _ in range(8):
        t = tuple(rand_rational(rng, p) for _ in range(3))
        num, den = cardano_matrix(ctx, t).mat.integer_form()
        cases.append((num, den, True))
        cases.append((num, -den, False))  # det N = -D^3
        for delta in (1, -1):
            cases.append((num, den + delta, False))
            for i in range(3):
                for j in range(3):
                    rows = [list(r) for r in num]
                    rows[i][j] += delta
                    cases.append((rows, den, False))
    for num, den, certified in cases:
        assert _int_special_isometry(num, den, g) is certified, (num, den)
        assert _int_isometry_loop(num, den, g) is certified, (num, den)


def test_padic_entries_take_generic_path():
    p = 5
    x = PadicApprox.from_rational(F(3, 7), p, 6)
    z = PadicApprox.zero(p, 4)  # zero known only modulo 5^4
    a = Mat(((x, F(1)), (z, F(0))))
    b = Mat(((F(2), F(1, 5)), (F(-1), F(3))))
    assert a.integer_form() is None
    assert b.integer_form() is not None
    prod = a * b
    assert prod == Mat(((x * 2 + F(-1), x * F(1, 5) + F(3)), (z * 2, z * F(1, 5))))
    # a capped-precision zero keeps its knowledge bound through the product
    assert isinstance(prod[1, 0], PadicApprox) and prod[1, 0].is_zero
    assert prod[1, 0].abs_known == 4 and prod[1, 1].abs_known == 3
    assert prod.integer_form() is None


@pytest.mark.parametrize("p", (3, 7))
def test_padic_certificate_takes_generic_path(p):
    ctx = canonical_units(p)
    rot = cardano_matrix(ctx, (F(1), F(p), F(2, 3))).mat
    approx = Mat(tuple(tuple(PadicApprox.from_rational(e, p, 10) for e in r) for r in rot.rows))
    assert approx.integer_form() is None
    assert is_special_isometry(approx, aplus(ctx))
    rows = [list(r) for r in approx.rows]
    rows[0][0] = rows[0][0] + F(1)
    assert not is_special_isometry(Mat(rows), aplus(ctx))
    # one digit changed in place, and a row negated: that preserves the
    # diagonal form but makes det -1
    e = approx.rows[1][2]
    digit = e.digits()[5]
    rows = [list(r) for r in approx.rows]
    rows[1][2] = PadicApprox(p=p, val=e.val, mant=e.mant + ((digit + 1) % p - digit) * p**5, n=e.n)
    assert not is_special_isometry(Mat(rows), aplus(ctx))
    rows = [[-e for e in approx.rows[0]], *approx.rows[1:]]
    assert values_agree(Mat(rows).det(), F(-1))
    assert not is_special_isometry(Mat(rows), aplus(ctx))


def recursive_det(rows):
    """Laplace expansion along the first row, recursing to 2x2: the
    reference for the unrolled 3x3 determinant."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        term = rows[0][j] * recursive_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("p", PRIMES)
def test_unrolled_det_keeps_every_capped_digit(p):
    # Capped matrices from the Cardano chart at Hensel-path angles: their
    # determinants are 1 to a precision set by cancellation in the very
    # products and sums the expansion performs, so a reordered formula
    # would show up as different (val, mant, n).
    ctx = canonical_units(p)
    rng = random.Random(811 + p)
    capped = 0
    while capped < 8:
        x = quat(ctx, *(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
        if x.is_zero:
            continue
        r = quat_to_rotation(x)
        assert r.mat.det() == recursive_det(r.mat.rows) == 1
        num, den = r.mat.integer_form()
        assert recursive_det(num) == r.mat.det() * den**3
        angles = decompose_cardano(r, precision=rng.choice((6, 12, 20)))
        if all(isinstance(t, Fraction) for t in angles):
            continue
        m = cardano_matrix(ctx, angles).mat
        assert m.integer_form() is None
        got, expected = m.det(), recursive_det(m.rows)
        assert isinstance(got, PadicApprox)
        assert (got.val, got.mant, got.n) == (expected.val, expected.mant, expected.n)
        capped += 1


def capped_entry(rng, p):
    r = rng.random()
    if r < 0.1:
        return PadicApprox.zero(p, rng.randint(0, 6))
    if r < 0.25:
        return F(rng.randint(-20, 20), rng.choice((1, 1, p, p * p)))
    x = F(rng.randint(1, 400), rng.randint(1, 50)) * F(p) ** rng.randint(-2, 3)
    return PadicApprox.from_rational(x, p, rng.randint(1, 10))


@pytest.mark.parametrize("p", PRIMES)
def test_unrolled_det_on_mixed_precision_matrices(p):
    # Entries of unequal precision and valuation, capped zeros and exact
    # entries: here a determinant expanded in another way, such as fully
    # distributed products, knows a different number of digits.
    rng = random.Random(823 + p)
    for _ in range(200):
        rows = tuple(tuple(capped_entry(rng, p) for _ in range(3)) for _ in range(3))
        got, expected = Mat(rows).det(), recursive_det(rows)
        assert type(got) is type(expected)
        if isinstance(got, PadicApprox):
            assert (got.val, got.mant, got.n) == (expected.val, expected.mant, expected.n)
        else:
            assert got == expected


def test_catalog_lookup_accepts_equal_numbers_only():
    ctx = canonical_units(7)
    for d in ctx.so2_catalog().values():
        assert so2_form(ctx, d).diag == (F(1), d)
    assert so2_form(ctx, 7) is so2_form(ctx, F(7))
    for bad in (F(2), "7", [7], PadicApprox.from_rational(F(7), 7, 4)):
        with pytest.raises(ValueError, match="outside the catalog"):
            so2_form(ctx, bad)
