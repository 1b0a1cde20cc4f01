import cmath
from fractions import Fraction

from ghzeta.cyclo import Cyclo, cyclotomic_poly


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_arithmetic():
    i = Cyclo.root_of_unity(1, 4)
    assert (i * i) == Cyclo.from_rational(-1)
    z3 = Cyclo.root_of_unity(1, 3)
    assert (Cyclo.from_rational(1) + z3 + z3 * z3).is_zero()
    z = Cyclo.root_of_unity(5, 12)
    assert complex(z) == cmath.exp(2j * cmath.pi * 5 / 12) or abs(
        complex(z) - cmath.exp(2j * cmath.pi * 5 / 12)
    ) < 1e-12


def test_mixed_orders_and_conjugate():
    i = Cyclo.root_of_unity(1, 4)
    z3 = Cyclo.root_of_unity(1, 3)
    w = i * z3
    assert abs(complex(w) - cmath.exp(2j * cmath.pi * (1 / 4 + 1 / 3))) < 1e-12
    assert (w * w.conjugate()) == 1
    assert w.conjugate().conjugate() == w


def test_rational_embedding_and_scaling():
    half = Cyclo.from_rational(Fraction(1, 2))
    gauss = Cyclo.from_rational(Fraction(1, 3), Fraction(2, 7))
    total = half + gauss
    z = complex(total)
    assert abs(z - complex(1 / 2 + 1 / 3, 2 / 7)) < 1e-12
    assert total.scale(Fraction(7)).scale(Fraction(1, 7)) == total


def test_zero_detection_nontrivial():
    # 1 + z5 + z5^2 + z5^3 + z5^4 = 0 in a redundant representation
    z5 = Cyclo.root_of_unity(1, 5)
    acc = Cyclo.from_rational(1)
    power = Cyclo.from_rational(1)
    for _ in range(4):
        power = power * z5
        acc = acc + power
    assert acc.is_zero()
    assert not (acc + 1).is_zero()


def test_float_values_are_exact_dyadics():
    c = Cyclo.from_complex_exact(0.75 + 0.5j)
    assert c == Cyclo.from_rational(Fraction(3, 4), Fraction(1, 2))


def test_quarter_turns_realize_exactly():
    assert [complex(Cyclo.root_of_unity(k, 4)) for k in range(4)] == [1, 1j, -1, -1j]
    assert complex(Cyclo(8, (0,) * 6 + (Fraction(3), 0))) == -3j
    assert complex(Cyclo(12, (0, 0, 0, 1) + (0,) * 8)) == 1j
    assert complex(Cyclo.root_of_unity(1, 8)) == cmath.exp(2j * cmath.pi / 8)
