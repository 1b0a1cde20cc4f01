import cmath

import pytest

from ghzeta.characters import characters_mod, euler_phi
from oracles import primitive_characters_mod


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24])
def test_group_size_and_values(k):
    chars = characters_mod(k)
    assert len(chars) == euler_phi(k)
    for chi in chars:
        assert chi(1) == pytest.approx(1)
        for m in range(k):
            v = chi(m)
            if cmath.isclose(abs(v), 1, abs_tol=1e-12):
                continue
            assert v == 0
        assert k % chi.conductor == 0


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 12])
def test_multiplicativity(k):
    for chi in characters_mod(k):
        for m in range(k):
            for n in range(k):
                assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-12)


@pytest.mark.parametrize("k", [1, 3, 4, 5, 8, 12])
def test_orthogonality(k):
    chars = characters_mod(k)
    phi = euler_phi(k)
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            s = sum(ci(m) * cj(m).conjugate() for m in range(k))
            expect = phi if i == j else 0
            assert abs(s - expect) < 1e-12


def test_conductor_examples():
    chars = characters_mod(1)
    assert len(chars) == 1 and chars[0].conductor == 1
    chars = characters_mod(3)
    conds = sorted(c.conductor for c in chars)
    assert conds == [1, 3]
    chars = characters_mod(6)
    conds = sorted(c.conductor for c in chars)
    assert conds == [1, 3]
    # the induced character agrees with its mod-3 parent on coprime residues
    chi6 = next(c for c in chars if c.conductor == 3)
    chi3 = chi6.primitive_part()
    assert chi3.modulus == 3
    for m in (1, 5, 7, 11):
        assert chi6(m) == pytest.approx(chi3(m), abs=1e-12)


def test_closure_under_multiplication():
    chars = characters_mod(8)
    tables = {c.angles for c in chars}
    for a in chars:
        for b in chars:
            product = tuple(None if x is None or y is None else (x + y) % 1
                            for x, y in zip(a.angles, b.angles))
            assert product in tables


def test_primitive_characters():
    prim4 = primitive_characters_mod(4)
    assert len(prim4) == 1
    chi4 = prim4[0]
    assert chi4(3) == pytest.approx(-1)
    assert chi4(2) == 0
    assert chi4.order == 2
    # mod 5: four characters, one induced from conductor 1, three primitive
    prim5 = primitive_characters_mod(5)
    assert len(prim5) == 3


def test_exact_cyclo_values():
    chi = next(c for c in characters_mod(5) if c.order == 4)
    z = chi.cyclo(2)
    assert complex(z) == pytest.approx(chi(2), abs=1e-12)
    prod = z * z.conjugate()
    assert prod == 1
