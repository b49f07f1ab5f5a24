import itertools
import random

import pytest

from hgl.gf import GF, MatrixGF, make_field
from hgl.perm import CapExceeded


def test_f4_is_the_paper_field():
    f4 = make_field(2, 2)
    w = f4.x()
    # w^2 + w + 1 = 0
    assert f4.add(f4.add(f4.mul(w, w), w), 1) == 0
    assert [f4.element_str(a) for a in f4.elements()] == ["0", "1", "w", "w2"]
    assert f4.conj(w) == f4.mul(w, w)  # the involution x -> x^2


def test_prime_field():
    f7 = make_field(7, 1)
    assert f7.q == 7
    assert all(f7.mul(a, f7.inv(a)) == 1 for a in f7.nonzero())
    assert f7.frobenius(3) == 3**7 % 7


def test_f9_frobenius_order_two():
    f9 = make_field(3, 2)
    x = f9.x()
    assert f9.frobenius(x) != x
    for a in f9.elements():
        assert f9.frobenius(f9.frobenius(a)) == a


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)])
def test_field_axioms_exhaustive_small(p, e):
    f = make_field(p, e)
    if f.q <= 16:
        triples = itertools.product(f.elements(), repeat=3)
    else:
        rng = random.Random(11)
        triples = (
            (rng.randrange(f.q), rng.randrange(f.q), rng.randrange(f.q))
            for _ in range(500)
        )
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


def test_frobenius_is_automorphism():
    for p, e in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        f = make_field(p, e)
        for a in f.elements():
            for b in f.elements():
                assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
                assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


def test_field_caps_and_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(CapExceeded, match="field size 131072 exceeds cap 65536"):
        make_field(2, 17)  # 2^17 > 2^16


def test_matrix_inverse_and_det():
    f4 = make_field(2, 2)
    m = MatrixGF.from_strings(f4, [["1", "w"], ["0", "w2"]])
    assert f4.element_str(m.det()) == "w2"
    assert m * m.inverse() == MatrixGF.identity(f4, 2)
    singular = MatrixGF.from_strings(f4, [["1", "w"], ["w2", "1"]])
    assert singular.det() == 0
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_matrix_det_multiplicative():
    f9 = make_field(3, 2)
    rng = random.Random(5)
    for _ in range(30):
        a = MatrixGF(f9, [[rng.randrange(9) for _ in range(3)] for _ in range(3)])
        b = MatrixGF(f9, [[rng.randrange(9) for _ in range(3)] for _ in range(3)])
        assert (a * b).det() == f9.mul(a.det(), b.det())


def test_rref_canonical():
    f4 = make_field(2, 2)
    m = MatrixGF.from_strings(f4, [["w", "w2", "1", "0"], ["w2", "1", "0", "1"]])
    r = m.rref()
    # scaling rows gives the same RREF
    w = f4.x()
    scaled = MatrixGF(f4, [[f4.mul(w, x) for x in row] for row in m.rows])
    assert scaled.rref() == r


def test_serialization_roundtrip():
    f4 = make_field(2, 2)
    m = MatrixGF.from_strings(f4, [["0", "1"], ["w", "w2"]])
    assert MatrixGF.from_strings(f4, m.to_strings()) == m
