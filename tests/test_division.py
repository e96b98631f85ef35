from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.division import DIVISIONS
from dualpairs.rational import mul, transpose

H = DIVISIONS["H"]
C = DIVISIONS["C"]
R = DIVISIONS["R"]

I, J, K = H.unit(1), H.unit(2), H.unit(3)
ONE = H.unit(0)


def quat(ints):
    return tuple(Fraction(v) for v in ints)


def test_quaternion_table():
    assert H.mul(I, I) == H.mul(J, J) == H.mul(K, K) == quat([-1, 0, 0, 0])
    assert H.mul(I, J) == K
    assert H.mul(J, K) == I
    assert H.mul(K, I) == J
    assert H.mul(J, I) == quat([0, 0, 0, -1])


def test_complex_table():
    i = C.unit(1)
    assert C.mul(i, i) == (Fraction(-1), Fraction(0))
    assert C.conj(i) == (Fraction(0), Fraction(-1))
    assert R.mul((Fraction(3),), (Fraction(4),)) == (Fraction(12),)


elem = st.tuples(*([st.integers(-5, 5).map(Fraction)] * 4))


@settings(max_examples=40, deadline=None)
@given(elem, elem)
def test_conj_antiautomorphism(x, y):
    assert H.conj(H.mul(x, y)) == H.mul(H.conj(y), H.conj(x))


@settings(max_examples=40, deadline=None)
@given(elem, elem)
def test_norm_multiplicative(x, y):
    def norm(z):
        return sum(c * c for c in z)
    assert norm(H.mul(x, y)) == norm(x) * norm(y)


@settings(max_examples=30, deadline=None)
@given(elem, elem)
def test_lmat_rmat_represent_multiplication(x, y):
    column = transpose([list(y)])
    assert tuple(transpose(mul(H.lmat(x), column))[0]) == H.mul(x, y)
    assert tuple(transpose(mul(H.rmat(x), column))[0]) == H.mul(y, x)


@settings(max_examples=30, deadline=None)
@given(elem, elem)
def test_left_right_multiplications_commute(x, y):
    # associativity x*(z*y) = (x*z)*y in matrix form
    assert mul(H.lmat(x), H.rmat(y)) == mul(H.rmat(y), H.lmat(x))
