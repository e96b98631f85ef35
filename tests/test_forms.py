import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs import (AdmissibleTableau, BadShape, DomainError,
                       MismatchedType, NotEmbeddable, FormedSpace,
                       complex_orthogonal_space, complex_symplectic_space,
                       complexify, direct_sum, embeds, formed_space,
                       hermitian_space, isometry_group, iter_spaces,
                       orth_complement, orthogonal_space,
                       quaternionic_hermitian_space, quaternionic_skew_space,
                       skew_hermitian_space, symplectic_space,
                       tensor_with_sl2)
from dualpairs import forms
from helpers import (raised_twice, ref_direct_sum, ref_embeds,
                     ref_orth_complement, ref_tensor_with_sl2)


def all_spaces(bound=6):
    return list(iter_spaces(bound))


def test_kind_classification():
    assert orthogonal_space(2, 1).kind == "sig"
    assert hermitian_space(1, 1).kind == "sig"
    assert skew_hermitian_space(1, 0).kind == "sig"
    assert quaternionic_hermitian_space(1, 0).kind == "sig"
    assert symplectic_space(2).kind == "dim"
    assert quaternionic_skew_space(1).kind == "dim"
    assert complex_orthogonal_space(3).kind == "dim"
    assert complex_symplectic_space(2).kind == "dim"


def test_dim_f():
    assert orthogonal_space(2, 1).dim_f == 3
    assert hermitian_space(1, 1).dim_f == 4
    assert quaternionic_skew_space(1).dim_f == 4
    assert complex_orthogonal_space(3).dim_f == 3


def test_constructor_rejections():
    with pytest.raises(BadShape):
        formed_space("R", "R", -1, dim=3)  # odd symplectic
    with pytest.raises(BadShape):
        formed_space("C", "C", -1, dim=3)
    with pytest.raises(BadShape):
        formed_space("R", "R", 1, dim=3)  # needs a signature
    with pytest.raises(BadShape):
        formed_space("C", "C", 1, signature=(2, 1))
    with pytest.raises(BadShape):
        formed_space("C", "R", 1, dim=2)
    with pytest.raises(BadShape):
        formed_space("R", "R", 1, signature=(2, -1))
    with pytest.raises(BadShape):
        formed_space("R", "R", 2, signature=(1, 0))


def test_json_round_trip():
    for v in all_spaces(6):
        assert FormedSpace.from_json(v.to_json()) == v
    one = "exactly one of 'signature'/'dim' must be present"
    cases = [
        ({"base": "R", "division": "R", "epsilon": 1}, one),
        ({"base": "R", "division": "R", "epsilon": 1,
          "signature": [1, 0], "dim": 1}, one),
        # a BadShape of the space comes back as a ValueError
        ({"base": "R", "division": "R", "epsilon": -1, "dim": 3},
         "symplectic type requires even dimension"),
        ({"base": "R", "division": "R", "epsilon": 1.0, "dim": 1},
         "epsilon must be an integer, got 1.0"),
        ({"base": "R", "division": "R", "epsilon": 1, "signature": [1]},
         "signature must be a list [p, q]"),
        ({"base": 1, "division": "R", "epsilon": 1, "dim": 1},
         "base and division must be strings"),
        ({"base": "R", "division": "R", "epsilon": 1, "rank": 1},
         "unknown formed space fields ['rank']"),
        ({"base": "R", "division": "R"},
         "formed space missing field 'epsilon'"),
        ([], "formed space must be a JSON object"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FormedSpace.from_json(obj)
    with pytest.raises(ValueError, match="^tableau rows must be a list$"):
        AdmissibleTableau.from_json({"space": orthogonal_space(1, 0).to_json(),
                                     "rows": {}})


def test_direct_construction_needs_a_tuple_signature():
    # a list would make the frozen space unhashable; formed_space takes one.
    # A tuple of another length, or with a non-int entry, is refused too,
    # and so is a dim that is not an int
    for sig in ([1, 1], (1, 1, 0), ("1", 1), (True, 1), (1.5, 0.5)):
        with pytest.raises(BadShape, match=re.escape(
                "signature must be a tuple (p, q) of ints")):
            FormedSpace("R", "R", 1, sig, 2)
    for args in (("C", "C", 1, None, 2.7), ("C", "C", 1, None, True),
                 ("R", "R", 1, (1, 1), 2.0)):
        with pytest.raises(BadShape, match="^dimension must be an int$"):
            FormedSpace(*args)
    assert formed_space("R", "R", 1, signature=[1, 1]) == \
        FormedSpace("R", "R", 1, (1, 1), 2)


def test_direct_sum_and_complement():
    a = orthogonal_space(1, 2)
    b = orthogonal_space(2, 1)
    s = direct_sum(a, b)
    assert s.signature == (3, 3)
    assert orth_complement(a, s) == b
    with pytest.raises(NotEmbeddable, match="^no isometric embedding$"):
        orth_complement(orthogonal_space(4, 0), s)
    with pytest.raises(MismatchedType, match=re.escape(
            "spaces have different (base, division, epsilon)")):
        direct_sum(a, symplectic_space(2))


def test_embeds_witt():
    assert embeds(orthogonal_space(1, 1), orthogonal_space(2, 1))
    assert not embeds(orthogonal_space(2, 0), orthogonal_space(1, 3))
    assert embeds(symplectic_space(2), symplectic_space(4))
    assert not embeds(complex_orthogonal_space(3), complex_orthogonal_space(2))


def test_tensor_with_sl2_examples():
    # odd tensor length keeps the form type
    assert tensor_with_sl2(orthogonal_space(1, 0), 3) == orthogonal_space(2, 1)
    # even length flips it; symplectic times a 2-string is split orthogonal
    assert tensor_with_sl2(orthogonal_space(1, 0), 2) == symplectic_space(2)
    assert tensor_with_sl2(symplectic_space(2), 2) == orthogonal_space(2, 2)
    assert tensor_with_sl2(hermitian_space(1, 0), 2) == skew_hermitian_space(1, 1)
    assert tensor_with_sl2(complex_symplectic_space(2), 3) == \
        complex_symplectic_space(6)
    assert tensor_with_sl2(complex_orthogonal_space(1), 2) == \
        complex_symplectic_space(2)
    with pytest.raises(BadShape, match="^tensor length must be positive$"):
        tensor_with_sl2(orthogonal_space(1, 0), 0)


def _outcome(call, *args):
    """call(*args), or the code of the domain error it raises."""
    try:
        return call(*args)
    except DomainError as exc:
        return exc.code


def test_arithmetic_matches_the_branchy_reference():
    # every ordered pair of same-type spaces with dim_F <= 6, zero included:
    # the arithmetic on (p, n) agrees with one branch per classification,
    # results and error codes alike
    spaces = list(iter_spaces(6, include_zero=True))
    pairs = [(a, b) for a in spaces for b in spaces if a.tag() == b.tag()]
    for new, ref in ((direct_sum, ref_direct_sum), (embeds, ref_embeds),
                     (orth_complement, ref_orth_complement)):
        for a, b in pairs:
            assert _outcome(new, a, b) == _outcome(ref, a, b), \
                (new.__name__, a.render(), b.render())
    for a in spaces:
        for m in range(1, 5):
            assert tensor_with_sl2(a, m) == ref_tensor_with_sl2(a, m), \
                (a.render(), m)
    assert any(_outcome(orth_complement, a, b) == "not_embeddable"
               for a, b in pairs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(all_spaces(4)), st.integers(1, 4))
def test_tensor_dimension_and_type(v, m):
    w = tensor_with_sl2(v, m)
    assert w.dim == v.dim * m
    assert w.epsilon == v.epsilon * (-1) ** (m - 1)
    assert (w.base, w.division) == (v.base, v.division)


def test_complexify_table():
    assert complexify(orthogonal_space(2, 1)) == complex_orthogonal_space(3)
    assert complexify(symplectic_space(4)) == complex_symplectic_space(4)
    assert complexify(quaternionic_hermitian_space(1, 1)) == \
        complex_symplectic_space(4)
    assert complexify(quaternionic_skew_space(2)) == complex_orthogonal_space(4)
    assert complexify(complex_orthogonal_space(3)) == complex_orthogonal_space(3)
    with pytest.raises(MismatchedType, match="^division C spaces have no "
                                             "formed complexification$"):
        complexify(hermitian_space(1, 1))


def test_complexify_preserves_lie_dim():
    for v in all_spaces(6):
        if v.base == "R" and v.division in ("R", "H"):
            assert isometry_group(v).lie_dim == \
                isometry_group(complexify(v)).lie_dim


def test_group_names_and_dims():
    cases = [
        (orthogonal_space(2, 1), "O(2,1)", 3),
        (orthogonal_space(3, 0), "O(3)", 3),
        (symplectic_space(4), "Sp(4,R)", 10),
        (hermitian_space(2, 1), "U(2,1)", 9),
        (skew_hermitian_space(1, 1), "U(1,1)", 4),
        (quaternionic_hermitian_space(1, 1), "Sp(1,1)", 10),
        (quaternionic_skew_space(2), "O*(4)", 6),
        (complex_orthogonal_space(3), "O(3,C)", 3),
        (complex_symplectic_space(4), "Sp(4,C)", 10),
    ]
    for space, name, dim in cases:
        g = isometry_group(space)
        assert g.name == name
        assert g.lie_dim == dim
    assert isometry_group(formed_space("R", "R", 1, signature=(0, 0))).name \
        == "1"


def test_iter_spaces_properties():
    seen = set()
    for v in iter_spaces(6):
        assert 1 <= v.dim_f <= 6
        assert v not in seen
        seen.add(v)
    assert orthogonal_space(0, 0) not in seen
    assert orthogonal_space(0, 0) in set(iter_spaces(2, include_zero=True))


def test_every_space_to_dim_12_round_trips_through_json():
    for v in iter_spaces(12, include_zero=True):
        assert FormedSpace.from_json(v.to_json()) == v


def test_formed_space_shares_one_instance_per_argument_tuple():
    """Equal exact-int arguments give the identical space, a list signature
    included; an epsilon of True or 1.0 is refused on every call, also while
    the int space it equals is cached; a space built directly is equal to
    the shared one and hashes alike."""
    shared = formed_space("R", "R", 1, signature=(2, 1))
    assert formed_space("R", "R", 1, signature=(2, 1)) is shared
    assert formed_space("R", "R", 1, signature=[2, 1]) is shared
    assert orthogonal_space(2, 1) is shared
    assert formed_space("C", "C", -1, dim=4) is complex_symplectic_space(4)
    assert orthogonal_space(1, 1) is formed_space("R", "R", 1, signature=(1, 1))
    for eps in (True, 1.0):
        error = raised_twice(formed_space, "R", "R", eps, signature=(1, 1))
        assert (error["code"], error["message"]) == \
            ("bad_shape", "epsilon must be an int")
        with pytest.raises(BadShape, match="^epsilon must be an int$"):
            FormedSpace("R", "R", eps, (1, 1), 2)
    direct = FormedSpace("R", "R", 1, (2, 1), 3)
    assert direct is not shared
    assert direct == shared and hash(direct) == hash(shared)


def test_formed_space_errors_are_raised_on_every_call():
    cases = [
        (("R", "R", 1), {}, "exactly one of signature/dim is required"),
        # a dim beside a signature is not ignored: O(1,1) is no space of dim 5
        (("R", "R", 1), {"signature": (1, 1), "dim": 5},
         "exactly one of signature/dim is required"),
        (("C", "C", 1), {"dim": -1}, "dimension must be non-negative"),
        (("R", "R", -1), {"dim": 3}, "symplectic type requires even dimension"),
        (("R", "R", 1), {"dim": 3},
         "type ('R', 'R', 1) is signature-classified"),
        (("C", "C", 1), {"signature": (2, 1)},
         "type ('C', 'C', 1) is dimension-classified"),
        (("C", "R", 1), {"dim": 2}, "invalid base/division pair (C,R)"),
        (("R", "R", 1), {"signature": (2, -1)},
         "signature must be non-negative and sum to dim"),
        (("R", "R", 2), {"signature": (1, 0)}, "epsilon must be +1 or -1, got 2"),
        (("R", "R", 1), {"signature": (1, 1, 0)},
         "signature must be a tuple (p, q) of ints"),
        (("R", "R", 1), {"signature": (None, 1)},
         "signature must be a tuple (p, q) of ints"),
        # nothing is coerced to int: a bool, float or str is refused
        *[(("R", "R", 1), {"signature": sig},
           "signature must be a tuple (p, q) of ints")
          for sig in ((1.5, 1), ("1", 1), (True, 1), [1.5, 1], {1, 2})],
        *[(("C", "C", 1), {"dim": dim}, "dimension must be an int")
          for dim in (2.7, True, "2", 2.0, [2])],
        *[(("C", "C", eps), {"dim": 2}, "epsilon must be an int")
          for eps in (1.0, True, -1.0, "1")],
    ]
    size = forms._space.cache_info().currsize
    for args, kwargs, message in cases:
        error = raised_twice(formed_space, *args, **kwargs)
        assert (error["code"], error["message"]) == ("bad_shape", message)
    assert forms._space.cache_info().currsize == size
