import math

import pytest

from framedlie.codes import (
    builtin,
    contains_all_ones,
    direct_sum,
    double_word,
    doubling,
    dual,
    interleave_word,
    is_doubly_even,
    is_self_dual,
    is_triply_even,
    reed_muller,
    weight_enumerator,
)
from framedlie.gf2 import ResourceLimitError, UsageError, rref


def test_dlr_maps():
    assert double_word(0b01, 2) == 0b0011
    assert interleave_word(0b11, 2) == 0b0101


def test_weight_scan_refuses_more_than_2_to_the_20_words():
    with pytest.raises(ResourceLimitError):
        weight_enumerator(rref([1 << i for i in range(21)], 21))


def test_reed_muller_14():
    rm14 = reed_muller(1, 4)
    assert rm14.ambient_width == 16 and rm14.dim == 5
    we = weight_enumerator(rm14)
    assert we[0] == 1 and we[8] == 30 and we[16] == 1 and sum(we) == 32
    assert {i for i, c in enumerate(we) if c} == {0, 8, 16}
    assert is_triply_even(rm14)


def test_reed_muller_dims():
    for r in range(5):
        for m in range(r, 6):
            assert reed_muller(r, m).dim == sum(math.comb(m, i) for i in range(r + 1))
    with pytest.raises(UsageError):
        reed_muller(3, 2)


def test_rm_duality():
    assert dual(reed_muller(1, 4)) == reed_muller(2, 4)
    assert dual(reed_muller(0, 3)) == reed_muller(2, 3)


def test_doubling_e8():
    d = doubling(builtin("e8"))
    assert d.ambient_width == 16 and d.dim == 5
    assert is_triply_even(d)
    assert contains_all_ones(d)
    # same parameters and enumerator as RM(1,4)
    assert weight_enumerator(d) == weight_enumerator(reed_muller(1, 4))


def test_doubling_trivial_code():
    z = rref([], 8)
    d = doubling(z)
    assert d.dim == 1
    assert d.rows == (interleave_word(0xFF, 8),)


def _d4():
    return rref([0b1111], 4)


def _codes():
    """The catalog codes, some Reed-Muller codes and d4: the codes the tests walk."""
    named = [builtin(name) for name in ("e8", "d16plus", "g24")]
    return named + [reed_muller(1, 4), reed_muller(2, 4), reed_muller(0, 3), _d4()]


def test_doubling_dim_and_parity():
    for code in _codes():
        d = doubling(code)
        assert d.dim == code.dim + 1
        # doubly even of length 8n doubles to triply even of length 16n
        if is_doubly_even(code) and code.ambient_width % 8 == 0:
            assert is_triply_even(d)
    assert not is_triply_even(doubling(_d4()))


def test_catalog():
    e8 = builtin("e8")
    assert e8.dim == 4 and e8.ambient_width == 8
    for row in ("11111111", "11110000", "11001100", "10101010"):
        assert e8.contains(int(row[::-1], 2))
    assert is_doubly_even(e8) and e8 == reed_muller(1, 3)
    d16plus = builtin("d16plus")
    # the ladder rows themselves, and the glue word
    for row in ("1111000000000000", "0011110000000000", "0000000000001111", "1010101010101010"):
        assert d16plus.contains(int(row[::-1], 2))
    for name in ("nope", "d8", "d3", "e7", "E5"):
        with pytest.raises(UsageError):
            builtin(name)


def test_d16plus():
    c = builtin("d16plus")
    assert c.ambient_width == 16 and c.dim == 8
    assert is_self_dual(c)
    assert is_doubly_even(c)


def test_golay_weight_enumerator():
    g24 = builtin("g24")
    assert g24.dim == 12
    we = weight_enumerator(g24)
    expect = [0] * 25
    expect[0], expect[8], expect[12], expect[16], expect[24] = 1, 759, 2576, 759, 1
    assert we == tuple(expect)
    assert is_self_dual(g24) and is_doubly_even(g24)


def test_dual_involution_and_dims():
    for c in _codes():
        d = dual(c)
        assert dual(d) == c
        assert c.dim + d.dim == c.ambient_width


def test_dual_doubling_d16plus():
    lhs = dual(doubling(builtin("d16plus")))
    e16 = dual(rref([0xFFFF], 16))  # the even-weight words
    rows = [double_word(r, 16) for r in e16.rows]
    rows += [interleave_word(r, 16) for r in builtin("d16plus").rows]
    rhs = rref(rows, 32)
    assert lhs == rhs


def test_tecode_conditions_length48():
    de8 = doubling(builtin("e8"))
    c1 = direct_sum(direct_sum(de8, de8), de8)
    assert c1.ambient_width == 48
    assert is_triply_even(c1)
    assert contains_all_ones(c1)
    c2 = direct_sum(de8, doubling(builtin("d16plus")))
    assert c2.ambient_width == 48
    assert is_triply_even(c2)
    assert contains_all_ones(c2)


def test_triply_even_dual_is_even():
    for code in (doubling(builtin("e8")), reed_muller(1, 4)):
        assert not any(weight_enumerator(dual(code))[1::2])


def test_macwilliams_consistency():
    # the dual enumerator recovered through the MacWilliams transform
    for c in _codes():
        we = weight_enumerator(c)
        n = c.ambient_width
        dual_we = []
        for j in range(n + 1):
            acc = 0
            for i, a in enumerate(we):
                if not a:
                    continue
                k = sum(
                    (-1) ** t * math.comb(i, t) * math.comb(n - i, j - t)
                    for t in range(max(0, j - (n - i)), min(i, j) + 1)
                )
                acc += a * k
            dual_we.append(acc // (1 << c.dim))
        assert tuple(dual_we) == weight_enumerator(dual(c))

