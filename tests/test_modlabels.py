import copy
import hashlib
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import pytest

from framedlie import modlabels
from framedlie.gf2 import FalsificationError, UsageError
from framedlie.modlabels import (
    CHI0_PLUS,
    TABLE_ROW_LOWEST2,
    TABLE_ROW_SIZES,
    ZERO_MINUS,
    ZERO_PLUS,
    RXLabel,
    _add_packed,
    _row,
    canonical_c_values,
    coordinate_row_table,
    coordinatize,
    coset_min_norm,
    label_from_w,
    label_to_w,
    normal_form,
    nu,
    orbit_class,
    pairing,
    qx,
    random_label,
    rv_model,
    rx_add,
    rx_census,
)
from framedlie.quadspace import singular_census


def c_of(*positions):
    out = 0
    for p in positions:
        out |= 1 << p
    return out


def _coset_norm(label):
    """|w|^2 / 8 of the canonical representative: the oracle of nu."""
    sq = sum(wi * wi for wi in label_to_w(label))
    assert sq % 8 == 0, "coset representative has non-integral norm"
    return sq // 8


def test_normal_form_basics():
    assert label_from_w([0] * 16) == ZERO_PLUS
    # complement flip: c with first coordinate set is replaced, delta unchanged
    lbl = normal_form(0, 0, c_of(0, 1), 0, 0)
    assert lbl.c == c_of(*range(2, 16))
    assert lbl.delta == 0
    with pytest.raises(UsageError):
        normal_form(0, 0, c_of(1), 0, 0)  # odd weight
    with pytest.raises(UsageError):
        RXLabel(0, 0, c_of(0, 1), 0, 0)  # non-canonical direct construction


def _normal_forms():
    """Every packed normal form: each canonical c under all 16 flag settings."""
    for c in canonical_c_values():
        yield from range(c, c + (16 << 16), 1 << 16)


def test_label_holds_its_packed_normal_form():
    seen = 0
    for x in _normal_forms():
        label = RXLabel.from_packed(x)
        assert label.packed == x
        fields = (label.twist, label.eps, label.c, label.delta, label.sign)
        assert fields == (x >> 19 & 1, x >> 16 & 1, x & 0xFFFF, x >> 17 & 1, x >> 18 & 1)
        assert RXLabel(*fields).packed == x
        seen += 1
    assert seen == 1 << 18


def test_label_equality_and_hash_by_value():
    x = normal_form(1, 0, c_of(1, 2), 1, 0).packed
    a, b = RXLabel.from_packed(x), RXLabel.from_packed(x)
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != x and a != (a.twist, a.eps, a.c, a.delta, a.sign)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    # the same c under every other flag setting is another label
    for flags in range(1, 16):
        other = RXLabel.from_packed(x ^ flags << 16)
        assert other != a and other.c == a.c


def test_label_is_immutable():
    label = RXLabel(1, 0, c_of(1, 2), 1, 0)
    for name in ("packed", "twist", "eps", "c", "delta", "sign", "extra"):
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
    with pytest.raises(FrozenInstanceError):
        label.packed = 0
    for name in ("packed", "c"):
        with pytest.raises(FrozenInstanceError):
            delattr(label, name)
    assert not hasattr(label, "__dict__")
    assert label == RXLabel(1, 0, c_of(1, 2), 1, 0)


def test_repr_evaluates_back_to_the_label():
    # the repr is the one text form of a label
    assert repr(ZERO_MINUS) == "RXLabel(twist=0, eps=0, c=0, delta=0, sign=1)"
    rng = random.Random(14)
    labels = [ZERO_MINUS] + [random_label(rng) for _ in range(1000)]
    assert {label.twist for label in labels} == {0, 1}
    for label in labels:
        assert eval(repr(label), {"RXLabel": RXLabel}) == label


@pytest.mark.parametrize(
    "fields,message",
    [
        *(((0,) * k + (2,) + (0,) * (3 - k), "label flag bits must be 0 or 1") for k in range(4)),
        *(((0,) * k + (-1,) + (0,) * (3 - k), "label flag bits must be 0 or 1") for k in range(4)),
    ],
)
def test_label_rejects_bad_flags(fields, message):
    twist, eps, delta, sign = fields
    with pytest.raises(UsageError, match=message):
        RXLabel(twist, eps, 0, delta, sign)


@pytest.mark.parametrize(
    "c,message",
    [
        (c_of(1, 16), "half-vector c has more than 16 coordinates"),
        (c_of(0, 1), "non-canonical c: first coordinate must be 0"),
        (c_of(1, 2, 3), "half-vector c must have even weight"),
    ],
)
def test_label_rejects_bad_c(c, message):
    with pytest.raises(UsageError, match=message):
        RXLabel(0, 0, c, 0, 0)
    if not c >> 16:  # from_packed reads c from bits 0-15 only
        with pytest.raises(UsageError, match=message):
            RXLabel.from_packed(c)


def test_random_label_draws_unchanged():
    # the packed labels that verify's min-norm sample decodes, as first drawn
    rng = random.Random(20260810)
    xs = ",".join(str(random_label(rng, twisted=False).packed) for _ in range(10**4))
    digest = hashlib.sha256(xs.encode()).hexdigest()
    assert digest == "e6d1d6e7f0ce4550723263a0cbc285c0c8a7109212ddfe23b6b431110e9096e2"


def test_random_label_matches_the_randrange_draw():
    # the draw as first written, through randrange, on a twin generator
    for twisted in (None, False, True):
        rng, twin = random.Random(12), random.Random(12)
        for _ in range(10**4):
            twist = twin.getrandbits(1) if twisted is None else int(twisted)
            c = canonical_c_values()[twin.randrange(1 << 14)]
            eps, delta, sign = (twin.getrandbits(1) for _ in range(3))
            assert random_label(rng, twisted) == RXLabel(twist, eps, c, delta, sign)


def test_drawn_and_summed_labels_are_normal_forms():
    # random_label and rx_add skip the normal-form checks; from_packed runs them
    rng = random.Random(11)
    draws = {t: [random_label(rng, twisted=t) for _ in range(10**4)] for t in (None, False, True)}
    for xs in draws.values():
        for x in xs:
            assert RXLabel.from_packed(x.packed) == x
    for xs, ys in itertools.product(draws.values(), repeat=2):
        for x, y in zip(xs, ys):
            s = rx_add(x, y)
            assert RXLabel.from_packed(s.packed) == s


def test_normal_form_idempotent():
    rng = random.Random(42)
    for _ in range(300):
        lbl = random_label(rng)
        again = normal_form(lbl.twist, lbl.eps, lbl.c, lbl.delta, lbl.sign)
        assert again == lbl


def test_label_from_w_rejects_non_dual_vectors():
    with pytest.raises(UsageError):
        label_from_w([1] + [0] * 15)  # mixed parity
    with pytest.raises(UsageError):
        label_from_w([2] + [0] * 15)  # odd half-support
    with pytest.raises(UsageError):
        label_from_w([0] * 15)  # one coordinate short


def test_w_roundtrip_random():
    rng = random.Random(1)
    for _ in range(300):
        lbl = random_label(rng)
        assert label_from_w(label_to_w(lbl), lbl.twist, lbl.sign) == lbl


def test_reduction_against_random_lattice_shifts():
    # adding any reduction-lattice vector to w leaves the label unchanged
    rng = random.Random(2)
    for _ in range(300):
        lbl = random_label(rng)
        w = list(label_to_w(lbl))
        x = [rng.randrange(-3, 4) for _ in range(16)]
        if sum(x) % 2:
            x[rng.randrange(16)] += 1
        epsp = rng.randrange(2)
        w2 = [wi + 4 * xi + 2 * epsp for wi, xi in zip(w, x)]
        assert label_from_w(w2, lbl.twist, lbl.sign) == lbl


def test_halfvector_addition_overlap_rule():
    # sum of two half-vectors picks up a delta from the support overlap
    rng = random.Random(3)
    for _ in range(100):
        ca = canonical_c_values()[rng.randrange(1 << 14)]
        cb = canonical_c_values()[rng.randrange(1 << 14)]
        wa = [2 * ((ca >> i) & 1) for i in range(16)]
        wb = [2 * ((cb >> i) & 1) for i in range(16)]
        got = label_from_w([a + b for a, b in zip(wa, wb)])
        expect = normal_form(0, 0, ca ^ cb, (ca & cb).bit_count() & 1, 0)
        assert got == expect


def _rx_add_via_vectors(a, b):
    """Oracle of _add_packed: add scaled representatives and re-reduce."""
    wa, wb = label_to_w(a), label_to_w(b)
    wsum = tuple(x + y for x, y in zip(wa, wb))
    sign = a.sign ^ b.sign
    if a.twist and b.twist:
        sign ^= nu(a) ^ nu(b)
    elif a.twist or b.twist:
        twisted = a if a.twist else b
        summed = label_from_w(wsum)
        sign ^= nu(twisted) ^ nu(summed)
    return label_from_w(wsum, a.twist ^ b.twist, sign)


def test_rx_add_matches_vector_oracle():
    # 2500 seeded pairs for each twist pattern: untwisted, one, both twisted
    rng = random.Random(4)
    for ta, tb in itertools.product((False, True), repeat=2):
        for _ in range(2500):
            a, b = random_label(rng, twisted=ta), random_label(rng, twisted=tb)
            expect = _rx_add_via_vectors(a, b)
            assert rx_add(a, b) == expect
            assert RXLabel.from_packed(a.packed) == a
            assert RXLabel.from_packed(_add_packed(a.packed, b.packed)) == expect


def test_group_laws():
    rng = random.Random(5)
    for _ in range(2000):
        x = random_label(rng)
        assert rx_add(ZERO_PLUS, x) == x
        assert rx_add(x, x) == ZERO_PLUS
    for _ in range(2000):
        a, b, c = (random_label(rng) for _ in range(3))
        assert rx_add(a, b) == rx_add(b, a)
        assert rx_add(rx_add(a, b), c) == rx_add(a, rx_add(b, c))
    assert rx_add(CHI0_PLUS, CHI0_PLUS) == ZERO_PLUS


def test_nu_examples():
    assert nu(ZERO_PLUS) == 0
    assert nu(normal_form(0, 0, c_of(1, 2), 0, 0)) == 1  # wt 2: norm 1
    assert nu(RXLabel(0, 1, 0, 0, 0)) == 0  # all-quarters vector: norm 2
    # nu is the norm mod 2 of any representative
    rng = random.Random(6)
    for _ in range(200):
        lbl = random_label(rng, twisted=False)
        assert nu(lbl) == _coset_norm(lbl) % 2


def test_qx_examples():
    assert qx(ZERO_MINUS) == 0
    assert qx(normal_form(0, 0, c_of(1, 2), 0, 0)) == 1
    assert qx(normal_form(0, 0, c_of(1, 2), 0, 1)) == 1
    assert qx(RXLabel(1, 0, 0, 0, 1)) == 1  # twisted minus
    assert qx(CHI0_PLUS) == 0


def test_qx_polarization_biadditive():
    rng = random.Random(7)
    for _ in range(1500):
        a, b, c = (random_label(rng) for _ in range(3))
        lhs = pairing(rx_add(a, b), c)
        assert lhs == pairing(a, c) ^ pairing(b, c)


def test_inner_pairings():
    rng = random.Random(8)
    # untwisted pairing equals the scaled lattice pairing mod 2
    for _ in range(1024):
        a = random_label(rng, twisted=False)
        b = random_label(rng, twisted=False)
        wa, wb = label_to_w(a), label_to_w(b)
        dot = sum(x * y for x, y in zip(wa, wb))
        assert dot % 4 == 0
        assert pairing(a, b) == (dot // 4) % 2
    for _ in range(200):
        lam = random_label(rng, twisted=False)
        lam_plus = RXLabel(0, lam.eps, lam.c, lam.delta, 0)
        lam_minus = RXLabel(0, lam.eps, lam.c, lam.delta, 1)
        assert pairing(lam_plus, CHI0_PLUS) == 0
        assert pairing(lam_minus, CHI0_PLUS) == 1
        tw = random_label(rng, twisted=True)
        assert pairing(ZERO_MINUS, tw) == 1


def brute_min_norm(label):
    # exhaustive over both half-vector shifts and all corrections moving at
    # most three coordinates one step beyond the per-coordinate reduction;
    # each coordinate's (t^2, step parity) is precomputed for its reduced
    # value t and for t - 4 and t + 4, so a correction scores its moved
    # coordinates only
    w = label_to_w(label)
    best = None
    for shift in (0, 2):
        terms = []
        for wi in w:
            vi = wi + shift
            t = {0: 0, 1: 1, 2: 2, 3: -1}[vi % 4]
            terms.append([(u * u, ((u - vi) // 4) & 1) for u in (t, t - 4, t + 4)])
        base_total = sum(term[0][0] for term in terms)
        base_parity = sum(term[0][1] for term in terms) & 1
        moves = [
            [(term[k][0] - term[0][0], term[k][1] ^ term[0][1]) for k in (1, 2)]
            for term in terms
        ]
        for n in range(4):
            for idxs in itertools.combinations(range(16), n):
                for picked in itertools.product(*(moves[i] for i in idxs)):
                    total, parity = base_total, base_parity
                    for d_total, d_parity in picked:
                        total += d_total
                        parity ^= d_parity
                    if parity == 0 and (best is None or total < best):
                        best = total
    return best // 8


def _coset_min_norm_loop(label):
    """Oracle of coset_min_norm: the per-coordinate reduction loop."""
    w = label_to_w(label)
    best = None
    for shift in (0, 2):
        total = 0
        parity = 0
        cheapest = 16
        for wi in w:
            vi = wi + shift
            res = vi % 4  # non-negative in Python
            if res == 0:
                t, steps = 0, (0 - vi) // 4
            elif res == 1:
                t, steps = 1, (1 - vi) // 4
            elif res == 3:
                t, steps = -1, (-1 - vi) // 4
            else:
                t, steps = 2, (2 - vi) // 4
            total += t * t
            parity ^= steps & 1
            if t == 0:
                cost = 16
            elif t in (1, -1):
                cost = 8
            else:
                cost = 0
            if cost < cheapest:
                cheapest = cost
        if parity:
            total += cheapest
        if best is None or total < best:
            best = total
    assert best is not None and best % 8 == 0
    return best // 8


def test_coset_min_norm_examples():
    assert coset_min_norm(ZERO_PLUS) == 0
    assert coset_min_norm(normal_form(0, 0, c_of(1, 2, 3, 4), 0, 0)) == 2  # wt 4
    lbl = normal_form(0, 1, 0, 1, 0)  # quarter-vector minus one unit
    assert coset_min_norm(lbl) == 3
    assert coset_min_norm(normal_form(0, 0, 0, 1, 0)) == 2  # one unit vector
    assert coset_min_norm(normal_form(0, 0, c_of(1, 2), 0, 0)) == 1
    assert coset_min_norm(normal_form(0, 1, 0, 0, 0)) == 2
    wt8 = normal_form(0, 0, c_of(*range(1, 9)), 0, 0)
    assert coset_min_norm(wt8) == 4


def test_coset_min_norm_against_bruteforce():
    rng = random.Random(9)
    for _ in range(150):
        lbl = random_label(rng, twisted=False)
        assert coset_min_norm(lbl) == brute_min_norm(lbl)


def test_coset_min_norm_matches_loop_on_every_coset():
    # all 65,536 coset parts (eps, canonical c, delta)
    seen = 0
    for c in canonical_c_values():
        for eps, delta in itertools.product((0, 1), repeat=2):
            label = RXLabel(0, eps, c, delta, 0)
            assert coset_min_norm(label) == _coset_min_norm_loop(label), label
            seen += 1
    assert seen == 1 << 16


def test_coset_min_norm_rejects_a_norm_off_the_lattice(monkeypatch):
    # two more in every decoded squared length: a weight-2 c decodes to 10, not 8
    tables = [
        tuple((sq0 + 1, par0, cost0, sq2 + 1, par2, cost2) for sq0, par0, cost0, sq2, par2, cost2 in t)
        for t in modlabels._norm_tables()
    ]
    monkeypatch.setattr(modlabels, "_norm_tables", lambda: tables)
    with pytest.raises(FalsificationError, match="squared length 10 is not a multiple of 8"):
        coset_min_norm(normal_form(0, 0, c_of(1, 2), 0, 0))


def _row_oracle(label: RXLabel) -> int:
    """Orbit row by the branch logic the packed row table is built from."""
    if label.twist:
        return 7 if label.sign == 0 else 8
    if label.eps:
        return 7 if label.delta == 0 else 8
    if label.c == 0:
        return 1 if (label.delta == 0 and label.sign == 0) else 2
    weff = min(label.c.bit_count(), 16 - label.c.bit_count())
    return {2: 3, 4: 4, 6: 5, 8: 6}[weff]


def test_row_table_matches_branch_oracle():
    # every one of the 2^18 normal forms
    seen = 0
    for c in canonical_c_values():
        for twist, eps, delta, sign in itertools.product((0, 1), repeat=4):
            label = RXLabel(twist, eps, c, delta, sign)
            assert _row(label.packed) == _row_oracle(label), label
            seen += 1
    assert seen == 1 << 18


def test_coordinate_row_table_against_packed_labels():
    coords = coordinatize()
    table = coordinate_row_table()
    assert len(table) == 1 << 18
    assert tuple(table.count(r) for r in range(1, 9)) == TABLE_ROW_SIZES
    rng = random.Random(12)
    sample = [0, (1 << 18) - 1, *(1 << i for i in range(18))]
    sample += [rng.getrandbits(18) for _ in range(3000)]
    for x in sample:
        assert table[x] == _row(coords.packed_label(x)), x


def test_coordinate_row_table_rejects_wrong_rows(monkeypatch):
    # send untwisted labels with eps = delta = sign = 0 and wt(c) = 4 to row 5
    rows = bytearray(modlabels._ROW_TABLE)
    rows[4] = 5
    monkeypatch.setattr(modlabels, "_ROW_TABLE", bytes(rows))
    coordinate_row_table.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="coordinate row census mismatch"):
            coordinate_row_table()
    finally:
        coordinate_row_table.cache_clear()


def test_coordinate_row_table_needs_flag_labels_without_c(monkeypatch):
    # the block-by-index build holds only while the last four basis labels have c = 0
    basis = list(coordinatize().basis)
    basis[0], basis[14] = basis[14], basis[0]
    monkeypatch.setattr(modlabels, "coordinatize", lambda: SimpleNamespace(basis=tuple(basis)))
    coordinate_row_table.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="flag label of the coordinate basis has a nonzero c"):
            coordinate_row_table()
    finally:
        coordinate_row_table.cache_clear()


def test_orbit_class_examples():
    # one label of each row, with its doubled lowest weight and lowest dim
    for label, want in (
        (ZERO_PLUS, (1, 0, 1)),
        (ZERO_MINUS, (2, 2, 16)),
        (normal_form(0, 0, c_of(1, 2), 0, 0), (3, 1, 1)),
        (normal_form(0, 0, c_of(1, 2, 3, 4), 0, 1), (4, 2, 4)),
        (normal_form(0, 0, c_of(1, 2, 3, 4, 5, 6), 1, 1), (5, 3, 16)),  # wt 6, -alpha_1, minus
        (normal_form(0, 0, c_of(*range(1, 9)), 1, 0), (6, 4, 128)),
        (normal_form(0, 1, c_of(1, 2), 0, 0), (7, 2, 1)),
        (RXLabel(1, 0, 0, 0, 1), (8, 3, 16)),
    ):
        row = orbit_class(label)
        assert (row, *TABLE_ROW_LOWEST2[row]) == want, label


def test_orbit_class_shares_one_value_per_row():
    first = {}
    for x in _normal_forms():
        first.setdefault(_row(x), RXLabel.from_packed(x))
        if len(first) == 8:
            break
    assert sorted(first) == list(range(1, 9))
    for row, label in first.items():
        assert orbit_class(label) == row
        assert orbit_class(normal_form(label.twist, label.eps, label.c, label.delta, label.sign)) == row


def test_orbit_class_decoder_consistency_sample():
    rng = random.Random(10)
    for _ in range(2000):
        lbl = random_label(rng, twisted=False)
        if lbl.lam() == (0, 0, 0):
            continue
        orbit_class(lbl, verify=True)


def _rx_census_oracle():
    """Oracle of rx_census: the row of each of the 2^18 normal forms."""
    counts = [0] * 9
    for x in _normal_forms():
        counts[_row(x)] += 1
    return tuple(counts[1:])


def test_rx_census():
    sizes = rx_census()
    assert sizes == TABLE_ROW_SIZES == _rx_census_oracle()
    assert sum(sizes) == 1 << 18


def test_rx_census_rejects_wrong_rows(monkeypatch):
    # send untwisted labels with eps = delta = sign = 0 and wt(c) = 4 to row 5
    rows = bytearray(modlabels._ROW_TABLE)
    rows[4] = 5
    monkeypatch.setattr(modlabels, "_ROW_TABLE", bytes(rows))
    with pytest.raises(FalsificationError, match="orbit census mismatch"):
        rx_census()


def test_wt8_hook():
    # weight-8 half-vectors: singular labels of lowest weight 2
    lbl = normal_form(0, 0, c_of(*range(1, 9)), 0, 0)
    assert qx(lbl) == 0
    row = orbit_class(lbl, verify=True)
    assert row == 6 and TABLE_ROW_LOWEST2[row][0] == 4


def test_rv_model():
    rv = rv_model()
    assert singular_census(rv.space) == (527, 496)
    sizes = {Fraction(0): 0, Fraction(1): 0, Fraction(1, 2): 0}
    for v in range(1 << 10):
        lw, dim = rv.lowest(v)
        sizes[lw] += 1
        assert dim == {Fraction(0): 1, Fraction(1): 8, Fraction(1, 2): 1}[lw]
    assert sizes == {Fraction(0): 1, Fraction(1): 527, Fraction(1, 2): 496}


def test_coordinatize_roundtrip_and_census():
    coords = coordinatize()
    assert coords.to_coords(ZERO_PLUS) == 0
    rng = random.Random(11)
    for _ in range(500):
        lbl = random_label(rng)
        assert coords.from_coords(coords.to_coords(lbl)) == lbl
    for _ in range(300):
        a, b = random_label(rng), random_label(rng)
        assert coords.to_coords(rx_add(a, b)) == coords.to_coords(a) ^ coords.to_coords(b)
    # the transported form is a plus-type space of dimension 18
    assert singular_census(coords.space) == (131327, 130816)


def test_coordinatize_transported_form_matches_qx():
    coords = coordinatize()
    rng = random.Random(12)
    for _ in range(500):
        lbl = random_label(rng)
        assert coords.space.q(coords.to_coords(lbl)) == qx(lbl)

