import random

import pytest

from framedlie.gf2 import (
    MAX_WIDTH,
    ResourceLimitError,
    Subspace,
    UsageError,
    apply_map,
    complement_in,
    format_bits,
    gather,
    intersect,
    kernel,
    parse_bits,
    recombine,
    rref,
    rref_ints,
    span,
    subspace_sum,
    vanishing_on,
    walsh_hadamard,
    zero_subspace,
)


def brute_span(rows, width):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def test_parse_and_format_bits():
    assert parse_bits("1100") == 0b0011
    assert format_bits(0b0011, 4) == "1100"
    assert format_bits(0, 3) == "000"
    assert parse_bits("1" * 64) == (1 << 64) - 1
    for bad in ("", "10a1", "1 0", "1" * 65):
        with pytest.raises(UsageError):
            parse_bits(bad)
    with pytest.raises(UsageError):
        rref([0b1000], 3)
    with pytest.raises(UsageError):
        rref([0b1], 0)
    with pytest.raises(UsageError):
        rref([0b11], 2).reduce(0b100)


def test_rref_empty_span():
    s = rref([], width=4)
    assert s.dim == 0
    assert span(s.rows) == [0]
    assert zero_subspace(12).reduce(0) == 0


def test_rref_span_matches_bruteforce():
    rows = [0b0011, 0b0110, 0b0101]
    s = rref(rows, 4)
    assert s.dim == 2
    assert s.contains(0b0011)
    expect = brute_span(rows, 4)
    assert set(span(s.rows)) == expect


def test_rref_duplicate_rows():
    s = rref([0b1111, 0b1111], 4)
    assert s.dim == 1


def test_rref_is_canonical():
    rng = random.Random(7)
    for _ in range(200):
        width = rng.randrange(2, 20)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 6))]
        s1 = rref(rows, width)
        # a different generating set with the same span
        alt = list(s1.rows)
        for _ in range(6):
            if len(alt) >= 2:
                i, j = rng.randrange(len(alt)), rng.randrange(len(alt))
                if i != j:
                    alt[i] ^= alt[j]
        rng.shuffle(alt)
        alt.append(0)
        assert rref(alt, width).rows == s1.rows
        # rref of a canonical basis is itself
        assert rref(s1.rows, width).rows == s1.rows


def test_rref_pivot_structure():
    rng = random.Random(13)
    for _ in range(200):
        width = rng.randrange(2, 24)
        s = rref([rng.getrandbits(width) for _ in range(6)], width)
        pivots = [(r & -r).bit_length() - 1 for r in s.rows]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, r in enumerate(s.rows):
            for j, p in enumerate(pivots):
                if i != j:
                    assert not (r >> p) & 1  # reduced above and below
        for r in s.rows:
            assert s.contains(r)


def _rref_forward_loop(rows):
    """Oracle: rref_ints as first written, one forward loop that clears each
    new pivot from the rows kept before it, then a sort by pivot."""
    basis = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            low = row & -row
            for i, b in enumerate(basis):
                if b & low:
                    basis[i] = b ^ row
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return basis


def _rref_row_sets():
    """Random row sets at widths 1..64 and above bit 64 (intersect eliminates
    paired rows of up to 128 bits), with zero, duplicate and dependent rows
    mixed in."""
    rng = random.Random(49)
    for width in (*range(1, MAX_WIDTH + 1), 65, 96, 2 * MAX_WIDTH):
        for _ in range(4):
            rank = rng.randrange(min(width, 40) + 1)
            gens = [rng.getrandbits(width) for _ in range(rank)]
            rows = gens + [0] * rng.randrange(3)
            rows += rng.choices(gens, k=rng.randrange(3)) if gens else []
            for _ in range(rng.randrange(4)):  # sums of two or three generators
                rows.append(0)
                for g in rng.sample(gens, min(len(gens), rng.randrange(2, 4))):
                    rows[-1] ^= g
            rng.shuffle(rows)
            yield rows


def test_rref_ints_matches_the_forward_loop_oracle():
    for rows in _rref_row_sets():
        assert rref_ints(iter(rows)) == _rref_forward_loop(rows)


def test_rref_ints_is_independent_of_row_order():
    rng = random.Random(7)
    for rows in _rref_row_sets():
        out = rref_ints(rows)
        for _ in range(3):
            rng.shuffle(rows)
            assert rref_ints(rows) == out


def test_intersect_and_sum_examples():
    a = rref([0b01], 2)
    b = rref([0b10], 2)
    assert intersect(a, b).dim == 0
    s = subspace_sum(rref([0b011], 3), rref([0b110], 3))
    assert s.dim == 2
    assert set(span(s.rows)) == brute_span([0b011, 0b110], 3)


def test_sum_and_intersection_need_one_ambient():
    for op in (subspace_sum, intersect):
        with pytest.raises(UsageError, match="of subspaces in different ambients"):
            op(rref([0b01], 2), rref([0b01], 3))


def test_dimension_formula_random():
    rng = random.Random(20260810)
    for _ in range(1000):
        width = rng.randrange(2, 31)
        a = rref([rng.getrandbits(width) for _ in range(rng.randrange(4))] or [0], width)
        b = rref([rng.getrandbits(width) for _ in range(rng.randrange(4))] or [0], width)
        inter = intersect(a, b)
        total = subspace_sum(a, b)
        assert inter.dim + total.dim == a.dim + b.dim
        for r in inter.rows:
            assert a.contains(r) and b.contains(r)


def test_complement_in():
    a = rref([0b0011], 4)
    b = rref([0b0011, 0b1100], 4)
    c = complement_in(a, b)
    assert c.dim == 1
    assert intersect(a, c).dim == 0
    assert subspace_sum(a, c).rows == b.rows
    with pytest.raises(UsageError):
        complement_in(b, a)


def test_complement_in_seeded_choices():
    rng = random.Random(5)
    width = 8
    b = rref([rng.getrandbits(width) for _ in range(6)], width)
    a = rref(b.rows[:2], width)
    for seed in range(10):
        c = complement_in(a, b, random.Random(seed))
        assert c.dim == b.dim - a.dim
        assert intersect(a, c).dim == 0
        assert subspace_sum(a, c).rows == b.rows


def _complement_by_rref(a, b, rng=None):
    """Oracle: complement_in as first written, one full rref of a + the
    picked vectors after every pick."""
    pool = list(b.rows) if rng is None else recombine(b.rows, rng)
    picked = []
    span = a
    for v in pool:
        if span.reduce(v):
            picked.append(v)
            span = Subspace(span.ambient_width, tuple(rref_ints(span.rows + (v,))))
    return Subspace(a.ambient_width, tuple(rref_ints(picked)))


def test_complement_in_against_rref_oracle():
    draw = random.Random(17)
    for _ in range(200):
        width = draw.randrange(1, 65)
        b = rref([draw.getrandbits(width) for _ in range(draw.randrange(width + 1))], width)
        a = rref(recombine(b.rows, draw)[: draw.randrange(b.dim + 1)], width)
        seed = draw.randrange(1 << 16)
        assert complement_in(a, b) == _complement_by_rref(a, b)
        got = complement_in(a, b, random.Random(seed))
        assert got == _complement_by_rref(a, b, random.Random(seed))


def _coordinate_subspace(width, mask):
    """{v : v & mask = 0} in F_2^width."""
    return rref([1 << i for i in range(width) if not mask >> i & 1], width)


def test_vanishing_on_against_intersect():
    draw = random.Random(19)
    for width in range(1, 65):
        full = (1 << width) - 1
        sparse = draw.getrandbits(width) & draw.getrandbits(width) & draw.getrandbits(width)
        block = full >> draw.randrange(width) << draw.randrange(width) & full
        for mask in (0, full, sparse, block, draw.getrandbits(width)):
            s = rref([draw.getrandbits(width) for _ in range(draw.randrange(width + 1))], width)
            got = vanishing_on(s, mask)
            assert got == intersect(s, _coordinate_subspace(width, mask)), (width, mask)
    assert vanishing_on(rref([0b011, 0b110], 3), 0b001).rows == (0b110,)


def test_enumerate_properties():
    s = rref([0b100, 0b010, 0b001], 3)
    got = span(s.rows)
    assert len(got) == 8
    assert len(set(got)) == 8
    assert all(s.contains(v) for v in got)

    s14 = rref([1 << i for i in range(14)], 20)
    assert len(set(span(s14.rows))) == 16384

    with pytest.raises(ResourceLimitError):
        span([1 << i for i in range(29)])


def test_enumerate_deterministic():
    # the doubling order, for dependent rows as well: entry i sums the rows the bits of i select
    rng = random.Random(5)
    for _ in range(20):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(7))]
        assert span(rows) == [apply_map(rows, i) for i in range(1 << len(rows))]


@pytest.mark.parametrize("n", [0, 1, 2, 1 << 14])
def test_gather_matches_item_reads(n):
    # itemgetter(i) alone returns a bare item, and bytes(5) is five zero bytes
    rng = random.Random(n)
    raw = bytes(rng.getrandbits(8) for _ in range(1 << 15))
    tables = [raw, bytearray(raw), list(raw), tuple(raw), dict(enumerate(raw))]
    idx = [rng.randrange(1 << 15) for _ in range(n)]
    for table in tables:
        got = gather(table, idx)
        assert type(got) is tuple and len(got) == n
        assert got == tuple(table[i] for i in idx)
        assert bytes(got) == bytes(raw[i] for i in idx)
    for bad in ([1 << 15], [0, 1 << 15]):
        for table in tables[:4]:
            with pytest.raises(IndexError):
                gather(table, bad)
        with pytest.raises(KeyError):
            gather(tables[4], bad)


def test_kernel():
    rng = random.Random(3)
    for _ in range(100):
        width = rng.randrange(2, 16)
        funcs = [rng.getrandbits(width) for _ in range(rng.randrange(1, 5))]
        ker = kernel(funcs, width)
        for v in span(ker.rows):
            assert all((f & v).bit_count() % 2 == 0 for f in funcs)
        assert ker.dim == width - rref(funcs, width).dim


@pytest.mark.parametrize("bits", range(7))
def test_walsh_hadamard_against_character_sum(bits):
    # small and 200-bit entries of both signs, as packed census lanes have
    rng = random.Random(bits)
    small = [rng.randrange(-1000, 1000) for _ in range(1 << bits)]
    wide = [rng.getrandbits(200) - (1 << 199) for _ in range(1 << bits)]
    for values in (small, wide):
        want = [
            sum(v if (c & x).bit_count() % 2 == 0 else -v for x, v in enumerate(values))
            for c in range(1 << bits)
        ]
        assert walsh_hadamard(values, bits) == want
