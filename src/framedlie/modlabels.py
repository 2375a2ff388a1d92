"""Concrete models of the irreducible-module label sets.

The big label set is an elementary abelian group of order 2^18.  A label
carries a twist bit, a coset of the underlying rank-16 lattice in its dual,
and a sign bit.  Cosets are stored through scaled integer representatives
``w`` (all coordinates times 4), so a coset's squared length is |w|^2/8 and
every reduction is exact integer arithmetic.

The reduction lattice for ``w`` is {4x + 2e'(1,...,1) : x in Z^16, sum(x)
even, e' in {0,1}}.  A coset normal form is (eps, c, delta): eps the parity
of the entries, c the canonical even-weight half-vector with first
coordinate 0, delta the leftover integer-carry bit.  Complement flips of c
leave delta alone because complements of even-weight words have even
weight.

The group law, the form and the orbit rows are computed on packed labels:
one int with c in bits 0-15, then eps, delta, sign and twist in bits 16-19.
``RXLabel`` holds that packed int and nothing else: it checks the normal
form once, when it is made from outside input, and reads its five fields
from the bits.  Drawn labels and fusion sums are normal forms by
construction and are made unchecked.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Sequence

from .gf2 import FalsificationError, UsageError, apply_map, rref_ints
from .quadspace import QuadraticSpace, standard_plus

N_COORDS = 16
C_MASK = (1 << N_COORDS) - 1
# flag bits of a packed label, above the 16 bits of c
_EPS = 1 << 16
_DELTA = 1 << 17
_SIGN = 1 << 18
_TWIST = 1 << 19
_LABEL_BITS = (1 << 20) - 1

TABLE_ROW_SIZES = (1, 3, 480, 7280, 32032, 25740, 98304, 98304)
# (doubled lowest weight, lowest dim) of each orbit row, indexed by row (0 unused)
TABLE_ROW_LOWEST2 = ((0, 0), (0, 1), (2, 16), (1, 1), (2, 4), (3, 16), (4, 128), (2, 1), (3, 16))
# lowest dim of a small label by its doubled lowest weight
RV_DIM = (1, 1, 8)


class RXLabel:
    """Normal form of one of the 2^18 irreducible-module labels.

    A label holds only its packed int; the five fields are read from its
    bits.  Labels are immutable and compare and hash by the packed int.
    """

    __slots__ = ("packed",)

    def __init__(self, twist: int, eps: int, c: int, delta: int, sign: int) -> None:
        for bit in (twist, eps, delta, sign):
            if bit not in (0, 1):
                raise UsageError("label flag bits must be 0 or 1")
        if c >> N_COORDS:
            raise UsageError("half-vector c has more than 16 coordinates")
        if c & 1:
            raise UsageError("non-canonical c: first coordinate must be 0")
        if c.bit_count() & 1:
            raise UsageError("half-vector c must have even weight")
        _set_packed(self, c | eps << 16 | delta << 17 | sign << 18 | twist << 19)

    @classmethod
    def from_packed(cls, x: int) -> RXLabel:
        x &= _LABEL_BITS  # the flags need no check
        if x & 1:
            raise UsageError("non-canonical c: first coordinate must be 0")
        if (x & C_MASK).bit_count() & 1:
            raise UsageError("half-vector c must have even weight")
        return _label(x)

    twist = property(lambda self: self.packed >> 19 & 1)
    eps = property(lambda self: self.packed >> 16 & 1)
    c = property(lambda self: self.packed & C_MASK)
    delta = property(lambda self: self.packed >> 17 & 1)
    sign = property(lambda self: self.packed >> 18 & 1)

    def lam(self) -> tuple[int, int, int]:
        """The coset part (eps, c, delta), forgetting twist and sign."""
        x = self.packed
        return (x >> 16 & 1, x & C_MASK, x >> 17 & 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RXLabel:
            return self.packed == other.packed
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.packed)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (RXLabel.from_packed, (self.packed,))

    def __repr__(self) -> str:
        return (
            f"RXLabel(twist={self.twist}, eps={self.eps}, c={self.c}, "
            f"delta={self.delta}, sign={self.sign})"
        )


_set_packed = RXLabel.packed.__set__  # the slot's own setter, past __setattr__


def _label(x: int) -> RXLabel:
    """The label of a packed int already in normal form, unchecked.

    Only for ints this module makes in normal form; outside input goes
    through `RXLabel(...)` or `RXLabel.from_packed`.
    """
    label = object.__new__(RXLabel)
    _set_packed(label, x)
    return label


ZERO_PLUS = RXLabel(0, 0, 0, 0, 0)
ZERO_MINUS = RXLabel(0, 0, 0, 0, 1)
CHI0_PLUS = RXLabel(1, 0, 0, 0, 0)


def normal_form(twist: int, eps: int, c: int, delta: int, sign: int) -> RXLabel:
    """Canonicalize raw label fields (c may be any even-weight word)."""
    c &= C_MASK
    if c.bit_count() & 1:
        raise UsageError("c must have even weight")
    if c & 1:
        c ^= C_MASK  # complement flip; delta-neutral since wt(c) is even
    return RXLabel(twist & 1, eps & 1, c, delta & 1, sign & 1)


def label_from_w(w: Sequence[int], twist: int = 0, sign: int = 0) -> RXLabel:
    """Reduce a scaled dual-lattice vector to its label normal form."""
    if len(w) != N_COORDS:
        raise UsageError("w must have 16 coordinates")
    eps = w[0] & 1
    if any((wi & 1) != eps for wi in w):
        raise UsageError("w is not in the dual lattice: mixed parities")
    c = 0
    carry = 0
    for i, wi in enumerate(w):
        ui = (wi - eps) >> 1
        if ui & 1:
            c |= 1 << i
        carry += (ui - (ui & 1)) >> 1
    if c.bit_count() & 1:
        raise UsageError("w is not in the dual lattice: odd half-support")
    return normal_form(twist, eps, c, carry & 1, sign)


def label_to_w(label: RXLabel) -> tuple[int, ...]:
    """The canonical scaled representative eps*(1^16) + 2c + 4*delta*e1."""
    out = []
    for i in range(N_COORDS):
        wi = label.eps + 2 * ((label.c >> i) & 1)
        if i == 0:
            wi += 4 * label.delta
        out.append(wi)
    return tuple(out)


def _nu(x: int) -> int:
    """Coset norm mod 2 of a packed label (0 plays the role of the sign '+')."""
    if x & _EPS:
        return x >> 17 & 1
    return (x & C_MASK).bit_count() >> 1 & 1


def _qx(x: int) -> int:
    """The quadratic form on a packed label."""
    return x >> 18 & 1 if x & _TWIST else _nu(x)


def _add_packed(a: int, b: int) -> int:
    """The fusion product of two packed labels.

    The coset parts add with an integer-carry correction to delta; the sign
    cocycle for a product involving a twisted label is nu(coset of the
    twisted factor) + nu(coset of the sum), and for two twisted factors it
    is nu of both cosets.
    """
    s = a ^ b
    if (a & b & C_MASK).bit_count() & 1:
        s ^= _DELTA
    if (a | b) & _TWIST:
        if a & b & _TWIST:
            cocycle = _nu(a) ^ _nu(b)
        else:
            cocycle = _nu(a if a & _TWIST else b) ^ _nu(s)
        if cocycle:
            s ^= _SIGN
    return s


def nu(label: RXLabel) -> int:
    return _nu(label.packed)


def qx(label: RXLabel) -> int:
    """The quadratic form: weight one grading class of the module."""
    return _qx(label.packed)


def rx_add(a: RXLabel, b: RXLabel) -> RXLabel:
    """The fusion product; an elementary abelian group law of order 2^18."""
    # a sum of normal forms is one: c ^ c' keeps bit 0 clear and the weight
    # of c even, and every flag stays a single bit
    return _label(_add_packed(a.packed, b.packed))


def _reduce_coord(v: int) -> tuple[int, int, int]:
    """Reduce one scaled coordinate into [-2, 2] by steps of 4.

    Returns (t, parity of the steps, cost of the cheapest repair): moving t
    one more step changes t^2 by 16 from 0, by 8 from +-1 and by 0 from 2.
    """
    res = v % 4  # non-negative in Python
    t = (0, 1, 2, -1)[res]
    return t, (t - v) // 4 & 1, (16, 8, 0, 8)[res]


@functools.lru_cache(maxsize=1)
def _norm_tables() -> tuple[tuple[tuple[int, int, int, int, int, int], ...], ...]:
    """Byte tables of the coset decoder, one per eps, each entry holding
    both half-vector shifts.

    Entry b of table eps is (sq, parity, cheapest) for shift 0 followed by
    the same three for shift 2: the sum of t^2, the step parity and the
    cheapest repair over eight coordinates eps + 2 * c_i + shift whose bits
    c_i are those of b, each reduced by `_reduce_coord`.  Built on first
    use, not at import.
    """
    out = []
    for eps in (0, 1):
        coords = [[_reduce_coord(eps + 2 * bit + shift) for bit in (0, 1)] for shift in (0, 2)]
        table = []
        for byte in range(256):
            entry = ()
            for coord in coords:
                sq = parity = 0
                cheapest = 16
                for j in range(8):
                    t, steps, cost = coord[byte >> j & 1]
                    sq += t * t
                    parity ^= steps
                    cheapest = min(cheapest, cost)
                entry += (sq, parity, cheapest)
            table.append(entry)
        out.append(tuple(table))
    return tuple(out)


def coset_min_norm(label: RXLabel) -> int:
    """Minimum of |w'|^2/8 over the reduction-lattice coset of the label.

    Per-coordinate reduction into [-2, 2] for both half-vector shifts, with
    the cheapest single-coordinate repair when the even-sum parity fails;
    a +-2 residue makes the repair free.  The reduction is read from the
    byte table of eps, one lookup for each byte of c, each entry holding
    both shifts; delta adds 4 to coordinate 0, which only flips the step
    parity.  The tables come from the lattice rule alone, so this decoder
    checks the orbit table independently.
    """
    x = label.packed
    delta = x >> 17 & 1
    table = _norm_tables()[x >> 16 & 1]
    sq_lo0, par_lo0, cost_lo0, sq_lo2, par_lo2, cost_lo2 = table[x & 0xFF]
    sq_hi0, par_hi0, cost_hi0, sq_hi2, par_hi2, cost_hi2 = table[x >> 8 & 0xFF]
    # conditionals, not min(): the builtin call costs more than the compare
    best = sq_lo0 + sq_hi0  # shift 0
    if par_lo0 ^ par_hi0 ^ delta:
        best += cost_lo0 if cost_lo0 < cost_hi0 else cost_hi0
    total = sq_lo2 + sq_hi2  # shift 2
    if par_lo2 ^ par_hi2 ^ delta:
        total += cost_lo2 if cost_lo2 < cost_hi2 else cost_hi2
    if total < best:
        best = total
    if best % 8:
        raise FalsificationError(f"decoded squared length {best} is not a multiple of 8")
    return best // 8


def _row_table() -> bytes:
    """Orbit row of a packed label x at index (x >> 16) << 4 | wt(c).

    The row depends on the four flag bits and, for untwisted labels with
    eps = 0, on the weight of c: c = 0 is split by delta and sign, and
    otherwise min(wt, 16 - wt) = 2, 4, 6, 8 gives rows 3-6.  Odd weights
    never occur in a normal form and stay 0.
    """
    out = bytearray(16 << 4)
    for flags in range(16):
        eps, delta, sign, twist = (flags >> k & 1 for k in range(4))
        for wt in range(0, N_COORDS, 2):
            if twist:
                row = 7 if sign == 0 else 8
            elif eps:
                row = 7 if delta == 0 else 8
            elif wt == 0:
                row = 1 if (delta == 0 and sign == 0) else 2
            else:
                row = {2: 3, 4: 4, 6: 5, 8: 6}[min(wt, N_COORDS - wt)]
            out[flags << 4 | wt] = row
    return bytes(out)


_ROW_TABLE = _row_table()


def _row(x: int) -> int:
    """Orbit-table row of a packed label."""
    return _ROW_TABLE[(x >> 16) << 4 | (x & C_MASK).bit_count()]


def orbit_class(label: RXLabel, verify: bool = False) -> int:
    """Orbit-table row of a label; `TABLE_ROW_LOWEST2[row]` holds its
    doubled lowest weight and lowest dim.

    With verify=True the untwisted rows are cross-checked against the coset
    min-norm decoder (the zero coset is exempt: the sign splits it across
    rows 1 and 2 regardless of norms).
    """
    x = label.packed
    row = _ROW_TABLE[(x >> 16) << 4 | (x & C_MASK).bit_count()]  # _row, inlined on this hot path
    if verify and not x & _TWIST and x & (C_MASK | _EPS | _DELTA):
        if TABLE_ROW_LOWEST2[row][0] != coset_min_norm(label):
            raise FalsificationError(
                f"orbit table and min-norm decoder disagree on {label!r}"
            )
    return row


@functools.lru_cache(maxsize=1)
def canonical_c_values() -> tuple[int, ...]:
    out = [c for c in range(0, 1 << N_COORDS, 2) if c.bit_count() % 2 == 0]
    if len(out) != 1 << 14:
        raise FalsificationError("canonical half-vector census is off")
    return tuple(out)


def rx_census() -> tuple[int, ...]:
    """Classify every normal form; abort if the row sizes are off.

    The row of a normal form reads only its flags and wt(c), so each flag
    setting adds the weight histogram of the canonical c values.
    """
    weights = Counter(c.bit_count() for c in canonical_c_values())
    counts = [0] * 9
    for flags in range(16):
        for wt, mult in weights.items():
            counts[_ROW_TABLE[flags << 4 | wt]] += mult
    got = tuple(counts[1:])
    if got != TABLE_ROW_SIZES or sum(got) != 1 << 18:
        raise FalsificationError(f"orbit census mismatch: {got}")
    return got


def _pairing(x: int, y: int) -> int:
    return _qx(_add_packed(x, y)) ^ _qx(x) ^ _qx(y)


def pairing(a: RXLabel, b: RXLabel) -> int:
    """Polarization of qx under the fusion product."""
    return _pairing(a.packed, b.packed)


def random_label(rng: random.Random, twisted: bool | None = None) -> RXLabel:
    if twisted is None:
        twisted = rng.getrandbits(1)
    # rng.randrange(1 << 14) as Random draws it, without its argument
    # checks: n.bit_length() = 15 bits, drawn again while the result is >= n
    i = rng.getrandbits(15)
    while i >> 14:
        i = rng.getrandbits(15)
    c = canonical_c_values()[i]
    # eps, delta, sign in this order, so every seed draws the labels it always drew
    x = c | rng.getrandbits(1) << 16 | rng.getrandbits(1) << 17 | rng.getrandbits(1) << 18
    # a normal form: c is canonical by construction and each flag is one bit
    return _label(x | _TWIST if twisted else x)


class RXCoordinates:
    """Linear coordinates on the label group with its quadratic form.

    Eighteen group-independent labels are fixed; any label is decomposed by
    pairing against them and applying the rows of the inverse of their
    symmetric Gram matrix G.  The transported form lives on F_2^18 as a
    QuadraticSpace.
    """

    def __init__(self) -> None:
        basis = [RXLabel(0, 0, (1 << j) | (1 << (j + 1)), 0, 0) for j in range(1, 15)]
        basis += [RXLabel(0, 1, 0, 0, 0), RXLabel(0, 0, 0, 1, 0), ZERO_MINUS, CHI0_PLUS]
        self.basis = tuple(b.packed for b in basis)
        n = len(basis)
        self.gram_rows = tuple(
            sum(_pairing(self.basis[i], self.basis[j]) << j for j in range(n) if j != i)
            for i in range(n)
        )
        self.q_values = tuple(_qx(b) for b in self.basis)
        # [G | I] reduces to [I | G^-1] exactly when G is invertible
        rows = rref_ints(g | 1 << (n + i) for i, g in enumerate(self.gram_rows))
        if [r & ((1 << n) - 1) for r in rows] != [1 << i for i in range(n)]:
            raise FalsificationError("Gram matrix of the label basis is singular")
        self.inverse_rows = tuple(r >> n for r in rows)
        u_rows = []
        for i in range(n):
            row = self.q_values[i] << i
            for j in range(i + 1, n):
                row |= ((self.gram_rows[i] >> j) & 1) << j
            u_rows.append(row)
        self.space = QuadraticSpace(n, tuple(u_rows))
        for i, b in enumerate(basis):
            if self.to_coords(b) != 1 << i:
                raise FalsificationError("chosen label basis is group-dependent")

    def to_coords(self, label: RXLabel) -> int:
        pairings = sum(_pairing(label.packed, b) << i for i, b in enumerate(self.basis))
        return apply_map(self.inverse_rows, pairings)

    def packed_label(self, coords: int) -> int:
        """The packed label with these coordinates: a sum of basis labels."""
        out = 0
        m = coords
        while m:
            low = m & -m
            out = _add_packed(out, self.basis[low.bit_length() - 1])
            m ^= low
        return out

    def from_coords(self, coords: int) -> RXLabel:
        return RXLabel.from_packed(self.packed_label(coords))


@functools.lru_cache(maxsize=1)
def coordinatize() -> RXCoordinates:
    return RXCoordinates()


def _span_labels(basis: Sequence[int]) -> list[int]:
    """The packed label of every coefficient vector over basis, by doubling:
    entry i is the sum of the basis labels that the bits of i select."""
    labels = [0]
    for b in basis:
        labels += [_add_packed(x, b) for x in labels]
    return labels


@functools.lru_cache(maxsize=1)
def coordinate_row_table() -> bytes:
    """Orbit row of every label by its coordinates: entry x is
    `_row(coordinatize().packed_label(x))`.  Built on first use, not at
    import.

    The first 14 basis labels are untwisted half-vectors and the last four
    have c = 0, so the label of x is h + l: h spanned by the last four,
    l an untwisted label with eps = sign = 0 spanned by the first 14.  As
    c_h = 0, h + l carries nothing into delta, and the sign cocycle of a
    twisted h reads nu(h ^ l), which depends on l only through delta_l and
    wt(c_l).  So the row of h + l depends on l only through its _ROW_TABLE
    index, and each block of 2^14 entries is the indices of the l
    translated by one 256-byte map per h, built from one fusion product
    per index.  RXCoordinates proves its basis independent, so the
    coordinates reach every label once, and the row counts must be the
    orbit table's row sizes: a second label census, over coordinates
    instead of normal forms.
    """
    basis = coordinatize().basis
    if any(b & C_MASK for b in basis[14:]):
        raise FalsificationError("a flag label of the coordinate basis has a nonzero c")
    low = _span_labels(basis[:14])
    index = bytes([(x >> 16) << 4 | (x & C_MASK).bit_count() for x in low])
    sample = dict(zip(index, low))  # one l per index
    out = bytearray()
    for high in _span_labels(basis[14:]):
        rows = bytearray(256)
        for i, x in sample.items():
            rows[i] = _row(_add_packed(high, x))
        out += index.translate(rows)
    got = tuple(out.count(r) for r in range(1, 9))
    if got != TABLE_ROW_SIZES:
        raise FalsificationError(f"coordinate row census mismatch: {got}")
    return bytes(out)


# ---------------------------------------------------------------------------
# the 10-dimensional abstract factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RVModel:
    """Abstract model of the small label space: the standard dim-10 form.

    All downstream computations use only the form and the lowest-weight
    classifier: zero label -> (0, 1); nonzero singular -> (1, 8);
    nonsingular -> (1/2, 1).
    """

    space: QuadraticSpace

    @functools.cached_property
    def lowest2(self) -> bytes:
        """Doubled lowest weight of every label: 0 zero, 2 nonzero singular,
        1 nonsingular; the lowest dim is RV_DIM[lowest2[v]]."""
        return bytes(
            2 - self.space.q(v) if v else 0 for v in range(1 << self.space.dim)
        )

    def lowest(self, v: int) -> tuple[Fraction, int]:
        lw2 = self.lowest2[v]
        return (Fraction(lw2, 2), RV_DIM[lw2])


@functools.lru_cache(maxsize=1)
def rv_model() -> RVModel:
    return RVModel(standard_plus(10))

