"""`b"%.17g" % x` for a whole float64 array at once, byte for byte.

For x != 0 let e = floor(log10|x|) and s = 16 - e. Then |x|·10^s lies in
[10^16, 10^17), and its integer part D, rounded half to even on the exact
binary value, holds the 17 significant digits that "%.17g" prints. The fast
path takes 1e-27 <= |x| < 1e16, where 0 <= s <= 44 however log10 rounds its
last bit, and computes |x|·10^s exactly in float64:

  * b = |x|·2^s is exact;
  * 5^s = P1 + P2 exactly, as two doubles (5^44 < 2^106);
  * b·P1 = H + L exactly, Dekker's two-product with a Veltkamp split (numpy
    never fuses a multiply and an add, so no FMA changes the bits);
  * b·P2 is below 2^4 and rounded once, L + b·P2 once more, so the fraction
    part of H + L + b·P2 is off by less than 2^-48.

An element whose answer could depend on that error, or on the last bit of
log10, takes `b"%.17g" % x` instead: a fraction within FRACTION_TIE_BAND of
1/2 (which covers exact ties), an integer part outside [10^16, 10^17 - 1)
(log10 off by one, or a round up to 10^17), and zero, NaN, +-inf and |x| out
of range. So the fast path prints e as the decimal exponent.

A value's row is 48 bytes, six little-endian words, with a fixed place for
everything "%.17g" can print: the sign, the "0.000" prefix of the fixed
form, the 17 digits with a slot for the point after each, and the exponent
suffix. Table lookups fill the words with every part a value could print,
and one mask, indexed by the count of significant digits, the place of the
point and the sign, sets to NUL what it does not print: trailing zeros
after the point, the point when no digit follows it, a minus sign of a
positive value and the unused slots. So a row spells the value once its
NULs are removed, and rows pack into text in one pass.

Past log10 and the mask's bitwise and, the fast path keeps to float64
arithmetic and table lookups, numpy code that a run of the engine has
already paged in, so formatting adds little resident code to a process.
"""

from __future__ import annotations

import functools
import struct
from types import SimpleNamespace

import numpy as np

S_MAX = 44  # largest s = 16 - e of the fast path: 5**44 < 2**106
FAST_MIN, FAST_MAX = 1e-27, 1e16  # |x| of the fast path
FRACTION_TIE_BAND = 1e-9
WIDTH = 48

_WORD = np.dtype("<u8")
_VELTKAMP = 2.0 ** 27 + 1


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each of 26 bits or fewer."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _words(strings) -> np.ndarray:
    """Each string NUL-padded to 8 bytes, read as one little-endian word."""
    return np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in strings), _WORD)


def _keep_mask(significant: int, point_after: int, negative: int) -> bytes:
    """The mask bytes of words 0-4 of a row with `significant` digits up to
    the last nonzero one and `point_after` digits before the point (0 when
    the point is in the prefix); the sign passes for a negative value, the
    prefix always."""
    kept = max(significant, point_after)
    digits = bytearray(34)  # digit i at 2i, the point's slot after it at 2i + 1
    digits[0:2 * kept:2] = b"\xff" * kept
    if 0 < point_after < significant:
        digits[2 * point_after - 1] = 0xFF
    return (b"\xff" if negative else b"\0") + b"\xff" * 5 + digits


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use from Python ints and bytes: a
    process that never formats pays nothing for them."""
    five = [5 ** s for s in range(S_MAX + 1)]
    p1 = np.array([float(p) for p in five])
    p2 = np.array([float(p - int(q)) for p, q in zip(five, p1)])
    exponents = range(16, 16 - S_MAX - 1, -1)  # e = 16 - s

    # the four digits of q = 100a + b, each followed by a point: the pairs
    # of a in bytes 0-3, those of b in bytes 4-7
    two = b"".join(b"%d.%d." % divmod(i, 10) for i in range(100))
    pairs = bytearray(8 * 10 ** 4)
    for k in range(4):
        pairs[k::8] = b"".join(bytes([c]) * 100 for c in two[k::4])
        pairs[4 + k::8] = two[k::4] * 100
    # the place of q's last nonzero digit, 1-4, and -100 for q = 0
    last2 = [0] + [2 if i % 10 else 1 for i in range(1, 100)]
    double = {v: struct.pack("<d", v) for v in range(-100, 5)}
    rest = b"".join(double[2 + v] for v in last2[1:])
    last = b"".join(double[v or -100] + rest for v in last2)

    return SimpleNamespace(
        # indexed by s: 2^s and 5^s = P1 + P2, with P1's two halves
        scale=np.stack([[2.0 ** s for s in range(S_MAX + 1)], p1, *_split(p1), p2]),
        # word 0, indexed by 11 * s + the leading digit: sign, prefix (5
        # bytes), leading digit, the point's slot after it. A leading "digit"
        # 10 (":") comes only where not ok, from a D that rounds up to 10^17
        head=_words([f"-{'0.' + '0' * (-e - 1) if -4 <= e < 0 else '':\0<5}{chr(48 + d)}."
                     for e in exponents for d in range(11)]),
        # words 1-4: four digits each, every one followed by its point's slot
        pairs=np.frombuffer(pairs, _WORD),
        # word 5, indexed by s: the exponent suffix
        tail=_words([f"e{e:+03d}" if e < -4 else "" for e in exponents]),
        # indexed by s: the count of digits before the point
        point_after=np.array([max(e + 1, 0) if e >= -4 else 1 for e in exponents], dtype=float),
        # last[q] plus group g's offset 1 + 4g: the count of digits up to
        # the last nonzero one in group g of digits 1-16, negative for q = 0
        last=np.frombuffer(last, "<f8"),
        group_offset=np.array([[1.0], [5.0], [9.0], [13.0]]),
        # column 2 * (18 * significant + point_after) + negative holds the
        # mask of words 0-4; word 5 always passes
        keep=np.frombuffer(b"".join(_keep_mask(n, p, neg) for n in range(18) for p in range(18)
                                    for neg in (0, 1)),
                           _WORD).reshape(2 * 18 * 18, 5).T.copy(),
    )


def _scaled(x: np.ndarray, t: SimpleNamespace):
    """(hi, lo, s, ok): D = hi·10^8 + lo is |x|·10^s rounded to an integer,
    for s = 16 - e, wherever ok: there D is exact and has 17 digits. hi, lo
    and s are integer-valued floats; where not ok, hi and lo are meaningless
    and s is in range."""
    a = np.abs(x)
    ok = (a >= FAST_MIN) & (a < FAST_MAX)  # False for NaN
    a[~ok] = 1.0
    s = 16 - np.floor(np.log10(a))
    pow2, p1, p1_hi, p1_lo, p2 = t.scale.take(s.astype(np.intp), axis=1)

    b = a * pow2
    b_hi, b_lo = _split(b)
    h = b * p1
    r = (((b_hi * p1_hi - h) + b_hi * p1_lo + b_lo * p1_hi) + b_lo * p1_lo) + b * p2
    r_floor = np.floor(r)
    frac = r - r_floor
    # the integer part h + r_floor must lie in [10^16, 10^17 - 1). Near a
    # bound, h minus the bound is exact (Sterbenz) and so is adding r_floor;
    # far from it the sign cannot flip
    ok &= (((h - 1e16) + r_floor >= 0) & ((h - 1e17) + r_floor < -1)
           & (np.abs(frac - 0.5) > FRACTION_TIE_BAND))
    # D = h + floor(r + 1/2), with h an integer wherever ok, and floor(r +
    # 1/2) r rounded to nearest outside the tie band: h splits at 10^8
    # exactly, then the low part takes the small rest and its carry
    hi = np.floor(h / 1e8)
    lo = h - hi * 1e8
    lo += np.floor(r + 0.5)
    carry = np.floor(lo / 1e8)
    hi += carry
    lo -= carry * 1e8
    return hi, lo, s, ok


def fast_path(x: np.ndarray):
    """(out, ok) for a 1-d float64 array x: out[i] is row i of
    `format_g17(x)` wherever ok[i]; elsewhere it is meaningless, and x[i]
    needs the fallback."""
    t = _tables()
    hi, lo, s, ok = _scaled(x, t)
    # lookup indices: word 0's, from s and the leading digit, then digits
    # 1-16 in four groups of four, then s
    index = np.empty((6, x.size))
    lead = np.floor(hi / 1e8)
    hi -= lead * 1e8
    index[0] = 11 * s + lead
    index[1] = np.floor(hi / 1e4)
    index[2] = hi - index[1] * 1e4
    index[3] = np.floor(lo / 1e4)
    index[4] = lo - index[3] * 1e4
    index[5] = s
    index = index.astype(np.intp)
    head, quads, s = index[0], index[1:5], index[5]
    # the count of digits up to the last nonzero one, the place of the
    # point and the sign pick the mask
    significant = np.maximum((t.last.take(quads) + t.group_offset).max(axis=0), 1.0)
    keep = (significant * 18 + t.point_after.take(s)) * 2 + np.where(x < 0, 1.0, 0.0)
    keep = keep.astype(np.intp)

    # word j of every value in row j, one contiguous row per step
    words = np.empty((WIDTH // 8, x.size), _WORD)
    t.head.take(head, out=words[0], mode="clip")
    t.pairs.take(quads, out=words[1:5], mode="clip")
    t.tail.take(s, out=words[5], mode="clip")
    for j in range(5):
        words[j] &= t.keep[j].take(keep)
    return np.ascontiguousarray(words.T).view(np.uint8), ok


def format_g17(x) -> np.ndarray:
    """"%.17g" of each element of float64 array x, as a (x.size, WIDTH)
    uint8 matrix: row i with its NULs removed is `b"%.17g" % x[i]`."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out, ok = fast_path(x)
    for i in np.flatnonzero(~ok):
        text = b"%.17g" % float(x[i])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out
