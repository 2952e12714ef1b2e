"""The numpy field kernel of ``experiments.write_csv``: the bytes of
``"%.9g" % v`` for a column of values at once.

``write_csv`` imports this module at its first call, so ``import pendraw``
neither compiles it nor builds its tables. Its functions are private, so a
traced benchmark run (``perfbench/run.py --trace 1``) counts their time as
``write_csv``'s own.

Every byte a field might use is written into slots, in output order, as four
8-byte words per field, and a mask keeps the ones its text uses:

    0..5    '-0.000': the sign, and the lead of 1e-4 <= |x| < 1
    6..22   the 9 significant digits, with a '.' slot after each of the
            first 8
    23..27  'e', the exponent's sign and 3 exponent digits
    28..31  the first 4 bytes of the text that follows the field

Each word is one table lookup: the first on digit 0, the next two on digits
1-4 and 5-8, the last on the exponent; the mask words are lookups on the
field's shape (sign, exponent class, significant digits). The tables are
built as bytes and read as native uint64, so no byte order is assumed.

The decimal exponent e is floor(log10 |x|) and the mantissa rint(|x|
10^(8-e)). A mantissa that rounds to 1e9 carries one into e. Where log10,
good to a few ulp, lands on the wrong side of a power of ten, |x| is within
1e-12 of it, so the mantissa rounds to 1e8 (e one too high) or carries from
1e9 (e one too low), and e is right either way; a mantissa outside
[1e8, 1e9] is not certified. The text is certified for zero and for
magnitudes in ``CERTIFIED`` whose scaled mantissa is not within
``TIE_MARGIN`` of a rounding half-way point; ``write_csv`` leaves the rest
to ``format_number``.
"""

from __future__ import annotations

import numpy as np

_WORD = 8
_DIGITS, _EXP, _TAIL = 6, 23, 28
# the shape of a field: its sign, one class per fixed-notation exponent
# -4..8, two for exponent notation (2 or 3 exponent digits), and its number
# of significant digits 1..9
_CLASSES = 15
# decimal exponents of the tables: 10^(8 - e) is finite over CERTIFIED, and
# a product with it rounds once
_POW_SPAN = 310
CERTIFIED = (1e-299, 1.7976931348623157e308)
# |scaled mantissa - nearest integer| must stay this far from 1/2: the
# scaling is good to 2.3e-16 relative, 2.3e-7 at the mantissa's 1e9
TIE_MARGIN = 1e-6


def _words(rows) -> np.ndarray:
    """A copy of rows of 8 bytes each, as native uint64 words."""
    return np.array(rows, np.uint8).view(np.uint64)[:, 0]


def _slot_mask(neg: bool, cls: int, n_sig: int) -> np.ndarray:
    """The slots that ``%.9g`` uses for a field of this shape."""
    keep = [0] if neg else []
    digits = [_DIGITS + 2 * k for k in range(9)]
    if cls >= 13:                       # d.ddddddde+XX or e+XXX
        keep += digits[:n_sig] + [_EXP, _EXP + 1, _EXP + 3, _EXP + 4]
        keep += [_DIGITS + 1] * (n_sig > 1) + [_EXP + 2] * (cls == 14)
    elif cls < 4:                       # 0.000ddd, exponent cls - 4
        keep += [1, 2, *range(3, 6 - cls)] + digits[:n_sig]
    else:                               # ddd.ddd, exponent cls - 4
        point = cls - 4
        keep += digits[:max(point + 1, n_sig)]
        keep += [_DIGITS + 2 * point + 1] * (n_sig > point + 1)
    mask = np.zeros(4 * _WORD, bool)
    mask[keep] = True
    return mask


_k = np.arange(10000, dtype=np.int16)
_x = np.arange(-_POW_SPAN, _POW_SPAN + 1)
# 10^x, correctly rounded
_POW10 = np.array([float(f"1e{x}") for x in _x.tolist()])
_quad = np.full((_k.size, _WORD), ord("."), np.uint8)
_quad[:, ::2] = np.stack([_k // 1000, _k // 100 % 10, _k // 10 % 10, _k % 10],
                         axis=1) + ord("0")
# '-0.000', digit 0, '.'; 'd.d.d.d.' for 0..9999; the same ending in 'e'
_LEAD = _words(np.hstack((np.frombuffer(b"-0.000" * 10, np.uint8)
                          .reshape(10, 6), _quad[:10, 6:])))
_QUAD = _words(_quad)
_quad[:, -1] = ord("e")
_QUAD_E = _words(_quad)
# the exponent's sign and 3 digits
_expo = np.zeros((_x.size, _WORD), np.uint8)
_expo[:, 0] = np.where(_x < 0, ord("-"), ord("+"))
_expo[:, 1:4] = _quad[np.abs(_x), 2::2]
_EXPO = _words(_expo)
# trailing zeros of 0..9999 (4 for 0)
_ZEROS = ((_k % 10 == 0) * 1 + (_k % 100 == 0) + (_k % 1000 == 0)
          + (_k == 0)).astype(np.int8)
# the shape of 9 significant digits at each exponent; trailing zeros lower it
_EXP_SHAPES = 9 * np.where((_x >= -4) & (_x < 9), _x + 4,
                           13 + (np.abs(_x) >= 100)) + 8
# the four mask words of each shape
_MASKS = np.array([_slot_mask(neg, cls, n_sig) for neg in (False, True)
                   for cls in range(_CLASSES) for n_sig in range(1, 10)]
                  ).view(np.uint64).T.copy()
del _k, _x, _quad, _expo


def _padded(text: bytes, skip: int = 0):
    """(bytes, mask) of ``text`` after ``skip`` blank bytes, both padded to
    whole words."""
    size = -(-(skip + len(text)) // _WORD) * _WORD
    data = np.zeros(size, np.uint8)
    data[skip:skip + len(text)] = np.frombuffer(text, np.uint8)
    keep = np.zeros(size, bool)
    keep[skip:skip + len(text)] = True
    return data.view(np.uint64), keep.view(np.uint64)


def _row_layout(texts, rows: int):
    """The words of ``rows`` rows whose field j follows ``texts[j]`` and the
    last field is followed by ``texts[-1]``: the text before the first field,
    then per field three slot words and its tail, the exponent slots and the
    text after the field. Returns (words, mask words, fields), the words and
    masks as (rows, n) uint64 with every text in place, and per field its
    (slice of four words, tail tables) for ``_g9``."""
    pieces = [_padded(texts[0].encode())]
    fields = []
    for text in texts[1:]:
        data, keep = _padded(text.encode(), _TAIL - 3 * _WORD)
        at = sum(p[0].size for p in pieces)
        fields.append((slice(at, at + 4),
                       (_EXPO | data[0], _MASKS[3] | keep[0])))
        pieces += [(np.zeros(3, np.uint64),) * 2, (data, keep)]
    words = np.tile(np.concatenate([p[0] for p in pieces]), (rows, 1))
    masks = np.tile(np.concatenate([p[1] for p in pieces]), (rows, 1))
    return words, masks, fields


def _g9(x: np.ndarray, words: np.ndarray, masks: np.ndarray, tail):
    """``"%.9g" % v`` for every value of the float64 array ``x``, written
    into the four slot words per row ``words`` and their mask words
    ``masks``; ``tail`` holds the exponent and shape-mask tables with the
    text after the field in their last four bytes (``_row_layout``). Returns
    where the text is certified."""
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= CERTIFIED[0]) & (a <= CERTIFIED[1])
    a[~ok] = 1.0                        # a stand-in for log10 and the scaling
    ok |= zero
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    s = a * _POW10.take(_POW_SPAN + 8 - e)
    m = np.rint(s)
    s -= m
    np.abs(s, out=s)
    ok &= (s < 0.5 - TIE_MARGIN) & (m >= 1e8) & (m <= 1e9)
    carry = m >= 1e9                    # 999999999.5 and up rounds to 1e9
    m[carry] = 1e8
    e += carry
    m[zero] = 0.0
    e[zero] = 0
    # m = d0 10^8 + q 10^4 + r; the quotients of exact integers by 1e8 and
    # 1e4 are exact where whole, so their floors are the digit groups
    d0 = np.floor(m / 1e8)
    m -= d0 * 1e8
    q = np.floor(m / 1e4)
    m -= q * 1e4
    d0, q, r = d0.astype(np.intp), q.astype(np.intp), m.astype(np.intp)
    e += _POW_SPAN
    words[:, 0] = _LEAD.take(d0)
    words[:, 1] = _QUAD.take(q)
    words[:, 2] = _QUAD_E.take(r)
    words[:, 3] = tail[0].take(e)
    # trailing zeros of digits 1-8: digit 0 is not zero, or the value is
    # zero, with one significant digit
    shape = _EXP_SHAPES.take(e) - _ZEROS.take(r)
    shape -= (r == 0) * _ZEROS.take(q)
    shape += np.signbit(x) * (9 * _CLASSES)
    for j in range(3):
        masks[:, j] = _MASKS[j].take(shape)
    masks[:, 3] = tail[1].take(shape)
    return ok
