"""Trace rows as '%d,%.17g,...' text, built exactly in numpy where it can be.

For a value whose '%.17g' exponent E lies in -6..16, 10**(16 - E) is an
exact double, so Dekker's TwoProduct (Numer. Math. 18, 1971) gives
|v| * 10**(16 - E) as hi + lo exactly; hi + lo rounded half-even to an
integer holds the 17 digits of CPython's correctly rounded conversion.
"""

import numpy as np

_ROW_CHUNK = 2048  # trace rows converted and written at a time
_POW10 = 10.0 ** np.arange(23)  # exact: 5**22 < 2**53
_PLACES = 10 ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]


def _split(a):  # Veltkamp: a == hi + lo, halves that multiply exactly
    c = (2.0 ** 27 + 1) * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# the least double at or above 10**E for E = -6..17, whose count at or below
# a double, less 7, is its decade; of these powers only 1e-6 rounds down
_DECADES = np.array([np.nextafter(1e-6, 1)] + [float(f"1e{E}") for E in range(-5, 18)])


def _decimal(v, E):
    """(N, E): |v| rounded half-even to N * 10**(E - 16) with 10**16 <= N <
    10**17, for v whose decade E lies in -6..16."""
    a, k = np.abs(v), 16 - E
    hi, (ah, al) = a * _POW10[k], _split(a)
    lo = ((ah * _POW10_HI[k] - hi) + ah * _POW10_LO[k] + al * _POW10_HI[k]) \
        + al * _POW10_LO[k]  # Dekker's TwoProduct: hi + lo == a * 10**k
    base = np.floor(lo)  # |lo| <= 8, half an ulp of hi, so this is exact
    N = hi.astype(np.int64) + base.astype(np.int64)
    N += (lo - base > 0.5) | ((lo - base == 0.5) & (N % 2 == 1))
    carry = N == 10 ** 17  # never at E = 16, where |v| is an integer
    N[carry] = 10 ** 16
    return N, E + carry


def _float_rows(v, N, E):
    """'%.17g' of each value, a uint8 row per character (0: none there)."""
    D = np.empty((2, 9, v.size), np.uint8)
    for d, h in zip(D, (N // 10 ** 9, N % 10 ** 9)):  # 8 + 9 digits
        # h // 10**(8 - i) as uint8, less 10 times the row above: the digit
        np.floor_divide(h.astype(np.uint32), _PLACES, out=d, casting="unsafe")
        d[1:] -= 10 * d[:-1]
    D = D.reshape(18, v.size)[1:]
    tail = D != 0  # tail[i]: a nonzero digit at i or later
    for i in range(15, -1, -1):
        tail[i] |= tail[i + 1]
    D += 48
    D *= tail | (np.arange(17)[:, None] <= E)  # integer-part zeros stay
    rows = [45 * (v < 0).view(np.uint8)[None]]
    lead = (E < 0) & (E >= -4)  # "0." and -E - 1 zeros before the digits
    if lead.any():
        rows.append(np.array([48, 46, 48, 48, 48], np.uint8)[:, None]
                    * (lead & (np.arange(5)[:, None] < 1 - E)))
    point = np.where(E >= 0, E, np.where(E < -4, 0, -1))  # after digit point
    slots = min(int(point.max()) + 1, 16)
    for i in range(slots):
        rows += [D[i:i + 1], 46 * ((point == i) & tail[i + 1]).view(np.uint8)[None]]
    rows.append(D[slots:])
    small = E < -4  # "e-0" and the exponent's digit after them
    if small.any():
        rows += [np.array([101, 45, 48], np.uint8)[:, None] * small,
                 ((48 - E) * small).astype(np.uint8)[None]]
    return rows


def encode_rows(n, eta, states):
    """The bytes that "%d,%.17g" + ",%.17g" * D + "\\n" writes for the rows
    (n, eta, states), or None when n holds a negative count or a float
    column holds +-0, inf, NaN or a value that '%.17g' prints with an
    exponent outside -6..16. An eta column that holds one value (a const:
    schedule) is formatted once, so that value may lie anywhere."""
    n, eta = np.asarray(n, dtype=np.int64), np.asarray(eta, dtype=float)
    const = (eta == eta[0]).all()
    cols = ([] if const else [eta]) + list(np.asarray(states, dtype=float).T)
    if n.min() < 0:
        return None
    decades = []
    for v in cols:  # every range first: a declined block builds no text
        E = np.searchsorted(_DECADES, np.abs(v), side="right") - 7  # NaN last
        if E.min() < -6 or E.max() > 16:
            return None
        decades.append(E)
    places = 10 ** np.arange(len(str(n.max())) - 1, -1, -1)[:, None]
    digits = np.empty((places.size, n.size), np.uint8)
    np.floor_divide(n, places, out=digits, casting="unsafe")
    digits[1:] -= 10 * digits[:-1]  # as in _float_rows
    digits += 48 * ((n >= places) | (places == 1)).view(np.uint8)
    rows, comma = [digits], np.full((1, n.size), 44, np.uint8)
    if const:
        text = np.frombuffer(format(eta[0], ".17g").encode("ascii"), np.uint8)
        rows += [comma, np.broadcast_to(text[:, None], (text.size, n.size))]
    for v, E in zip(cols, decades):
        rows += [comma, *_float_rows(v, *_decimal(v, E))]
    block = np.concatenate(rows + [np.full((1, n.size), 10, np.uint8)]).T
    return block.tobytes().translate(None, b"\0")  # one compaction


def write_rows(fh, n, eta, states):
    """Write the rows (n, eta, states) to the binary file fh, _ROW_CHUNK at
    a time, through encode_rows or, for a chunk it declines, the '%'
    template, whose '%.17g' is format(v, '.17g'): the same bytes."""
    row = "%d,%.17g" + ",%.17g" * states.shape[1] + "\n"
    for lo in range(0, len(n), _ROW_CHUNK):
        ns, es, xs = (a[lo:lo + _ROW_CHUNK] for a in (n, eta, states))
        text = encode_rows(ns, es, xs)
        if text is None:
            text = "".join(map(row.__mod__, zip(
                ns.tolist(), es.tolist(), *xs.T.tolist()))).encode("ascii")
        fh.write(text)
