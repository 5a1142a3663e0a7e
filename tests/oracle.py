"""Slow per-bit reference for codeword flip counts and trace rates.

Written independently of ``robinsim.mapping`` and ``robinsim.reliability``:
each bit's owner comes from the scheme definitions below, each codeword's
dataword is built slot by slot in ascending flat order and encoded with the
scalar ``secded.encode``, and rates use plain Python float arithmetic.
"""

from robinsim import secded


def owner(kind, flat):
    """Codeword that owns flat bit ``64*word + 8*byte + pos``."""
    word, byte, pos = flat // 64, (flat // 8) % 8, flat % 8
    if kind == "per-word":
        return word
    if kind == "interleaved":
        return pos
    # robin: codeword n owns position (word + byte + n) mod 8 of each byte
    for n in range(8):
        if (word + byte + n) % 8 == pos:
            return n
    raise AssertionError("unreachable")


def flip_counts(kind, old, new, include_ecc):
    """(data flips, check flips or None) per codeword for one write, bit by bit."""
    data = [0] * 8
    old_words, new_words, slots = [0] * 8, [0] * 8, [0] * 8
    for flat in range(512):
        n = owner(kind, flat)
        a = (old[flat // 8] >> (flat % 8)) & 1
        b = (new[flat // 8] >> (flat % 8)) & 1
        old_words[n] |= a << slots[n]
        new_words[n] |= b << slots[n]
        slots[n] += 1
        data[n] += a ^ b
    if not include_ecc:
        return data, None
    check = [bin(secded.encode(a) ^ secded.encode(b)).count("1") for a, b in zip(old_words, new_words)]
    return data, check


def codeword_success(k, pw):
    """At most one of k transitioning cells fails; k may be real-valued."""
    if k == 0:
        return 1.0
    return pw**k + k * pw ** (k - 1) * (1.0 - pw)


def trace_rates(rows, pw):
    """(mean block failure, uniform K/8 bound, integer floor/ceil bound) over count rows."""
    failure = optimal = optimal_int = 0.0
    for row in rows:
        success = 1.0
        for k in row:
            success *= codeword_success(k, pw)
        failure += 1.0 - success
        total = sum(row)
        optimal += 1.0 - codeword_success(total / 8, pw) ** 8
        base, extra = divmod(total, 8)
        optimal_int += 1.0 - codeword_success(base + 1, pw) ** extra * codeword_success(base, pw) ** (8 - extra)
    return failure / len(rows), optimal / len(rows), optimal_int / len(rows)


def spread(rows):
    """(mean min %, mean max %) of each nonzero write's counts over its uniform share."""
    mins, maxs = [], []
    for row in rows:
        total = sum(row)
        if total:
            mins.append(min(row) * 800.0 / total)
            maxs.append(max(row) * 800.0 / total)
    return sum(mins) / len(mins), sum(maxs) / len(maxs)
