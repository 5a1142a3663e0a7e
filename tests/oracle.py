"""Slow references: payloads as flat bit vectors, the SEC-DED check bits and
decoder, each codeword's flat bits and dataword, per-bit codeword flip counts
and trace rates, the v2 workload stream, a trace-file loader, Monte Carlo
classified one record at a time, one injected write, and the per-scheme
batch fold that ``robinsim.reliability.TraceAccumulator`` replaced.

Written independently of ``robinsim.secded``, ``robinsim.mapping``,
``robinsim.reliability``, ``robinsim.workloads`` and ``robinsim.trace``: the
code's columns are recomputed from their definition, a dataword is encoded
one bit at a time over GF(2) and a syndrome decoded by searching the 72
columns, each bit's owner comes from the scheme definitions below, each
codeword's dataword is built slot by slot in ascending flat order, rates use
plain Python float arithmetic, workload records are computed one at a time
with Python ints, and trace files are parsed one record at a time. The Monte
Carlo reference places every failing cell one gap at a time with Python-int
splitmix64 and classifies each record's trial chunks on their own; one
injected write places its failing cells the same way, over its data and
check cells taken one at a time. The per-scheme fold is the exception: it is
the package's earlier code, kept to pin the accumulator's float order, and
reads the package's own closed-form tables; it takes the kernel's counts and
converts them to int64 itself.
"""

import functools
import itertools
import json
import math

import numpy as np

from robinsim.reliability import CodewordStats, TraceErrorRate, _rate_tables


def block_to_bits(data):
    """Unpack a 64-byte payload into a 512-element 0/1 vector indexed by flat position."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


def bits_to_block(bits):
    """Pack a 512-element 0/1 vector, indexed by flat position, into a 64-byte payload."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def data_columns():
    """SEC-DED(72, 64) data columns: weight-3 bytes ascending, then the 8 smallest weight-5 bytes."""
    weight3 = [v for v in range(256) if bin(v).count("1") == 3]
    weight5 = sorted(v for v in range(256) if bin(v).count("1") == 5)
    return tuple(weight3 + weight5[:8])


DATA_COLUMNS = data_columns()


def encode(data):
    """Check bits of a 64-bit dataword: the GF(2) sum of the columns of its set bits."""
    check = 0
    for slot in range(64):
        if (data >> slot) & 1:
            check ^= DATA_COLUMNS[slot]
    return check


# H's columns by codeword bit: data slots 0..63, then check bits 64..71
COLUMNS = DATA_COLUMNS + tuple(1 << r for r in range(8))


def repair(data, check):
    """(syndrome, corrected bit or -1, data, check) of a received codeword.

    The corrected bit is the one whose column equals the syndrome; the
    returned words have it flipped.
    """
    syndrome = encode(data) ^ check
    bit = COLUMNS.index(syndrome) if syndrome in COLUMNS else -1
    if 0 <= bit < 64:
        data ^= 1 << bit
    elif bit >= 64:
        check ^= 1 << (bit - 64)
    return syndrome, bit, data, check


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


@functools.lru_cache(maxsize=None)
def codeword_bits(kind, n):
    """The 64 flat bits codeword n owns, ascending (its dataword's slot order), as a tuple."""
    return tuple(flat for flat in range(512) if owner(kind, flat) == n)


def datawords(kind, payload):
    """The eight datawords of a 64-byte payload, codeword n's built slot by slot from its flat bits."""
    return [
        sum((payload[flat // 8] >> (flat % 8) & 1) << slot for slot, flat in enumerate(codeword_bits(kind, n)))
        for n in range(8)
    ]


def flip_counts(kind, old, new, include_ecc):
    """(data flips, check flips or None) per codeword for one write, bit by bit."""
    data = [0] * 8
    for flat in range(512):
        data[owner(kind, flat)] += (old[flat // 8] ^ new[flat // 8]) >> (flat % 8) & 1
    if not include_ecc:
        return data, None
    check = [bin(encode(a) ^ encode(b)).count("1") for a, b in zip(datawords(kind, old), datawords(kind, new))]
    return data, check


def codeword_success(k, pw):
    """At most one of k transitioning cells fails; k may be real-valued."""
    if k == 0:
        return 1.0
    return pw**k + k * pw ** (k - 1) * (1.0 - pw)


def trace_rates(rows, pw):
    """(mean block failure, uniform K/8 bound) over count rows."""
    failure = optimal = 0.0
    for row in rows:
        success = 1.0
        for k in row:
            success *= codeword_success(k, pw)
        failure += 1.0 - success
        optimal += 1.0 - codeword_success(sum(row) / 8, pw) ** 8
    return failure / len(rows), optimal / len(rows)


def spread(rows):
    """(mean min %, mean max %) of each nonzero write's counts over its uniform share."""
    mins, maxs = [], []
    for row in rows:
        total = sum(row)
        if total:
            mins.append(min(row) * 800.0 / total)
            maxs.append(max(row) * 800.0 / total)
    return sum(mins) / len(mins), sum(maxs) / len(maxs)

# -- v2 workload stream, one record at a time ---------------------------------
#
# The specification of ``robinsim.workloads.gen_workload``. Every random number
# is output ``position`` of a splitmix64 stream: record r reads positions
# 17r .. 17r+16 of the stream keyed splitmix(seed, 0) (the address, then 16
# payload draws), and address index i sets up its state from positions
# 16i .. 16i+15 of the stream keyed splitmix(seed, 1) on its first write.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_RECORD_DRAWS = 17   # address, then 16 payload draws
_COLD_DRAWS = 16
_LO = 0x3FD0000000000000      # bit pattern of 0.25
_WIDTH = 5 << 52              # 0.25 .. 8.0: five binades of bit patterns
_TOP_LOG2 = 50 << 16          # step magnitudes stay below 2^50


def splitmix(key, position):
    """Output ``position`` (from 0) of the splitmix64 stream keyed ``key``."""
    z = (key + (position + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _normal16(u):
    """Irwin-Hall sum of three 16-bit lanes: mean 0, std 2^16, range +-3 std."""
    return 2 * ((u & 0xFFFF) + ((u >> 16) & 0xFFFF) + ((u >> 32) & 0xFFFF)) - 196605


def _walk_delta(spec, u_size, u_noise):
    base = round((52 + math.log2(spec.walk_scale)) * 65536)
    jitter = round(min(spec.walk_jitter, 64.0) * 65536)
    log2_size = min(max(base + ((jitter * _normal16(u_size)) >> 16), 0), _TOP_LOG2 - 1)
    # size * noise, with size = 2^(log2_size / 2^16): 2^f of the fraction f from a
    # cubic in 16-bit fixed point; 17 dither bits fill the bits below the product
    frac = log2_size & 0xFFFF
    mantissa = 0x10000 + (((((5186 * frac >> 16) + 14742) * frac >> 16) + 45608) * frac >> 16)
    dither = ((u_size >> 48) | ((u_noise >> 48) << 16)) & 0x1FFFF
    return ((mantissa * _normal16(u_noise) << 17) + dither) >> (49 - (log2_size >> 16))


def workload_stream(spec, seed):
    """(addr, payload bytes) of every record of the v2 stream, computed record by record."""
    record_key, cold_key = splitmix(seed, 0), splitmix(seed, 1)
    states = {}
    for r in range(spec.records):
        draws = [splitmix(record_key, _RECORD_DRAWS * r + j) for j in range(_RECORD_DRAWS)]
        index = draws[0] % spec.addresses
        if index not in states:
            cold = [splitmix(cold_key, _COLD_DRAWS * index + j) for j in range(_COLD_DRAWS)]
            states[index] = _cold_state(spec, cold)
        state = states[index]
        if spec.kind in ("float64walk", "partialvalid"):
            live, pos = state
            for w in range(live):
                pos[w] += _walk_delta(spec, draws[1 + w], draws[9 + w])
            payload = b""
            for p in pos:
                p %= 2 * _WIDTH
                payload += (_LO + (p if p < _WIDTH else 2 * _WIDTH - 1 - p)).to_bytes(8, "big")
        else:
            thresholds, pins, mask, values = state
            for f in range(16):
                u = draws[1 + f]
                if (u >> 32) < thresholds[f]:
                    values[f] = pins[f] | (u & mask)
            payload = b"".join(v.to_bytes(4, "little") for v in values)
        yield spec.base_addr + 64 * index, payload


def _cold_state(spec, cold):
    if spec.kind in ("float64walk", "partialvalid"):
        live = 8
        if spec.kind == "partialvalid":
            lo, hi = spec.valid_words
            live = lo + cold[8] % (hi - lo + 1)
        return live, [(0x3FF0000000000000 | (c >> 12)) - _LO for c in cold[:8]]
    if spec.kind == "narrowint32":
        mask = (1 << spec.width) - 1
        return [int(spec.update_rate * 2**32)] * 16, [0] * 16, mask, [c & mask for c in cold]
    pinned = spec.pinned_top_bits
    mask = (1 << (32 - pinned)) - 1
    pins = [((c >> 32) & ((1 << pinned) - 1)) << (32 - pinned) for c in cold]
    # per-field rewrite rate in [0.1, 0.9), as a threshold on 32 random bits
    thresholds = [2**32 // 10 + (((c >> 40) * (8 * 2**32 // 10)) >> 24) for c in cold]
    return thresholds, pins, mask, [p | (c & mask) for p, c in zip(pins, cold)]


# -- trace files, one record at a time -----------------------------------------


def load_trace(data, fmt):
    """(records, bad) for the bytes of a trace file: the (addr, payload) pairs before
    its first bad record, and that record's index, or None if every record is good.

    A record is good when its address is a multiple of 64 below 2^64 and its
    payload has 64 bytes. Binary: the 5-byte header ``RBTR\\x01``, then 72-byte
    records (a shorter tail is bad). JSONL: every line that is not all
    whitespace is one record, a JSON object whose ``addr`` is a hex string and
    whose ``data`` is a string of 128 hex digits.
    """
    records = []
    if fmt == "binary":
        assert data[:5] == b"RBTR\x01"
        for index, start in enumerate(range(5, len(data), 72)):
            record = data[start : start + 72]
            addr = int.from_bytes(record[:8], "little")
            if len(record) < 72 or addr % 64:
                return records, index
            records.append((addr, record[8:]))
        return records, None
    lines = [line for line in data.split(b"\n") if line.strip()]
    for index, line in enumerate(lines):
        try:
            obj = json.loads(line.decode("ascii"))
            addr, text = int(obj["addr"], 16), obj["data"]
            payload = bytes.fromhex(text)
            good = len(text) == 128 and len(payload) == 64 and 0 <= addr < 2**64 and addr % 64 == 0
        except (KeyError, TypeError, ValueError):
            good = False
        if not good:
            return records, index
        records.append((addr, payload))
    return records, None


# -- Monte Carlo, one gap at a time -------------------------------------------
#
# The specification of the v2 Monte Carlo stream behind
# ``robinsim.injection.monte_carlo_block``. Record r of a run with seed s has
# the key K = splitmix(s, r); draw i of trial chunk c is
# h = splitmix(K, c * 2**32 + i), u = ((h >> 11) + 1) * 2**-53 and the gap
# 1 + min(floor(ln u / ln(1 - q)), field). A chunk's failing cells are the
# running sums of its gaps, minus 1, that lie below its field of
# trials x cells cells; at q = 1 every gap is 1. ``math.log`` here and numpy's
# log in the kernel can differ in the last bit, which changes a gap only where
# ln u / ln(1 - q) lies within that rounding of an integer.

TRIAL_CHUNK = 8192


def mc_successes(counts, pw, trials, seed, record_index):
    """Successful trials of one record whose codewords have ``counts`` transitioning cells."""
    counts = [int(k) if k > 1 else 0 for k in counts]
    q = 1.0 - pw
    cells = sum(counts)
    if cells == 0 or q == 0.0:
        return trials
    codeword = [n for n, k in enumerate(counts) for _ in range(k)]
    key = splitmix(seed, record_index)
    successes = 0
    for chunk, start in enumerate(range(0, trials, TRIAL_CHUNK)):
        chunk_trials = min(TRIAL_CHUNK, trials - start)
        field = cells * chunk_trials
        hit, failed = set(), set()
        for position in failing_cells(key, chunk, field, q):
            trial, cell = divmod(position, cells)
            if (trial, codeword[cell]) in hit:
                failed.add(trial)   # a second failure in one codeword
            hit.add((trial, codeword[cell]))
        successes += chunk_trials - len(failed)
    return successes


def failing_cells(key, chunk, field, q):
    """The failing positions below ``field`` in trial chunk ``chunk`` of ``key``, one gap at a time."""
    position = -1
    for i in itertools.count():
        if q == 1.0:
            gap = 1
        else:
            u = ((splitmix(key, chunk * 2**32 + i) >> 11) + 1) * 2.0**-53
            gap = 1 + min(math.floor(math.log(u) / math.log1p(-q)), field)
        position += gap
        if position >= field:
            return
        yield position


def inject_write(kind, old, new, pw, include_ecc, key):
    """(written, check words or None, failures per codeword) of one write of ``new`` over ``old``.

    The transitioning cells in cell order (the data bits by flat index, then
    check bit r of codeword n as cell 512 + 8n + r) are the field of trial
    chunk 0 of ``key``, and a failing cell keeps its old value.
    """
    old_check = [encode(word) for word in datawords(kind, old)]
    new_check = [encode(word) for word in datawords(kind, new)]
    cells = [flat for flat in range(512) if (old[flat // 8] ^ new[flat // 8]) >> (flat % 8) & 1]
    if include_ecc:
        cells += [512 + 8 * n + r for n in range(8) for r in range(8) if (old_check[n] ^ new_check[n]) >> r & 1]
    written, check, failures = bytearray(new), list(new_check), [0] * 8
    for position in failing_cells(key, 0, len(cells), 1.0 - pw) if pw < 1.0 else ():
        cell = cells[position]
        if cell < 512:
            written[cell // 8] ^= 1 << (cell % 8)
            failures[owner(kind, cell)] += 1
        else:
            n, r = divmod(cell - 512, 8)
            check[n] ^= 1 << r
            failures[n] += 1
    return bytes(written), tuple(check) if include_ecc else None, tuple(failures)


def mc_trace(rows, pw, trials, seed):
    """(error rate, stderr) of the trace estimate over count rows, record r keyed splitmix(seed, r)."""
    failure = variance = 0.0
    for index, row in enumerate(rows):
        p = mc_successes(row, pw, trials, seed, index) / trials
        failure += 1.0 - p
        variance += p * (1.0 - p) / trials
    return failure / len(rows), math.sqrt(variance) / len(rows)


# -- the per-scheme batch fold -------------------------------------------------
#
# One scheme's (n, 8) counts per call, reduced row-major in numpy's own order:
# the fold of robinsim.reliability before TraceAccumulator, which must give
# the same running sums exactly.


class RateFold:
    """Running sums of one scheme's block failure and its uniform-split optimum."""

    def __init__(self, pw):
        self.pw = pw
        self.writes = 0
        self.failure_sum = 0.0
        self.optimal_sum = 0.0

    def add_counts(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        log_success, optimal = _rate_tables(self.pw)
        self.failure_sum -= float(np.expm1(log_success.take(counts).sum(axis=-1)).sum())
        self.optimal_sum -= float(optimal.take(counts.sum(axis=1)).sum())
        self.writes += len(counts)

    def finalize(self):
        return TraceErrorRate(self.failure_sum / self.writes, self.optimal_sum / self.writes, self.writes)


class SpreadFold:
    """Running sums of one scheme's per-write minimum and maximum share, and their extremes."""

    def __init__(self, kind):
        self.kind = kind
        self.writes = 0
        self.skipped_zero = 0
        self.min_sum = 0.0
        self.max_sum = 0.0
        self.min_extreme = float("inf")
        self.max_extreme = float("-inf")

    def add_counts(self, counts):
        columns = np.ascontiguousarray(np.asarray(counts, dtype=np.int64).T)
        totals = columns.sum(axis=0)
        mins = columns.min(axis=0)
        maxs = columns.max(axis=0)
        live = totals > 0
        writes = int(np.count_nonzero(live))
        self.skipped_zero += len(totals) - writes
        if writes == 0:
            return
        if writes < len(totals):
            totals, mins, maxs = totals[live], mins[live], maxs[live]
        share = totals / 8
        mins = mins / share * 100.0
        maxs = maxs / share * 100.0
        self.writes += writes
        self.min_sum += float(mins.sum())
        self.max_sum += float(maxs.sum())
        self.min_extreme = min(self.min_extreme, float(mins.min()))
        self.max_extreme = max(self.max_extreme, float(maxs.max()))

    def finalize(self):
        if self.writes == 0:
            return CodewordStats(self.kind, 0, self.skipped_zero, 0.0, 0.0, 0.0, 0.0)
        return CodewordStats(
            self.kind, self.writes, self.skipped_zero, self.min_sum / self.writes,
            self.max_sum / self.writes, self.min_extreme, self.max_extreme,
        )
