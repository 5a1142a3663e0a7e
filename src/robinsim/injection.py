"""Monte Carlo fault injection for block writes.

Each bit that must flip (data bits, and check bits when enabled) fails
independently with probability q = 1 - p_write and then retains its old
value; bits that need no transition never fail. A write outcome is classified
by the count rule: the block is recoverable when no codeword suffered more
than one failure (t = 1 for SEC-DED). The decoder-based view is available as
a cross-check but is never the ground truth, because triple-and-higher errors
can alias to a valid correction.

Monte Carlo estimates draw only the cells that fail. A record's simulated
cells are the transitioning cells of its codewords with at least two of them
(one can never exceed t = 1), grouped by codeword. A chunk of up to
``_TRIAL_CHUNK`` trials lays them out trial-major as one field of
``trials x cells`` cells, and the failures in it are placed by geometric gaps
(the distance from one failing cell to the next), which is the same
independent-cell model sampled exactly. The work scales with the expected
number of failures, not with the number of flipping cells.

The stream (version 2) is a counter-based splitmix64 stream (:func:`splitmix`):
every draw is a function of its index alone, so nothing depends on batching,
on grouping or on how many draws are made at once.

* Record ``r`` of a run with seed ``s`` has the key ``K = mix_seed(s, r)``.
* Draw ``i`` of trial chunk ``c`` is ``h = mix_seed(K, c * 2**32 + i)``.
* ``u = ((h >> 11) + 1) * 2**-53`` lies in (0, 1], and the gap is
  ``1 + min(floor(ln u / ln(1 - q)), field)``; the clip comes before the
  conversion to an integer.
* The failure positions are the running sums of the gaps minus 1, and the
  chunk's failing cells are the positions below ``field``. Draws after the
  first position at or past ``field`` are discarded.
* At q = 1 every simulated cell fails, and at q = 0 nothing is drawn.

No draw depends on the scheme, so the layouts of one run see the same
failures of a record (common random numbers): only their fields differ. A
call over several schemes draws each (record, trial chunk) once, over the
widest scheme's field, and each scheme keeps the positions below its own.
Those are the positions a draw over its own field places, since the clip
only shortens gaps that pass the end of the field either way.

A trial fails when some codeword collects two failures. ``tests/oracle.py``
computes the stream one gap at a time and is its specification. The logarithm
is the platform's, so a gap can differ between machines only where
``ln u / ln(1 - q)`` lies within rounding of an integer.

:func:`monte_carlo_block` takes a batch's ``(n, S, 8)`` ``cells`` counts, as
:func:`robinsim.mapping.scheme_counts` returns them, and gives the ``(S, n)``
successes: it simulates exactly the cells those counts hold. Its (record,
trial chunk) segments are drawn in bounded groups, in rounds for all those
still short of their fields, and the failures with a neighbour near enough
to share their codeword are classified together, scheme by scheme.
:class:`MonteCarloAccumulator` feeds it batches in record order and folds the
successes into its sums in one array pass; ``run_experiment`` passes it the
``cells`` it has counted. :func:`inject_write` places the failing cells of
trial chunk 0 of a key from its generator, so the decoder cross-check runs
the same stream. It takes its check words from the counting kernel's check
lanes (:func:`robinsim.mapping.check_words`), and :func:`end_to_end_check`
decodes the stored codewords with :mod:`robinsim.secded`'s own encoder, so
every cross-checked write also checks those two encoders against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import secded
from .bits import BLOCK_BITS, BLOCK_BYTES, _int_setting, stack_blocks
from .mapping import CODEWORDS, MappingScheme, block_datawords, check_words

# splitmix64: golden-gamma increment and the two finalizer multipliers
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX_MUL2 = 0x94D049BB133111EB
# the same as 0-d uint64 arrays, which numpy combines with arrays faster than scalars
_U64 = {
    v: np.array(v, dtype=np.uint64)
    for v in (1, 11, 27, 30, 31, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2)
}

# trials are simulated in fixed-size chunks
_TRIAL_CHUNK = 8192
# draws a group's first round holds (256 KB per int64 array), plus its last
# segment's; one record chunk can need about 2.4 million at p_write 0.5
_HELD_POSITIONS = 1 << 15


def mix_seed(seed: int, index: int) -> int:
    """The (index+1)-th output of the splitmix64 stream started at ``seed``.

    Collision-resistant enough to give every (seed, record) pair an
    independent, order-insensitive key. ``seed`` and ``index`` must be
    integers (numpy integers too) in [0, 2**64 - 1]; any other raises
    ``ValueError`` naming ``seed`` or ``index``.
    """
    seed = _int_setting("seed", seed, 0, 2**64 - 1)
    index = _int_setting("index", index, 0, 2**64 - 1)
    # one element, not 0-d: splitmix writes in place with out=, which 0-d results refuse
    return int(splitmix(seed, np.array([index], dtype=np.uint64))[0])


def splitmix(keys: int | np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``mix_seed(key, p)`` elementwise over a uint64 ``positions`` array and ``keys``.

    ``keys`` is one key or an array of them of the shape of ``positions``.
    """
    z = positions + _U64[1]
    z *= _U64[SPLITMIX_GAMMA]
    z += np.asarray(keys, dtype=np.uint64)
    shifted = z >> _U64[30]
    z ^= shifted
    z *= _U64[SPLITMIX_MUL1]
    z ^= np.right_shift(z, _U64[27], out=shifted)
    z *= _U64[SPLITMIX_MUL2]
    z ^= np.right_shift(z, _U64[31], out=shifted)
    return z


@dataclass(frozen=True)
class InjectionConfig:
    """Monte Carlo settings: p_write, scheme, trials per record, seed and check-bit injection.

    ``trials`` must be an integer in [1, 2**32 - 1] and ``seed`` one in
    [0, 2**64 - 1], numpy integers too, each stored as an ``int``; any other
    raises ``ValueError``: ``<name> must be an integer, got <value!r>`` or
    ``<name> must lie in [lo, hi], got <value>``.
    """

    pw: float
    scheme: MappingScheme
    trials: int = 1
    seed: int = 0
    include_ecc: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.pw <= 1.0:
            raise ValueError(f"p_write must lie in [0, 1], got {self.pw}")
        # a trial chunk's index fills the high 32 bits of its draw counters
        object.__setattr__(self, "trials", _int_setting("trials", self.trials, 1, 2**32 - 1))
        object.__setattr__(self, "seed", _int_setting("seed", self.seed, 0, 2**64 - 1))


@dataclass(frozen=True)
class WriteOutcome:
    """One simulated write: the stored payload and its failure classification.

    ``written`` holds the 64-byte payload as stored (failed bits keep their
    old value); ``written_check`` the eight stored check words when check-bit
    injection was enabled. By the count rule the block is recoverable when
    ``max(failures_per_codeword) <= 1``.
    """

    written: bytes
    written_check: tuple[int, ...] | None
    failures_per_codeword: tuple[int, ...]


def inject_write(
    old: bytes, new: bytes, cfg: InjectionConfig, rng: np.random.Generator
) -> WriteOutcome:
    """Simulate one write of ``new`` over ``old`` with stochastic cell failures.

    Cells are laid out in one fixed order: the 512 data bits by flat index,
    then, when check injection is on, check bit r of codeword n as cell
    512 + 8n + r. One 64-bit key is drawn from ``rng``, and the transitioning
    cells form the field of trial chunk 0 of that key in the sampler behind
    :func:`monte_carlo_block`, so outcomes are reproducible for a given
    generator state. Both payloads' check words come from
    :func:`robinsim.mapping.check_words`, the counting kernel's check table,
    not the codec's :func:`robinsim.secded.encode_words`;
    :func:`end_to_end_check` decodes them with the codec.
    """
    blocks = stack_blocks([old, new])
    # eight cells per byte, in cell order: the payload, then one check word per codeword
    diff = blocks[0] ^ blocks[1]
    stored = bytearray(blocks[1])
    if cfg.include_ecc:
        # byte n of each is codeword n's check word, from the counting kernel's check lanes
        old_check, new_check = check_words(cfg.scheme, blocks).tolist()
        diff = np.frombuffer(diff.tobytes() + (old_check ^ new_check).to_bytes(CODEWORDS, "little"), np.uint8)
        stored += new_check.to_bytes(CODEWORDS, "little")
    flipping = np.unpackbits(diff, bitorder="little").nonzero()[0]
    key = rng.bit_generator.random_raw()
    counts = [0] * CODEWORDS
    if cfg.pw < 1.0 and flipping.size:
        failed = flipping[_field_failures(key, flipping.size, 1.0 - cfg.pw)]
        for cell in failed.tolist():
            # a failed cell keeps its old value, the complement of the new one
            stored[cell >> 3] ^= 1 << (cell & 7)
            counts[cfg.scheme.assignment[cell] if cell < BLOCK_BITS else (cell >> 3) - BLOCK_BYTES] += 1
    return WriteOutcome(
        written=bytes(stored[:BLOCK_BYTES]),
        written_check=tuple(stored[BLOCK_BYTES:]) if cfg.include_ecc else None,
        failures_per_codeword=tuple(counts),
    )


def monte_carlo_block(cells: np.ndarray, record_index: int, cfg: InjectionConfig) -> np.ndarray:
    """Successful trials out of ``cfg.trials`` of a batch of block writes, as ``(S, n)`` int64.

    ``cells`` are the ``(n, S, 8)`` uint8 counts of
    :func:`robinsim.mapping.scheme_counts`, each at most
    ``secded.CODEWORD_BITS``; any other input raises ``ValueError`` naming
    that shape. Row s is scheme s, simulated on the draws of every other row.
    The batch holds records ``record_index`` to ``record_index + n - 1``, and
    record r draws from the key ``mix_seed(seed, r)`` (see the module
    docstring), so its successes are the same in any batch. ``record_index``
    must be an integer (numpy integers too) in [0, 2**64 - n]; any other
    raises ``ValueError`` naming ``record_index``.

    Only codewords with at least two cells are simulated, since one can never
    exceed t = 1. A trial succeeds when every codeword collects at most one
    failure, and a record that cannot fail draws nothing. The batch's
    failures are drawn once and classified together (see
    :func:`_failed_trials`).
    """
    if not (isinstance(cells, np.ndarray) and cells.dtype == np.uint8 and cells.shape[2:] == (CODEWORDS,)):
        got = f"{cells.shape} {cells.dtype}" if isinstance(cells, np.ndarray) else type(cells).__name__
        raise ValueError(f"cells must be an (n, S, 8) uint8 array, got {got}")
    if cells.size and cells.max() > secded.CODEWORD_BITS:
        raise ValueError(f"cells must be (n, S, 8) counts up to {secded.CODEWORD_BITS}, got {cells.max()}")
    first = _int_setting("record_index", record_index, 0, 2**64 - len(cells))
    return cfg.trials - _failed_trials(np.where(cells > 1, cells, 0).transpose(1, 0, 2), cfg, first)


def _failed_trials(counts: np.ndarray, cfg: InjectionConfig, first_record: int) -> np.ndarray:
    """Failed trials of ``(S, n, 8)`` simulated-cell ``counts``, as ``(S, n)``.

    Entry ``[s, i]`` is record first_record + i under scheme s. A record's
    draws do not depend on the scheme, so each (record, trial chunk) is one
    segment of the stream, drawn once over the widest scheme's field; each
    scheme keeps the failures below its own field, which are the failures a
    draw over that field alone places (see :func:`_gap_sums`). Consecutive
    segments are drawn in groups cut where the running count of first-round
    draws passes a multiple of ``_HELD_POSITIONS``: a first round holds at most
    that many plus its last segment's, and a later one fewer. A failure is keyed
    by (segment, trial, codeword), the keys arrive sorted, and a repeated key is
    a second failure in one codeword, so its trial fails.
    """
    failed = np.zeros(counts.shape[:2], dtype=np.int64)
    fail_prob = 1.0 - cfg.pw
    live_rows = counts.any(axis=2)
    rows = np.flatnonzero(live_rows.any(axis=0))
    if fail_prob == 0.0 or rows.size == 0:
        return failed
    if fail_prob == 1.0:
        # every simulated cell fails, and each live row has a codeword with two of them
        failed[live_rows] = cfg.trials
        return failed
    # int64 once: the kernel counts in uint8, and the cell positions and
    # field sizes below are sums of those counts far past 255
    live = counts[:, rows].astype(np.int64)
    sizes = live.sum(axis=2)
    reach = int(live.max())   # failures of one (trial, codeword) lie less than this apart
    # the codeword of each simulated cell: a record's cells grouped by codeword,
    # the records laid end to end, scheme after scheme; record i's cells under
    # scheme s from cell_start[s, i]
    cell_codeword = np.repeat(np.tile(np.arange(CODEWORDS), sizes.size), live.ravel())
    cell_start = np.cumsum(sizes).reshape(sizes.shape) - sizes
    # segments record-major: record seg_row[j], trial chunk seg_chunk[j]
    chunks = -(-cfg.trials // _TRIAL_CHUNK)
    seg_row = np.repeat(np.arange(rows.size), chunks)
    seg_chunk = np.tile(np.arange(chunks), rows.size)
    seg_size = sizes[:, seg_row]
    seg_limit = seg_size * np.minimum(cfg.trials - seg_chunk * _TRIAL_CHUNK, _TRIAL_CHUNK)
    seg_field = seg_limit.max(axis=0)   # the widest scheme's field is the one drawn
    seg_key = splitmix(cfg.seed, np.uint64(first_record) + rows.astype(np.uint64))[seg_row]
    seg_cell_start = cell_start[:, seg_row]

    draws = _draw_count(seg_field * fail_prob)
    group = (draws.cumsum() - draws) // _HELD_POSITIONS
    bounds = [*np.flatnonzero(np.diff(group, prepend=-1)).tolist(), seg_row.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        fields = seg_field[lo:hi]
        cell = _failures(seg_key[lo:hi], seg_chunk[lo:hi], fields, fail_prob)
        # sorted keys: only failures nearer than reach to a neighbour can share
        # its key. A scheme keeps a prefix of each segment's failures, so a
        # neighbour under one scheme is a neighbour in the drawn field too
        near = np.diff(cell) < reach
        keep = np.zeros(cell.size, dtype=bool)
        keep[1:] = near
        keep[:-1] |= near
        cell = cell[keep]
        # the group's fields lie end to end, so each segment's failures are a run
        ends = np.cumsum(fields)
        found = np.diff(cell.searchsorted(ends), prepend=0)
        cell -= (ends - fields).repeat(found)   # the position in its segment
        seg = np.arange(lo, hi).repeat(found)
        for s, limit in enumerate(seg_limit):
            keep = cell < limit[seg]
            position, segment = cell[keep], seg[keep]
            size = seg_size[s, segment]
            # exact: a position is below 2**53, and a quotient with a remainder lies
            # at least 1/size below the next integer, far above float64 rounding here
            trial = (position / size).astype(np.int64)
            position -= trial * size
            position += seg_cell_start[s, segment]
            # one trial number per (segment, trial), still increasing along the failures
            trial += segment * _TRIAL_CHUNK
            key = cell_codeword[position]
            key += trial * CODEWORDS
            twice = trial[1:][key[1:] == key[:-1]]
            first = np.ones(twice.size, dtype=bool)
            first[1:] = twice[1:] != twice[:-1]
            failed[s, rows] += np.bincount(seg_row[twice[first] // _TRIAL_CHUNK], minlength=rows.size)
    return failed


def _draw_count(expected: np.ndarray) -> np.ndarray:
    """Draws to make at once for ``expected`` failures: 4 sigma over the mean, plus 16.

    Too few only costs another round of draws; the output does not depend on it.
    """
    return (expected + 4.0 * np.sqrt(expected)).astype(np.int64) + 16


def _gap_sums(h: np.ndarray, fail_prob: float, cap: float) -> np.ndarray:
    """Running sums of the gaps of the uint64 hashes ``h``, in ``h``'s buffer.

    A gap is 1 + min(floor(ln u / ln(1 - q)), ``cap``); any ``cap`` at least
    the cells a segment has left places the same failures, since a longer
    gap passes its field, so one cap serves a round over many segments.
    """
    h >>= _U64[11]
    h += _U64[1]
    x = h * 2.0**-53
    np.log(x, out=x)
    x /= math.log1p(-fail_prob)
    np.minimum(x, cap, out=x)
    # x >= 0, so truncation is the floor; h's buffer takes the gaps and their sums
    gaps = h.view(np.int64)
    np.copyto(gaps, x, casting="unsafe")
    gaps += 1
    return gaps.cumsum(out=gaps)


def _field_failures(key: int, end: int, fail_prob: float) -> np.ndarray:
    """Positions of the failing cells below ``end`` in trial chunk 0 of ``key``.

    One write's draws, from counter 0 on, a round at a time until a position
    reaches ``end``: :func:`_failures` of one segment, without its array passes.
    """
    if fail_prob == 1.0:
        return np.arange(end)
    counter, last, rounds = 0, -1, []
    while last < end:
        n = int(_draw_count((end - 1 - last) * fail_prob))
        hashes = splitmix(key, np.arange(counter, counter + n, dtype=np.uint64))
        position = _gap_sums(hashes, fail_prob, end)
        position += last
        rounds.append(position[position < end])
        counter += n
        last = int(position[-1])
    return np.concatenate(rounds)


def _failures(keys: np.ndarray, chunks: np.ndarray, fields: np.ndarray, fail_prob: float) -> np.ndarray:
    """Sorted positions of the failing cells of segments laid end to end.

    Segment j is trial chunk ``chunks[j]`` of the record keyed ``keys[j]``, a
    field of ``fields[j]`` cells that starts where segment j - 1 ends;
    ``0 < fail_prob < 1``. Each round hashes the next draws of every segment
    whose positions still fall short of its field at once, until none does;
    a lone segment, a first round and every top-up are this one loop.
    """
    ends = np.cumsum(fields)
    last = ends - fields - 1   # each short segment's last position so far
    counter = chunks << 32     # and its next draw counter
    rounds = []
    while ends.size:
        left = ends - 1 - last
        n = _draw_count(left * fail_prob)
        stop = n.cumsum()
        index = np.arange(stop[-1]) + (counter - (stop - n)).repeat(n)
        hashes = splitmix(keys.repeat(n), index.view(np.uint64))
        # a gap that passes its segment's field ends the segment, so clipping at the
        # most cells any segment has left places the same failures as clipping at each
        position = _gap_sums(hashes, fail_prob, float(left.max()))
        # each segment's running sum, continued from its last position
        position += (last - np.r_[0, position[stop[:-1] - 1]]).repeat(n)
        rounds.append(position[position < ends.repeat(n)])
        last = position[stop - 1]
        short = last < ends
        keys, counter, last, ends = keys[short], (counter + n)[short], last[short], ends[short]
    return rounds[0] if len(rounds) == 1 else np.sort(np.concatenate(rounds))


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo estimate of the mean block-failure rate over a trace."""

    error_rate: float
    stderr: float
    records: int


class MonteCarloAccumulator:
    """Running trace-level Monte Carlo estimates, fed batches of ``cells`` counts in record order.

    The r-th write added is record r and draws from the key mix_seed(seed, r), so
    the estimates are independent of how the writes are batched: each record's
    (failure_fraction, variance_term) pair is added to the sums in record order.
    ``schemes`` is the S of every batch's ``(n, S, 8)`` counts, an integer
    (numpy integers too) of at least 1; any other raises ``ValueError`` naming
    it. :meth:`finalize` returns one estimate per scheme, in scheme order.
    """

    def __init__(self, cfg: InjectionConfig, schemes: int = 1) -> None:
        self.cfg = cfg
        self.schemes = _int_setting("schemes", schemes, 1)
        self.records = 0
        self._sums = np.zeros((2, self.schemes))   # failure and variance-term sums per scheme

    def add_batch(self, cells: np.ndarray) -> None:
        """Add a batch's ``(n, S, 8)`` uint8 ``cells`` counts as the next n records."""
        if isinstance(cells, np.ndarray) and cells.ndim == 3 and cells.shape[1] != self.schemes:
            raise ValueError(f"cells hold {cells.shape[1]} schemes, the accumulator {self.schemes}")
        # positional: the benchmark's tracer reads the trials of the third argument
        p = monte_carlo_block(cells, self.records, self.cfg) / self.cfg.trials
        terms = np.stack((1.0 - p, p * (1.0 - p) / self.cfg.trials))
        # accumulate adds left to right, a record at a time, so batching cannot change the sums
        self._sums = np.add.accumulate(np.dstack((self._sums, terms)), axis=2)[:, :, -1]
        self.records += len(cells)

    def finalize(self) -> list[TraceEstimate]:
        if self.records == 0:
            raise ValueError("empty pair stream")
        return [
            TraceEstimate(
                error_rate=failure_sum / self.records,
                stderr=math.sqrt(variance_sum) / self.records,
                records=self.records,
            )
            for failure_sum, variance_sum in zip(*self._sums.tolist())
        ]


@dataclass(frozen=True)
class CodecCrossCheck:
    """Agreement between count-based classification and the SEC-DED decoder."""

    agree: bool
    aliased: int


def end_to_end_check(outcome: WriteOutcome, new: bytes, scheme: MappingScheme) -> CodecCrossCheck:
    """Run the decoder over each stored codeword and compare with the count rule.

    For codewords with at most two failures the decoder verdict must match
    block-level accounting exactly (and a correction must restore the intended
    content). With three or more failures the syndrome may alias; those
    disagreements are only counted.
    """
    if not outcome.written_check:
        raise ValueError("end_to_end_check needs an outcome produced with include_ecc")
    stored_words, intended_words = block_datawords(scheme, stack_blocks([outcome.written, new]))
    repaired = secded.repair_words(stored_words, np.array(outcome.written_check, dtype=np.uint8))
    intended = zip(intended_words.tolist(), secded.encode_words(intended_words).tolist())
    agree, aliased = True, 0
    for syndrome, bit, data, check, (want_data, want_check), failures in zip(
        *(column.tolist() for column in repaired), intended, outcome.failures_per_codeword
    ):
        # NO_ERROR, or a correction that restores the intended content
        ok = syndrome == 0 or (bit >= 0 and data == want_data and check == want_check)
        if ok != (failures <= 1):
            if failures <= 2:
                agree = False
            else:
                aliased += 1
    return CodecCrossCheck(agree=agree, aliased=aliased)
