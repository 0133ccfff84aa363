"""numpy's random streams, value for value, drawn over arrays.

A numpy ``Generator`` draws one stream at a time, at some microseconds a
call. The kernel draws from three streams per replication and the stability
analysis thousands of indices a move; here whole arrays of streams advance in
a few numpy calls and give the same bits.

:class:`IndexDraws` reproduces ``Generator.integers(0, counts)`` from raw
PCG64 words on the fast path and hands numpy the rare calls it cannot vouch
for. :func:`spawn_state` runs numpy's ``SeedSequence`` hash for many
entropy rows at once, and :class:`RowStreams` seeds and steps the PCG64
company streams of every row of a kernel pass (O'Neill, "PCG: A family of
simple fast space-efficient statistically good algorithms for random number
generation", HMC-CS-2014-0905, defines the generator and its seeding step).
``test_index_draws_match_numpy_integers`` and
``test_folded_draws_match_integers_plus_offsets`` in tests/test_gsa.py and
``test_row_streams_match_numpy`` and ``test_replication_seeds_match_numpy``
in tests/test_runner.py guard the reproductions.
"""

import operator

import numpy as np

from .errors import ParameterError

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed from the entropy by hash constants that advance by a
# fixed multiplier each call, whatever the entropy
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT32 = np.uint32(16)

# PCG64's 128-bit multiplier as uint64 (high, low) halves, and the low half's
# 32-bit limbs
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI, _M_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & (1 << 64) - 1)
_M_LO1, _M_LO0 = np.uint64(_MULT >> 32 & _MASK32), np.uint64(_MULT & _MASK32)
_LOW32, _U32, _U1 = np.uint64(_MASK32), np.uint64(32), np.uint64(1)
_DOUBLE = 2.0 ** -53


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants of ``count`` successive calls and the one after:
    ``init * mult**k mod 2**32`` for k <= count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hash(values, consts):
    """numpy's hashmix of ``values`` for successive calls along the last
    axis: xor with call k's constant, times call k + 1's, xorshift."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ (values >> _SHIFT32)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT32)


def spawn_state(entropy: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence`` state words of many entropy rows at once: row ``r``
    of the (rows, words) uint32 result is ``generate_state(words)`` of the
    sequence whose assembled entropy (run entropy, then spawn key) is row
    ``r`` of the (rows, length) uint32 ``entropy``, of at least four words
    as a spawned child's is. Every row runs the same hash calls, so each call
    is one array operation."""
    length = entropy.shape[1]
    consts = _constants(_INIT_A, _MULT_A, _POOL * length)
    pool = _hash(entropy[:, :_POOL], consts[:_POOL + 1])
    k = _POOL
    # every pool word into every other, then each further entropy word into
    # every pool word; a source word is not written while it is read
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], consts[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, length):
        pool = _mix(pool, _hash(entropy[:, src, None], consts[k:k + _POOL + 1]))
        k += _POOL
    return _hash(pool[:, np.arange(words) % _POOL], _constants(_INIT_B, _MULT_B, words))


def _run_entropy(seeds) -> np.ndarray:
    """numpy's run entropy of each seed in [0, 2**128), padded to the pool's
    four uint32 words as it is for a spawned child: (rows, 4) uint32."""
    raw = b"".join(operator.index(seed).to_bytes(16, "little") for seed in seeds)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, _POOL).astype(np.uint32)


def entropy_words(value: int) -> list:
    """numpy's uint32 words of a nonnegative integer, low word first, one at
    least."""
    value = operator.index(value)
    if value < 0:
        raise ParameterError(f"entropy must be >= 0, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * M + inc mod 2**128, of uint64 (high, low)
    arrays. Only the high half of ``lo * M_lo`` needs 32-bit limbs."""
    a0, a1 = lo & _LOW32, lo >> _U32
    t = a0 * _M_LO0
    u = a1 * _M_LO0 + (t >> _U32)
    v = a0 * _M_LO1 + (u & _LOW32)
    hi = a1 * _M_LO1 + (u >> _U32) + (v >> _U32) + hi * _M_LO + lo * _M_HI
    lo = lo * _M_LO
    return _add(hi, lo, inc_hi, inc_lo)


def _add(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2**128."""
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _xsl_rr(hi, lo):
    """PCG64's output word of a state: high xor low, rotated right by the
    state's top six bits."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


class RowStreams:
    """The company streams of many replications, each as numpy draws it.

    Row ``r`` stands for ``SeedSequence(seeds[r]).spawn(3)``: child 0 breaks
    its market ties, children 1 and 2 draw the two companies' marketing
    levels, and under ``mirror`` the companies swap children. A child's
    assembled entropy is the seed's run entropy padded to four words, then
    its index, so :func:`spawn_state` seeds every row's children 1 and 2 at
    once. PCG64 then seeds each as numpy does: from state 0 with increment
    ``2 initseq + 1``, one step, ``initstate`` added, another step. Each
    company stream is its 128-bit state and increment as uint64 (high, low)
    arrays, (rows, 2) with the companies as columns, so a period's draws for
    every row are two steps.

    A row's tie generator is made on its first tie (:attr:`ties`), and a
    noisy company keeps a real ``Generator`` (:meth:`generator`), which also
    draws its period levels.
    """

    def __init__(self, seeds, mirror: bool = False):
        self.seeds = list(seeds)
        self.children = (2, 1) if mirror else (1, 2)
        rows = len(self.seeds)
        entropy = np.empty((rows, 2, _POOL + 1), dtype=np.uint32)
        entropy[..., :_POOL] = _run_entropy(self.seeds)[:, None]
        entropy[..., _POOL] = self.children
        state = spawn_state(entropy.reshape(-1, _POOL + 1), 8)
        # numpy's generate_state(4, uint64): little-endian word pairs
        init = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
        init = init.reshape(rows, 2, 4)
        seq_hi, seq_lo = init[..., 2], init[..., 3]
        self.inc_hi = (seq_hi << _U1) | (seq_lo >> np.uint64(63))
        self.inc_lo = (seq_lo << _U1) | _U1
        hi, lo = _add(self.inc_hi, self.inc_lo, init[..., 0], init[..., 1])
        self.hi, self.lo = _step(hi, lo, self.inc_hi, self.inc_lo)
        self.ties = _Ties(self.seeds)

    def generator(self, row: int, company: int) -> np.random.Generator:
        """A real generator of ``company``'s stream of ``row``, from the
        stream's start."""
        key = (self.children[company],)
        return np.random.default_rng(
            np.random.SeedSequence(self.seeds[row], spawn_key=key))

    def uniforms(self) -> np.ndarray:
        """Every company stream's next two doubles, as ``Generator.random(2)``
        gives them: (rows, 2 companies, 2)."""
        out = np.empty(self.hi.shape + (2,))
        for k in range(2):
            self.hi, self.lo = _step(self.hi, self.lo, self.inc_hi, self.inc_lo)
            out[..., k] = _xsl_rr(self.hi, self.lo) >> np.uint64(11)
        out *= _DOUBLE
        return out


class _Ties(dict):
    """Each row's tie generator, ``default_rng`` of child 0, made on the
    row's first tie."""

    def __init__(self, seeds):
        super().__init__()
        self.seeds = seeds

    def __missing__(self, row):
        rng = self[row] = np.random.default_rng(
            np.random.SeedSequence(self.seeds[row], spawn_key=(0,)))
        return rng


class IndexDraws:
    """``offset + np.random.default_rng(seed).integers(0, count)`` over
    arrays of cells that pack ``offset << 32 | count``, value for value.

    numpy draws each element, in C order, by Lemire's rule on the stream's
    32-bit halves, a word's low half first: a count of 1 takes no half and
    gives 0; otherwise m = x * count of the next half x gives m >> 32, unless
    m mod 2**32 < (2**32 - count) mod count, when the element takes the next
    half instead. :meth:`folded` draws the cells of counts above 1 from one
    product per call, the offset added inside it. A call the product cannot
    vouch for (a possible carry or rejection, or a count of 2**31 or more,
    about one call in a thousand at stability counts) rewinds its words and
    draws through numpy's own ``Generator.integers`` on the same PCG64.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._kept = None    # a word's high half, drawn and not yet used
        self._layouts = {}   # _fold's buffers of the last shape, by kept half

    def folded(self, cells: np.ndarray, top) -> np.ndarray:
        """``offset + integers(count)`` as int64 for uint64 ``cells`` that
        pack ``offset << 32 | count`` with offset + count below 2**32, in a
        buffer the next call may reuse.

        ``top`` is the largest count if every count is at least 2, else
        None: a count of 1 draws 0 and takes no half, so the call first
        gathers the cells that draw.
        """
        if top is not None:
            return self._fold(cells, top)
        out = (cells >> _U32).view(np.int64)
        live = (cells & _LOW32) > 1
        if live.any():
            drawn = cells[live]
            out[live] = self._fold(drawn, int((drawn & _LOW32).max()))
        return out

    def _fold(self, cells, top):
        """Halves x (the kept one, then the words' low and high halves, by
        mask and shift, so on any byte order) times the counts plus the
        cells is x * count + count + offset * 2**32, whose top 32 bits are
        offset + (x * count >> 32) unless the count carried. Low halves of
        the sum all at least 2 * top rule out a carry and a rejection (whose
        threshold is below the count); otherwise numpy draws the call."""
        have = int(self._kept is not None)
        k, layout = cells.size, self._layouts.get(have)
        if layout is None or layout[0].shape != cells.shape:
            # the products, over the halves (the kept one first); the words;
            # the halves; the views their words' low and high halves go to;
            # the half left over; the indices
            words = (k - have + 1) // 2
            halves = np.empty(have + 2 * words, dtype=np.uint64)
            pairs = halves[have:].reshape(-1, 2)
            m = halves[:k].reshape(cells.shape)
            layout = self._layouts[have] = (m, words, halves, pairs[:, 0],
                                            pairs[:, 1], halves[k:], m.view(np.int64))
        m, words, halves, lo, hi, rest, index = layout
        if have:
            halves[0] = self._kept
        x = self._bitgen.random_raw(words)
        np.bitwise_and(x, _LOW32, out=lo)
        np.right_shift(x, _U32, out=hi)
        m *= cells & _LOW32
        m += cells
        if int(m.astype(np.uint32).min()) < 2 * top:
            return self._numpy(cells, words)
        self._kept = int(rest[0]) if rest.size else None
        m >>= _U32
        return index

    def _numpy(self, cells, words):
        """The call's draws by ``Generator.integers``: the call's words
        rewound (``advance`` wraps mod 2**128), and the kept half handed
        over as the bit generator's buffered half and taken back after."""
        self._bitgen.advance(2**128 - words)
        state = self._bitgen.state
        state["has_uint32"] = int(self._kept is not None)
        state["uinteger"] = self._kept or 0
        self._bitgen.state = state
        rng = np.random.Generator(self._bitgen)
        index = rng.integers(0, (cells & _LOW32).astype(np.int64))
        state = self._bitgen.state
        self._kept = state["uinteger"] if state["has_uint32"] else None
        return index + (cells >> _U32).view(np.int64)
