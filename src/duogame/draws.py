"""numpy's random streams, value for value, drawn over arrays.

A numpy ``Generator`` draws one stream at a time, at some microseconds a
call. The kernel draws from three streams per replication and the stability
analysis thousands of indices a move; here whole arrays of streams advance in
a few numpy calls and give the same bits.

:class:`IndexDraws` reproduces ``Generator.integers(0, counts)`` from raw
PCG64 words. :func:`spawn_state` runs numpy's ``SeedSequence`` hash for many
entropy rows at once, and :class:`RowStreams` seeds and steps the PCG64
company streams of every row of a kernel pass (O'Neill, "PCG: A family of
simple fast space-efficient statistically good algorithms for random number
generation", HMC-CS-2014-0905, defines the generator and its seeding step).
``test_index_draws_match_numpy_integers`` in tests/test_gsa.py and
``test_row_streams_match_numpy`` and ``test_replication_seeds_match_numpy``
in tests/test_runner.py guard the reproductions.
"""

import operator

import numpy as np

from .errors import ParameterError

_SPAN = np.uint64(1 << 32)

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
    """``np.random.default_rng(seed).integers(0, high)`` for integer arrays
    ``high`` of counts up to 2**32, value for value, from the raw words of
    the same PCG64 stream.

    numpy draws each element, in C order, by Lemire's rule on the stream's
    32-bit halves, a word's low half first: ``high == 1`` takes no half and
    gives 0; otherwise m = x * high of the next half x gives m >> 32, unless
    m mod 2**32 < (2**32 - high) mod high, when the element takes the next
    half instead. Here one product covers a call; since every threshold is
    below ``high``, a call whose remainders all reach its largest ``high``
    rejects nothing, and a rejection redraws from that element on.
    ``rejections`` counts the rejected halves. :meth:`folded` draws the same
    numbers for cells that pack a bank offset above each count, and adds the
    offset inside the product.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._pending = np.empty(0, dtype=np.uint32)   # drawn, not yet used
        self._layouts = {}   # folded()'s buffers by cell shape and pending
        self.rejections = 0

    def _next(self, k: int) -> np.ndarray:
        """The stream's next k 32-bit halves."""
        have = self._pending.size
        if have >= k:
            halves = self._pending
        else:
            words = self._bitgen.random_raw((k - have + 1) // 2)
            # little-endian words read as little-endian 32-bit pairs: the low
            # half first on every host
            halves = words.astype("<u8", copy=False).view("<u4")
            if have:
                halves = np.concatenate((self._pending, halves))
        self._pending = halves[k:].copy()
        return halves[:k]

    def integers(self, high) -> np.ndarray:
        """int64 draws in [0, high) of the shape of ``high``, whose
        elements must be at least 1."""
        high = np.asarray(high, dtype=np.uint64)
        flat = high.ravel()
        top = flat.max(initial=1)
        if top > _SPAN:
            raise ParameterError(f"cannot draw an index below {top}: "
                                 f"a cell holds more than 2**32 samples")
        live = None if flat.min(initial=2) > 1 else flat > 1
        span = flat if live is None else flat[live]
        k = span.size
        m = np.empty(k, dtype=np.uint64)
        done = 0
        while done < k:
            m[done:] = self._next(k - done)
            m[done:] *= span[done:]
            low = m[done:].astype(np.uint32)    # m mod 2**32
            if low.min() >= top:
                break
            left = span[done:]
            rejected = np.flatnonzero(low < (_SPAN - left) % left)
            if not rejected.size:
                break
            # the rejected element takes the half after its own, which went
            # to the next element: the exact products give the halves back
            self.rejections += 1
            j = done + int(rejected[0])
            drawn = (m[j + 1:] // span[j + 1:]).astype(np.uint32)
            self._pending = np.concatenate((drawn, self._pending))
            done = j
        # below 2**32, so the same bits as int64, which gathers faster
        m >>= np.uint64(32)
        if live is None:
            return m.view(np.int64).reshape(high.shape)
        out = np.zeros(flat.size, dtype=np.int64)
        out[live] = m
        return out.reshape(high.shape)

    def folded(self, cells: np.ndarray, top) -> np.ndarray:
        """``offset + integers(count)`` as int64 for uint64 ``cells`` that
        pack ``offset << 32 | count``, in a buffer the next call reuses.

        ``top`` is the largest count if every count is at least 2 and every
        offset + count below 2**32, else None: the call then draws through
        :meth:`integers`. Halves x (pending ones, then the words'
        low and high halves, by mask and shift, so on any byte order) times
        the counts plus the cells is x * count + count + offset * 2**32,
        whose top 32 bits are offset + (x * count >> 32) unless the count
        carried. Low halves of the sum all at least 2 * top rule out a carry
        and a rejection (whose threshold is below the count); otherwise the
        call hands its halves back and draws through :meth:`integers`.
        """
        have = self._pending.size
        if top is None or have >= cells.size:
            return self._unfolded(cells)
        k, key = cells.size, (cells.shape, have)
        if key not in self._layouts:
            # the halves, pending first; the views their words' low and high
            # halves go to; the products; the halves left over; the indices
            words = (k - have + 1) // 2
            halves = np.empty(have + 2 * words, dtype=np.uint64)
            pairs = halves[have:].reshape(-1, 2)
            m = halves[:k].reshape(cells.shape)
            self._layouts[key] = (words, halves, pairs[:, 0], pairs[:, 1], m,
                                  halves[k:], m.view(np.int64))
        words, halves, lo, hi, m, rest, index = self._layouts[key]
        if have:
            halves[:have] = self._pending
        x = self._bitgen.random_raw(words)
        np.bitwise_and(x, _LOW32, out=lo)
        np.right_shift(x, _U32, out=hi)
        count = cells & _LOW32
        m *= count
        m += cells
        if m.astype(np.uint32).min() < 2 * top:
            # a carry or a rejection may have happened: the products give
            # the halves back exactly, for integers to draw from
            back = np.concatenate((((m - cells) // count).ravel(), rest))
            self._pending = back.astype(np.uint32)
            return self._unfolded(cells)
        self._pending = rest.astype(np.uint32)
        m >>= _U32
        return index

    def _unfolded(self, cells: np.ndarray) -> np.ndarray:
        return self.integers(cells & _LOW32) + (cells >> _U32).view(np.int64)
