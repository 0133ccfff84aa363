"""numpy's bounded integer draw, value for value, from raw PCG64 words.

``Generator.integers`` draws one element at a time; the stability
analysis draws thousands of sample indices a move, and one array product
over the stream's raw words gives the same indices in about half the time.
"""

import numpy as np

from .errors import ParameterError

_SPAN = np.uint64(1 << 32)


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
    ``rejections`` counts the rejected halves.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._pending = np.empty(0, dtype=np.uint32)   # drawn, not yet used
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
