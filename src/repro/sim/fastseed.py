"""Batch reconstruction of ``PCG64(SeedSequence(seed))`` states.

The vectorized kernel (:mod:`repro.group_testing.vectorized`) must hand
every Monte-Carlo run the *exact* generator the scalar path builds with
``np.random.default_rng(derive_seed(...))``.  Constructing thousands of
``SeedSequence``/``PCG64`` objects per cell costs ~13 microseconds each
and dominates the kernel's budget, so this module reproduces the two
deterministic steps of that construction as array math over all seeds at
once:

* ``SeedSequence(seed).generate_state(4, uint64)`` -- O'Neill's entropy
  pool mixing plus the output hash, all 32-bit multiply/xor/shift
  operations whose hash-constant schedule is data-independent, hence
  trivially vectorizable across seeds -- and likewise
  ``SeedSequence(seed, spawn_key=key)``, the children
  ``Generator.spawn`` builds; and
* PCG64's ``srandom`` seeding -- two 128-bit multiply-adds per seed.

The reconstructed ``(state, inc)`` pairs are loaded into pooled
:class:`~numpy.random.Generator` objects via the documented
``BitGenerator.state`` property, so every downstream draw is made by
numpy's own PCG64, not a reimplementation.

Because the mixing constants, and the way numpy's draws read PCG64's
output stream, are numpy implementation details (stable since numpy
1.17, but not a documented API), :func:`available` replays one probe
battery against real ``SeedSequence``/``PCG64``/``Generator`` objects
once per process, and callers must fall back to ordinary construction
and per-run draws when it returns ``False``.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

#: SeedSequence pool/mixing constants (numpy ``_bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_U32 = 0xFFFFFFFF
_M32 = np.uint64(_U32)
_S32 = np.uint64(32)

#: PCG 128-bit LCG constants (``pcg64.h``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

_verified: bool | None = None


def _hash_schedule(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``calls`` successive hash steps.

    Step ``k`` xors with ``H_k`` and multiplies by ``H_{k+1}``, where
    ``H_0 = init`` and ``H_{k+1} = H_k * mult mod 2**32``: the schedule
    depends on the step count alone, never on the data.
    """
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _U32)
    table = np.array(consts, dtype=np.uint32)
    return table[:-1, None], table[1:, None]


#: Hash steps of one seeding: the pool fill, the pool mixing and each
#: spawn-key word's mix into the pool (up to two key words).
_MIX_XOR, _MIX_MUL = _hash_schedule(
    _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 2 * _POOL_SIZE
)
#: Hash steps of ``generate_state(8, uint32)``.
_OUT_XOR, _OUT_MUL = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _generate_state8(
    seeds: np.ndarray, keys: Optional[np.ndarray] = None
) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(8, uint32)``.

    ``seeds`` must be non-negative and ``< 2**64``.  Seeds below ``2**32``
    coerce to a single entropy word; hashing the absent second word is
    identical to hashing an explicit zero, so one fixed-shape pass covers
    both layouts.  ``keys`` (``None`` for no spawn key) is a ``(seeds,
    words)`` uint32 matrix, at most two words, one spawn-key element per
    column, each below ``2**32``.  With a spawn key numpy pads the run
    entropy with zeros to the four-word pool, which is the same ``(lo,
    hi, 0, 0)`` pool, and mixes each key word into every pool word after
    the pool mixing, on the same data-independent constant schedule.

    The pool is one ``(4, seeds)`` array.  Steps that read the same
    source word with consecutive constants run as one array operation:
    the fill, each source word's mix into the three other pool words
    (which leaves the source word itself unchanged), each key word's
    mix into all four, and the eight output words.
    """
    pool = np.zeros((_POOL_SIZE, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_U32)
    pool[1] = seeds >> np.uint64(32)
    step = 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:
        nonlocal step
        value = value ^ _MIX_XOR[step:step + count]
        value *= _MIX_MUL[step:step + count]
        value ^= value >> _XSHIFT
        step += count
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    pool = hashmix(pool, _POOL_SIZE)
    for i_src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        pool[dst] = mix(pool[dst], hashmix(pool[i_src], _POOL_SIZE - 1))
    if keys is not None:
        for word in keys.T:
            pool = mix(pool, hashmix(word, _POOL_SIZE))

    out = np.concatenate((pool, pool)) ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _XSHIFT
    return out.T


#: The limb products ``t[i] * MULT[j]`` with ``i + j <= 3`` (the rest
#: wrap away mod 2**128), ordered by column ``i + j``: column ``c``'s
#: products are rows ``_COLUMNS[c]``.  A product's high half carries
#: into column ``c + 1``.
_PRODUCT_T = np.array([0, 0, 1, 0, 1, 2, 0, 1, 2, 3])
_PRODUCT_MULT = np.array(
    [(_PCG_MULT >> (32 * j)) & _U32 for j in (0, 1, 0, 2, 1, 0, 3, 2, 1, 0)],
    dtype=np.uint64,
)[:, None]
_COLUMNS = (slice(0, 1), slice(1, 3), slice(3, 6), slice(6, 10))


def _srandom_batch(
    words: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG's ``srandom`` over ``generate_state(8, uint32)`` word matrices.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays -- the
    two 64-bit halves of each seed's 128-bit LCG state and increment.
    The 128-bit arithmetic (``state = (inc + initstate) * MULT + inc``)
    runs on ``(4, seeds)`` matrices of 32-bit limbs held in uint64, so no
    limb product or column sum can overflow.
    """
    m32 = np.uint64(_U32)
    s32 = np.uint64(32)
    # Little-endian 32-bit limbs.  generate_state word pairs are
    # little-endian uint64s: (w0, w1) -> first output uint64, etc.; the
    # first two uint64s form initstate (high word first), the last two
    # the stream selector.
    w = words.T.astype(np.uint64)
    init = w[[2, 3, 0, 1]]
    seq = w[[6, 7, 4, 5]]
    # inc = (initseq << 1) | 1
    inc = (seq << np.uint64(1)) & m32
    inc[1:] |= seq[:-1] >> np.uint64(31)
    inc[0] |= np.uint64(1)
    # t = inc + initstate (mod 2**128)
    t = inc + init
    for i in range(3):
        t[i + 1] += t[i] >> s32
    t &= m32
    # state = t * MULT + inc (mod 2**128), schoolbook on 32-bit limbs.
    acc = inc.copy()
    for c, rows in enumerate(_COLUMNS):
        prod = t[_PRODUCT_T[rows]] * _PRODUCT_MULT[rows]
        acc[c] += (prod & m32).sum(axis=0)
        if c < 3:
            acc[c + 1] += (prod >> s32).sum(axis=0)
    for i in range(3):
        acc[i + 1] += acc[i] >> s32
    acc &= m32
    state_lo = acc[0] | (acc[1] << s32)
    state_hi = acc[2] | (acc[3] << s32)
    inc_lo = inc[0] | (inc[1] << s32)
    inc_hi = inc[2] | (inc[3] << s32)
    return state_hi, state_lo, inc_hi, inc_lo


def pcg64_states(
    seeds: Sequence[int], spawn_keys: Optional[np.ndarray] = None
) -> List[Tuple[int, int]]:
    """The ``(state, inc)`` pair of ``PCG64(SeedSequence(s))`` per seed.

    With ``spawn_keys`` (a ``(seeds, words)`` matrix of key words below
    ``2**32``), seed ``i``'s generator is
    ``PCG64(SeedSequence(s, spawn_key=tuple(spawn_keys[i])))``.
    Bit-exact by construction (and guarded by :func:`available`): the
    first two ``generate_state`` uint64 words seed the LCG state, the
    last two its stream, through PCG's two-step ``srandom`` advance.
    """
    return _widen(_raw(seeds, spawn_keys))


def pcg64_raw(
    seeds: Sequence[int], spawn_keys: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`pcg64_states`, but as uint64 half arrays.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)`` -- the form the
    bulk output emulation (:func:`choice_bulk`) consumes directly,
    skipping the python-int widening of :func:`pcg64_states`.
    """
    return _raw(seeds, spawn_keys)


def _raw(
    seeds: Sequence[int], spawn_keys: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one seeding pass behind :func:`pcg64_states` and
    :func:`pcg64_raw` (neither calls the other, so perfbench's span
    tracing counts each call once)."""
    arr = np.asarray(seeds, dtype=np.uint64)
    keys = None if spawn_keys is None else np.asarray(spawn_keys, dtype=np.uint32)
    return _srandom_batch(_generate_state8(arr, keys))


def pairs_from_raw(
    raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> List[Tuple[int, int]]:
    """``(state, inc)`` python-int pairs from :func:`pcg64_raw` output."""
    return _widen(raw)


def _widen(
    raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> List[Tuple[int, int]]:
    """Join uint64 halves into ``(state, inc)`` python-int pairs.

    Shared by :func:`pcg64_states` and :func:`pairs_from_raw`; neither
    public function calls the other, so perfbench's span tracing counts
    each call once.
    Widening through object arrays beats a per-row shift/or
    comprehension ~4x.
    """
    state_hi, state_lo, inc_hi, inc_lo = raw
    states = (state_hi.astype(object) << 64) | state_lo.astype(object)
    incs = (inc_hi.astype(object) << 64) | inc_lo.astype(object)
    return list(zip(states.tolist(), incs.tolist()))


#: LCG jump tables: ``_JUMP_A[k] = MULT**k mod 2**128`` and
#: ``state_k = _JUMP_A[k] * state_0 + _JUMP_B[k] * inc`` -- so a whole
#: block of PCG64 states (hence outputs) is one broadcasted multiply-add
#: instead of ``k`` sequential steps.
_JUMP_A: List[int] = [1]
_JUMP_B: List[int] = [0]
_jump_limb_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

#: Serialises table growth: the query service replays 2+ draws from
#: several executor threads, and an append computed from a stale
#: ``_JUMP_A[-1]`` would silently corrupt every later output.
_JUMP_LOCK = threading.Lock()


def _jump_limbs(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """32-bit limb matrices of the jump constants for steps ``0..count``.

    Grows ``_JUMP_A``/``_JUMP_B`` (entries are never changed once
    appended) to cover ``count`` as a side effect.
    """
    global _jump_limb_cache
    cache = _jump_limb_cache
    if cache is not None and cache[0].shape[0] > count:
        return cache
    with _JUMP_LOCK:
        cache = _jump_limb_cache
        if cache is None or cache[0].shape[0] <= count:
            target = max(count + 1, 2 * len(_JUMP_A), 64)
            while len(_JUMP_A) < target:
                _JUMP_A.append((_JUMP_A[-1] * _PCG_MULT) & _MASK128)
                _JUMP_B.append((_JUMP_B[-1] * _PCG_MULT + 1) & _MASK128)
            size = len(_JUMP_A)
            a = np.empty((size, 4), dtype=np.uint64)
            b = np.empty((size, 4), dtype=np.uint64)
            for i in range(size):
                av, bv = _JUMP_A[i], _JUMP_B[i]
                for c in range(4):
                    a[i, c] = (av >> (32 * c)) & _U32
                    b[i, c] = (bv >> (32 * c)) & _U32
            cache = _jump_limb_cache = (a, b)
    return cache


def _half_limbs(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Little-endian 32-bit limbs of 128-bit values given as uint64 halves."""
    m32 = np.uint64(_U32)
    s32 = np.uint64(32)
    return (lo & m32, lo >> s32, hi & m32, hi >> s32)


def _lcg_jump(
    s: Sequence[np.ndarray],
    inc: Sequence[np.ndarray],
    a: Sequence[np.ndarray],
    b: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """``(a * s + b * inc) mod 2**128`` limbwise -- the LCG jump formula.

    All four operands are little-endian 32-bit limb quadruples (uint64
    arrays with mutually broadcastable shapes); with ``a = MULT**k`` and
    ``b = sum(MULT**j for j < k)`` the result is the LCG state ``k``
    steps ahead of ``s``.  Same 32-bit schoolbook with carry chains as
    :func:`_srandom_batch`, generalised to array coefficients.
    """
    m32 = np.uint64(_U32)
    s32 = np.uint64(32)
    limbs: List[np.ndarray] = []
    carry: object = np.uint64(0)
    hi_prev: List[np.ndarray] = []
    for c in range(4):
        acc = carry
        his: List[np.ndarray] = []
        for i in range(c + 1):
            p = a[i] * s[c - i]
            acc = acc + (p & m32)
            q = b[i] * inc[c - i]
            acc = acc + (q & m32)
            if c < 3:
                his.append(p >> s32)
                his.append(q >> s32)
        for h in hi_prev:
            acc = acc + h
        hi_prev = his
        limbs.append(acc & m32)
        carry = acc >> s32
    return limbs


def _pulls_from(
    s: Sequence[np.ndarray], inc: Sequence[np.ndarray], count: int
) -> np.ndarray:
    """The next ``count`` outputs after limb state ``s``, as 32-bit pulls.

    Returns ``(2 * count, rows)`` uint64 where rows ``2k`` / ``2k + 1``
    hold the low/high halves of output ``k`` -- the order PCG64's
    buffered ``next_uint32`` hands them out.  Outputs are XSL-RR over
    the jumped LCG states (PCG64 steps first, then outputs the new
    state).
    """
    m32 = np.uint64(_U32)
    s32 = np.uint64(32)
    ak, bk = _jump_limbs(count)
    a = tuple(ak[1:count + 1, i][:, None] for i in range(4))
    b = tuple(bk[1:count + 1, i][:, None] for i in range(4))
    limbs = _lcg_jump(s, inc, a, b)
    hi = (limbs[3] << s32) | limbs[2]
    lo = (limbs[1] << s32) | limbs[0]
    mixed = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))
    pulls = np.empty((2 * count, out.shape[1]), dtype=np.uint64)
    pulls[0::2] = out & m32
    pulls[1::2] = out >> s32
    return pulls


def pull_block(
    raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    count: int,
    skip: Union[int, np.ndarray] = 0,
) -> np.ndarray:
    """Outputs ``skip .. skip + count`` of every generator, as 32-bit pulls.

    Returns the ``(2 * count, rows)`` uint64 matrix of the values a
    freshly loaded generator's buffered ``next_uint32`` hands out after
    ``skip`` 64-bit outputs: rows ``2k`` / ``2k + 1`` hold the low/high
    half of output ``skip + k``.  ``skip`` is one count for every
    generator or an int64 array of one per generator.  A caller that
    does not know how many pulls it needs grows its buffer block by
    block without recomputing the prefix.  Whether numpy's bounded draws
    read this stream the way such callers assume is checked by
    :func:`available`.
    """
    state_hi, state_lo, inc_hi, inc_lo = raw
    s: Sequence[np.ndarray] = _half_limbs(state_hi, state_lo)
    inc = _half_limbs(inc_hi, inc_lo)
    if np.any(skip):
        ak, bk = _jump_limbs(int(np.max(skip)))
        s = _lcg_jump(s, inc, tuple(ak[skip].T), tuple(bk[skip].T))
    return _pulls_from(s, inc, count)


#: Outputs a :class:`DrawReplay` row gains at least per growth step.
_REPLAY_BLOCK = 8

#: Rows whose outputs :meth:`DrawReplay.reserve` computes in one pass.
_REPLAY_CHUNK = 256


class DrawReplay:
    """``random()`` and ``integers(c)`` draws of many PCG64 streams at once.

    Row ``i`` stands for one generator, given as row ``i`` of a
    :func:`pcg64_raw` state with no buffered half.  Every call draws once
    on each listed row (a row may appear once per call) and returns what
    that generator's own call would, reading the stream's outputs from
    :func:`pull_block` instead of calling numpy:

    * ``random()`` takes one whole 64-bit output ``u`` and returns
      ``(u >> 11) * 2**-53``; a waiting high half stays waiting.
    * ``integers(c)`` for ``2 <= c < 2**32`` is 32-bit Lemire rejection
      on buffered halves: each pull is the waiting high half if there is
      one, else the low half of the next output (whose high half then
      waits); ``m = pull * c`` is redrawn while ``m mod 2**32 < (2**32 -
      c) % c``, and the draw is ``m >> 32``.

    Each row holds the outputs it has been given in one row-major
    buffer.  Only rows that run short are given more outputs (at least
    :data:`_REPLAY_BLOCK` at a time), so the pull computation follows
    each row's own consumption; callers that know a bound on their next
    draws :meth:`reserve` it up front, so rows grow in few steps.
    :func:`available` checks the contract against this numpy.

    Attributes:
        used: 64-bit outputs each row has consumed.
        waiting: Whether a high half waits (``has_uint32``).
        uinteger: The high half each row buffered last (``uinteger``),
            handed out next while ``waiting``.
    """

    def __init__(
        self, raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        self._raw = raw
        rows = int(raw[0].size)
        self.used = np.zeros(rows, dtype=np.int64)
        self.waiting = np.zeros(rows, dtype=bool)
        self.uinteger = np.zeros(rows, dtype=np.uint64)
        self._have = np.zeros(rows, dtype=np.int64)
        self._pulls = np.zeros((rows, 0), dtype=np.uint64)

    def reserve(self, rows: np.ndarray, outputs: np.ndarray) -> None:
        """Make row ``rows[i]`` hold at least ``outputs[i]`` outputs."""
        short = outputs > self._have[rows]
        if not short.any():
            return
        grow = rows[short]
        have = self._have[grow]
        count = max(int((outputs[short] - have).max()), _REPLAY_BLOCK)
        width = 2 * (int(have.max()) + count)
        if width > self._pulls.shape[1]:
            wider = np.zeros((self._pulls.shape[0], width), dtype=np.uint64)
            wider[:, : self._pulls.shape[1]] = self._pulls
            self._pulls = wider
        state_hi, state_lo, inc_hi, inc_lo = self._raw
        cols = 2 * have[:, None] + np.arange(2 * count, dtype=np.int64)
        # Chunks bound pull_block's limb temporaries (about sixteen
        # count x rows uint64 arrays) whatever the number of rows.
        for lo in range(0, grow.size, _REPLAY_CHUNK):
            part = grow[lo:lo + _REPLAY_CHUNK]
            block = pull_block(
                (state_hi[part], state_lo[part], inc_hi[part], inc_lo[part]),
                count,
                skip=have[lo:lo + _REPLAY_CHUNK],
            )
            self._pulls[part[:, None], cols[lo:lo + _REPLAY_CHUNK]] = block.T
        self._have[grow] = have + count

    def _output(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Low and high half of each row's next 64-bit output."""
        used = self.used[rows]
        self.reserve(rows, used + 1)
        at = rows * self._pulls.shape[1] + 2 * used
        flat = self._pulls.ravel()
        self.used[rows] = used + 1
        return flat.take(at), flat.take(at + 1)

    def _pull(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next buffered 32-bit pull (``next_uint32``)."""
        wait = self.waiting[rows]
        pull = np.empty(rows.size, dtype=np.uint64)
        pull[wait] = self.uinteger[rows[wait]]
        fresh = ~wait
        if fresh.any():
            lo, hi = self._output(rows[fresh])
            pull[fresh] = lo
            self.uinteger[rows[fresh]] = hi
        self.waiting[rows] = fresh
        return pull

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``Generator.random()`` on each row, as float64."""
        lo, hi = self._output(rows)
        return (((hi << _S32) | lo) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``Generator.integers(bounds[i])`` on row ``rows[i]``, as int64."""
        c = bounds.astype(np.uint64)
        threshold = (np.uint64(1 << 32) - c) % c
        m = self._pull(rows) * c
        bad = (m & _M32) < threshold
        while bad.any():
            redo = np.flatnonzero(bad)
            m[redo] = self._pull(rows[redo]) * c[redo]
            bad[redo] = (m[redo] & _M32) < threshold[redo]
        return (m >> _S32).astype(np.int64)


class _PullsExhausted(Exception):
    """A rejection streak outran the precomputed pull buffer."""


def choice_bulk(
    raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n: int,
    x: int,
) -> Optional[np.ndarray]:
    """``Generator.choice(n, size=x, replace=False)`` for every state.

    Reproduces numpy's algorithm -- Floyd's sampling followed by a
    Fisher-Yates shuffle of the result, every bound drawn with 32-bit
    Lemire rejection over PCG64's buffered ``next_uint32`` stream
    (verified by :func:`available`) -- in lockstep across rows.
    Returns the ``(rows, x)`` index matrix, or ``None`` when this
    ``(n, x)`` is out of scope or an (astronomically rare) rejection
    streak outruns the pull buffer; callers then draw per run.

    Only the *result* is reproduced: the leftover generator state is
    not, so this suits streams consumed by nothing else.
    """
    if x < 1 or x > n or n >= (1 << 31):
        return None
    rows = int(raw[0].size)
    count = x + 4
    pulls = pull_block(raw, count).ravel()
    limit = 2 * count
    rowix = np.arange(rows, dtype=np.int64)
    ptr = np.zeros(rows, dtype=np.int64)
    one = np.int64(1)
    s32 = np.uint64(32)
    m32 = np.uint64(_U32)
    rejected = False

    def draw(rng: int) -> np.ndarray:
        nonlocal rejected
        rng_excl = rng + 1
        mult = np.uint64(rng_excl)
        thr = ((1 << 32) - rng_excl) % rng_excl
        if rejected and int(ptr.max()) >= limit:
            raise _PullsExhausted
        prod = pulls.take(ptr * rows + rowix) * mult
        np.add(ptr, one, out=ptr)
        if thr:
            bad = (prod & m32) < np.uint64(thr)
            while bad.any():
                rejected = True
                rb = np.flatnonzero(bad)
                if int(ptr[rb].max()) >= limit:
                    raise _PullsExhausted
                prod[rb] = pulls[ptr[rb] * rows + rowix[rb]] * mult
                ptr[rb] += 1
                bad[rb] = (prod[rb] & m32) < np.uint64(thr)
        return (prod >> s32).astype(np.int64)

    taken = np.zeros(rows * n, dtype=bool)
    row_off_n = rowix * n
    chosen = np.empty((rows, x), dtype=np.int64)
    try:
        for j in range(n - x, n):
            if j == 0:
                val = np.zeros(rows, dtype=np.int64)
            else:
                val = draw(j)
            dup = taken[val + row_off_n]
            if dup.any():
                val = np.where(dup, j, val)
            taken[val + row_off_n] = True
            chosen[:, j - (n - x)] = val
        flat = chosen.ravel()
        row_off_x = rowix * x
        for i in range(x - 1, 0, -1):
            jv = draw(i) + row_off_x
            at_i = row_off_x + i
            cur_i = flat[at_i]
            cur_j = flat[jv]
            flat[jv] = cur_i
            flat[at_i] = cur_j
    except _PullsExhausted:
        return None
    return chosen


def _choice_matches(seeds: Sequence[int]) -> bool:
    """:func:`choice_bulk` equals real ``Generator.choice`` calls: Floyd
    + shuffle + Lemire, the ``x == n`` full permutation and the
    one-element draw included."""
    raw = pcg64_raw(seeds)
    for n, x in [(128, 10), (128, 128), (16, 16), (7, 3), (5, 1), (1, 1), (200, 199)]:
        got = choice_bulk(raw, n, x)
        if got is None:
            return False
        for i, seed in enumerate(seeds):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            if not np.array_equal(got[i], gen.choice(n, size=x, replace=False)):
                return False
    return True


#: The interleaved draws :func:`available` replays: ``None`` is a
#: ``random()``, an int ``c`` an ``integers(c)``.  ``2**31 + 1`` rejects
#: about half its pulls, so rows fall out of step and grow their buffers
#: apart; runs of ``random()`` after an odd number of pulls leave a high
#: half waiting across them.
_REPLAY_PROBE: Tuple[Optional[int], ...] = (
    3, None, None, None, 7, 100, None, 2, 2**31 + 1, None, None,
    2**31 + 1, 2**31 + 1, 2**32 - 1, None, 5, 2**31 + 1, 2**31 + 1,
    2**31 + 1, None, 6, None, None, None, None, 2**31 + 1, 1000, 3,
)


def _power_of_two_draws_match(seeds: Sequence[int]) -> bool:
    """Power-of-two ``integers(0, w)`` calls read one pull each."""
    raw = pcg64_raw(seeds)
    pulls = np.concatenate((pull_block(raw, 5), pull_block(raw, 7, skip=5)))
    widths = (2, 64, 1, 256, 1 << 31, 1 << 32, 8, 1024)
    for i, seed in enumerate(seeds):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        got = [int(v) for v in gen.integers(0, 8, size=3)]
        got += [int(v) for v in gen.integers(0, 1, size=4)]
        got += [int(gen.integers(0, w)) for w in widths]
        got += [int(v) for v in gen.integers(0, 16, size=9)]
        col = [int(p) for p in pulls[:, i]]
        want = [(p * 8) >> 32 for p in col[:3]] + [0] * 4
        k = 3
        for w in widths:
            if w == 1:
                want.append(0)
            else:
                want.append((col[k] * w) >> 32)
                k += 1
        want += [(p * 16) >> 32 for p in col[k:k + 9]]
        if got != want:
            return False
    return True


def _replayed_draws_match(seeds: Sequence[int]) -> bool:
    """:class:`DrawReplay` equals real ``random()``/``integers(c)`` calls,
    draw for draw."""
    gens = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
        for s in seeds
    ]
    replay = DrawReplay(pcg64_raw(seeds))
    rows = np.arange(len(seeds), dtype=np.int64)
    for bound in _REPLAY_PROBE:
        if bound is None:
            same = replay.random(rows).tolist() == [gen.random() for gen in gens]
        else:
            same = replay.integers(rows, np.full(rows.size, bound)).tolist() == [
                int(gen.integers(bound)) for gen in gens
            ]
        if not same:
            return False
    return True


def _states_match() -> bool:
    """:func:`pcg64_states` equals real ``SeedSequence``/``PCG64`` states
    over probe seeds spanning one- and two-word entropy, without and
    with two-word spawn keys (``Generator.spawn`` grandchildren)."""
    probe = [0, 1, 7, 2011, 2**31, 2**32 - 1, 2**32, 3 << 40, (1 << 63) - 1]
    keys = np.array(
        [(i * 977, i % 3) for i in range(len(probe))] + [(2**32 - 1, 2)],
        dtype=np.uint32,
    )
    spawn_probe = probe + [2**64 - 1]

    def state(seq: np.random.SeedSequence) -> Tuple[int, int]:
        st = np.random.PCG64(seq).state["state"]
        return st["state"], st["inc"]

    plain = [state(np.random.SeedSequence(s)) for s in probe]
    spawned = [
        state(np.random.SeedSequence(s, spawn_key=tuple(int(w) for w in key)))
        for s, key in zip(spawn_probe, keys)
    ]
    return (
        pcg64_states(probe) == plain
        and pcg64_states(spawn_probe, keys) == spawned
    )


def available() -> bool:
    """Whether this numpy's PCG64 behaves as this module replays it.

    One battery, replayed against real ``SeedSequence``/``PCG64``/
    ``Generator`` objects once per process (cached):

    * state reconstruction: :func:`pcg64_states` over seeds spanning
      one- and two-word entropy, with and without spawn keys;
    * bulk choice: :func:`choice_bulk` against ``Generator.choice``;
    * power-of-two bounds: with ``w`` a power of two no larger than
      ``2**32``, ``Generator.integers(0, w)`` consumes exactly one
      buffered 32-bit pull and returns ``(pull * w) >> 32`` (Lemire's
      rejection threshold ``(2**32 - w) % w`` is zero), and
      ``integers(0, 1)`` consumes none.  Checked over sized fills of odd
      length (so the buffered high half carries into the next call),
      scalar calls and a block read past a skip;
    * :class:`DrawReplay`: interleaved ``random()`` and
      non-power-of-two ``integers(c)``, with bounds that force Lemire
      rejections and high halves left waiting across ``random()``
      calls, give the same values.

    ``False`` (a numpy whose mixing schedule or stream consumption
    changed) means callers construct generators and draw the ordinary
    way.
    """
    global _verified
    if _verified is None:
        seeds = [0, 1, 7, 2011, 123456789, (1 << 63) - 1]
        try:
            _verified = (
                _states_match()
                and _choice_matches(seeds)
                and _power_of_two_draws_match(seeds)
                and _replayed_draws_match(seeds)
            )
        except Exception:
            _verified = False
    return _verified


class GeneratorPool:
    """Reusable ``(PCG64, Generator)`` pairs for state-loaded streams.

    Generator construction costs dwarf a ``BitGenerator.state``
    assignment, so the pool builds each slot once and thereafter only
    swaps states in.  Loading a slot repositions -- it does not copy --
    so a slot must not be reloaded while a previous borrower still draws
    from it.
    """

    def __init__(self) -> None:
        self._bits: List[np.random.PCG64] = []
        self._gens: List[np.random.Generator] = []
        self._dicts: List[dict] = []

    def reserve(self, count: int) -> None:
        """Grow the pool to at least ``count`` slots."""
        while len(self._gens) < count:
            bit = np.random.PCG64(0)
            self._bits.append(bit)
            self._gens.append(np.random.Generator(bit))
            # The state setter consumes the dict immediately, so each
            # slot reuses one mutable template instead of building two
            # fresh dicts per load.
            self._dicts.append({
                "bit_generator": "PCG64",
                "state": {"state": 0, "inc": 0},
                "has_uint32": 0,
                "uinteger": 0,
            })

    def load(self, slot: int, state: int, inc: int) -> np.random.Generator:
        """Position ``slot`` at ``(state, inc)`` and return its generator."""
        template = self._dicts[slot]
        inner = template["state"]
        inner["state"] = state
        inner["inc"] = inc
        self._bits[slot].state = template
        return self._gens[slot]
