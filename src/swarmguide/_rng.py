"""Counter-based uniform random streams.

A draw is a 53-bit integer k in [0, 2^53), the uniform k 2^-53 in [0, 1)
held exactly, so samplers compare it against integer bounds and no draw is
ever converted to a float.  Every draw is a pure hash of (master seed,
stream tag, step, agent id), so a simulation produces the same numbers no
matter how agents are batched or in what order they are evaluated.  Removing an agent never perturbs the draws of
the survivors because each agent keeps its id for life.

Because a draw depends on nothing a run computes, the draws of later rounds
can be hashed ahead: ``uniform_stream`` takes a range of steps and hashes
them in one call, one row per round.  A row is the same bytes as the
one-step call for its round, so how a run blocks its rounds never shows in
its draws.

The hash is the splitmix64 output finalizer applied to a Weyl-sequence input,
a standard construction for counter-mode generation.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# The same constants and shift counts as numpy scalars, made once.
_GAMMA_U64, _MIX_A_U64, _MIX_B_U64 = np.uint64(_GAMMA), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U64 = {n: np.uint64(n) for n in (11, 27, 30, 31)}

# Stream tags keep draws for different purposes statistically independent.
PLACEMENT_STREAM = 0
MOVE_STREAM = 1
REMOVAL_STREAM = 2


def mix64(x: int) -> int:
    """splitmix64 output finalizer on plain Python integers."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK
    return x ^ (x >> 31)


def _stream_key(seed: int, stream: int) -> int:
    """The (seed, stream tag) part of every round key of the stream."""
    return mix64((mix64((seed + _GAMMA) & _MASK) + stream * _GAMMA) & _MASK)


def round_key(seed: int, stream: int, step: int) -> int:
    """Collapse (seed, stream tag, step) into one 64-bit round key."""
    return mix64((_stream_key(seed, stream) + step * _GAMMA) & _MASK)


def uniform_stream(seed: int, stream: int, step: int | range, ids: np.ndarray) -> np.ndarray:
    """One uniform draw per agent id for the given round or rounds: an
    integer k in [0, 2^53), the top 53 bits of the hash, which stands for
    the uniform k 2^-53 in [0, 1).

    ``ids`` is an integer array of persistent agent identifiers.  For one
    ``step`` the result is an int64 array of the same length, independent
    of id order: entry k depends only on (seed, stream, step, ids[k]).  For
    a ``range`` of steps it is a 2-D array with one such row per step, row i
    the same bytes as the one-step call for ``step[i]``.  A block holds two
    rounds x ids arrays at its peak, so callers keep blocks small.
    """
    stream_key = _stream_key(seed, stream)
    steps = step if isinstance(step, range) else (step,)
    keys = np.array([mix64((stream_key + s * _GAMMA) & _MASK) for s in steps], dtype=np.uint64)
    # The Weyl base of the ids, formed once in row 0, takes each later
    # round's key by broadcasting into the rows below, then its own round's
    # in place.  Then everything is hashed in place on ``z``; ``shifted``
    # takes each right shift.
    z = np.empty((keys.size, np.size(ids)), dtype=np.uint64)
    base = z[:1]
    base[...] = ids
    base *= _GAMMA_U64
    np.bitwise_xor(base, keys[1:, np.newaxis], out=z[1:])
    base ^= keys[:1, np.newaxis]
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _U64[30], out=shifted)
    z *= _MIX_A_U64
    z ^= np.right_shift(z, _U64[27], out=shifted)
    z *= _MIX_B_U64
    z ^= np.right_shift(z, _U64[31], out=shifted)
    # The top 53 bits, in place; below 2^63, so the same bytes read as int64.
    out = np.right_shift(z, _U64[11], out=z).view(np.int64)
    return out if isinstance(step, range) else out[0]
