"""Counter-based random streams keyed by ``(seed, index)``.

Every seeded draw in the package comes from a Philox4x64-10 generator
whose 128-bit key is the pair ``(seed, index)`` (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), so a stream
depends only on its key, never on evaluation order.  A seed is one key
word: anything outside [0, 2**64) is a configuration error.

``stream`` builds the generator of one key.  ``normal_rows`` draws the
quenched noise, one row per key, through one rekeyed bit generator: a
Philox state is just its key and counter, so setting the state to key
``(seed, k)`` at counter 0 gives exactly stream ``(seed, k)``, without
building a new generator (and its unused OS-entropy seed) per row.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), else :class:`ConfigError`."""
    value = int(seed)
    if not 0 <= value < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {value}")
    return value


def stream(seed, index: int = 0) -> np.random.Generator:
    """Generator of stream ``(seed, index)``."""
    key = np.array([check_seed(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_rows(seed, indices, n: int) -> np.ndarray:
    """Row i: ``stream(seed, indices[i]).standard_normal(n)``, bit for bit."""
    gen = stream(seed)
    state = gen.bit_generator.state  # counter 0, empty output buffer
    rows = np.empty((len(indices), n))
    for row, k in zip(rows, indices):
        state["state"]["key"][1] = k
        gen.bit_generator.state = state
        gen.standard_normal(n, out=row)
    return rows
