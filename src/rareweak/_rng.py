"""Counter-based RNG substreams.

All randomness in the package flows through Philox (4x64), a counter-based
generator, so that independent substreams can be derived from one user seed
by *path* rather than by drawing order.  A path is a short tuple of small
integers (purpose tag, replicate index, column index, ...).  Two properties
matter downstream:

* column substreams are independent of the total number of columns, so
  enlarging a simulated panel never reshuffles the columns already drawn;
* replicate substreams are independent of scheduling, so results do not
  depend on how replicates are split across worker processes.

Correlated genotype panels key one Philox per column (``column_generators``)
and draw normals from it.  Identity panels instead read raw 64-bit words
from the single ``(seed, TAG_GENOTYPE)`` substream: column j of an n-row
panel is words j*n .. (j+1)*n - 1, a fixed counter offset, and each word's
low and high 32-bit halves are the cell's two haplotypes, carrying the
allele when below t = round(q * 2^32), so P(allele) = t / 2^32.

``RNG_STREAMS`` numbers the layout of these streams; every artifact sidecar
records it, and it grows whenever a seed stops reproducing an artifact.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

RNG_ALGORITHM = "philox4x64"
# version of the stream layout; README lists what each version changed
RNG_STREAMS = 3

# purpose tags for seed paths; values are arbitrary but frozen, since
# changing them changes every stream derived from a given seed
TAG_GENOTYPE = 1
TAG_SIGNAL = 2
TAG_TRAIT = 3
TAG_PERMUTE = 4
TAG_REPLICATE = 5
TAG_CASE_CONTROL = 6
TAG_GENE = 7


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """The SeedSequence of ``(seed, *path)``: every stream starts here, so
    this is the one check that a seed is a non-negative integer."""
    if int(seed) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *path)``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit child seed, for handing a whole namespace to a sub-task."""
    return int(seed_sequence(seed, *path).generate_state(1, dtype=np.uint64)[0])


def column_generators(seed: int, path: tuple[int, ...], n_columns: int) -> list[np.random.Generator]:
    """One generator per column, keyed off a single parent sequence.

    Column ``j`` gets the ``j``-th pair of 64-bit words from the parent's
    expanded state as its Philox key, so the stream for column ``j`` does not
    depend on ``n_columns``... as long as ``j < n_columns``.  Cheaper than
    constructing one SeedSequence per column and equally collision-safe.
    """
    keys = seed_sequence(seed, *path).generate_state(2 * n_columns, dtype=np.uint64)
    keys = keys.reshape(n_columns, 2)
    return [np.random.Generator(np.random.Philox(key=keys[j])) for j in range(n_columns)]
