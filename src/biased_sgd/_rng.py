"""Counter-based RNG streams (Philox) keyed per experiment component.

Every random quantity in the library is drawn from a stream created here, so
that a (seed, path...) pair fully determines the byte content of any output.
"""

from __future__ import annotations

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix64(h: int, v: int) -> int:
    # splitmix64 finalizer, folds one path component into the running key word
    z = (h + int(_MIX) + v) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for (seed, path).

    `path` components separate repetitions, sweep cells, estimator points and
    so on; distinct paths give statistically independent, reproducible streams.
    """
    word = 0
    for component in path:
        word = _mix64(word, int(component))
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generator_at(gen: np.random.Generator, state: dict,
                 jumps: int = 0) -> np.random.Generator:
    """A new generator of `gen`'s kind at `state`, jumped `jumps` times."""
    bit_gen = type(gen.bit_generator)()
    bit_gen.state = state
    return np.random.Generator(bit_gen.jumped(jumps) if jumps else bit_gen)


class KindStreams:
    """The draws of one generator, each draw kind on its own stream.

    Row maps draw only through `standard_normal(size)` and `random(size)`.
    The first kind drawn keeps the generator's own stream; the n-th kind
    after it draws from `Generator(bit_generator.jumped(n))` of the
    generator's state before that first draw, a counter range 2^128 draws
    away (Salmon et al., SC'11, "Parallel random numbers: as easy as 1, 2,
    3"). So a one-kind row map draws exactly what the generator would give
    it, and the draws of one kind do not depend on how the other kind's are
    split into calls.
    """

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self._kinds: dict = {}  # method name -> the generator it draws from
        self._origin: dict = {}  # the generator's state before the first draw

    def stream(self, kind: str) -> np.random.Generator:
        g = self._kinds.get(kind)
        if g is None:
            if not self._kinds:
                self._origin = self.gen.bit_generator.state
                g = self.gen
            else:
                g = generator_at(self.gen, self._origin, len(self._kinds))
            self._kinds[kind] = g
        return g

    def standard_normal(self, size) -> np.ndarray:
        return self.stream("standard_normal").standard_normal(size)

    def random(self, size) -> np.ndarray:
        return self.stream("random").random(size)
