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


class DrawStreams:
    """The draws of one generator, each draw of a call on its own stream.

    Row maps draw only through `standard_normal(size)` and `random(size)`,
    a row per row, of shape `size[1:]`. After `call()` starts a call (one
    query), its n-th draw comes from the generator's state at construction
    jumped n times, a counter range 2^128 draws per jump (Salmon et al.,
    SC'11, "Parallel random numbers: as easy as 1, 2, 3"), and goes on where
    the earlier calls' n-th draws of that kind and row shape stopped: one
    copy per (kind, slot, row shape), as the engine keys its pulls, so `gen`
    is not advanced. A one-draw row map draws what the generator would give
    it, and no draw depends on how the calls split the samples. A later
    call's draw that the first call to draw did not make raises, as the
    engine's does after step 0: a fresh copy would hand out numbers again.

    `replay()` starts the call again for another row map of the same rows:
    a draw the call has made is handed back, not made again, so row maps
    that make one draw each get it once. Draws are read-only.

    `prepared(kind, size, prep)` is `prep` (`oracles.draw`) of that draw,
    applied per call and read-only too.
    """

    def __init__(self, gen: np.random.Generator):
        self.gen, self.origin, self.gens = gen, gen.bit_generator.state, {}
        self.call()

    def call(self) -> "DrawStreams":
        self.n, self.made, self.fixed = 0, {}, bool(self.gens)
        return self

    def replay(self) -> "DrawStreams":
        self.n = 0
        return self

    def _draw(self, kind: str, size) -> np.ndarray:
        key, self.n = (kind, self.n, tuple(size[1:])), self.n + 1
        out = self.made.get(key)
        if out is None:
            if key not in self.gens:
                if self.fixed:
                    raise ValueError(f"{kind} draw {key[1]} of row shape "
                                     f"{key[2]}, unlike the first call")
                self.gens[key] = generator_at(self.gen, self.origin, key[1])
            out = self.made[key] = getattr(self.gens[key], kind)(size)
            out.flags.writeable = False
        elif out.shape != tuple(size):
            raise ValueError(f"{kind} draws {out.shape[0]} and {size[0]} rows "
                             "in one call")
        return out

    def standard_normal(self, size) -> np.ndarray:
        return self._draw("standard_normal", size)

    def random(self, size) -> np.ndarray:
        return self._draw("random", size)

    def prepared(self, kind: str, size, prep) -> np.ndarray:
        out = prep(self._draw(kind, size))
        out.flags.writeable = False
        return out
