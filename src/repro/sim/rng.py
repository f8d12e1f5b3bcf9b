"""Named, independently seeded random streams.

Experiments in the paper repeat each configuration over 30 random seeds.  To
keep runs reproducible *and* structurally comparable (so changing how one
component draws randomness does not perturb another component's draws), each
consumer asks :class:`RngStreams` for its own named stream; streams are
derived from the master seed and the name, never from draw order.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """A factory of independent :class:`random.Random` streams.

    Parameters
    ----------
    master_seed:
        Seed for the whole experiment run.
    prefix:
        Label prefix prepended to every stream name.  User code never passes
        it directly; :meth:`spawn` builds prefixed children that share this
        factory's stream cache, so ``rng.spawn("a").stream("b")`` *is*
        ``rng.stream("a:b")``.
    """

    def __init__(self, master_seed: int, prefix: str = "") -> None:
        self.master_seed = master_seed
        self.prefix = prefix
        self._streams: dict[str, random.Random] = {}
        self._children: dict[str, RngStreams] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        full = f"{self.prefix}{name}"
        if full not in self._streams:
            digest = hashlib.sha256(f"{self.master_seed}:{full}".encode()).digest()
            self._streams[full] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[full]

    def spawn(self, name: str) -> "RngStreams":
        """Return a child factory whose streams live under ``name:``.

        The child is a labeled namespace, not a reseeding: it shares this
        factory's stream cache, and its streams are derived from the same
        master seed and the ``:``-joined full name.  Components that used to
        compose names by hand (``rng.sample(f"repair:{block}", ...)``) draw
        byte-identical values through ``rng.spawn("repair").sample(str(block),
        ...)``, so adopting ``spawn`` never perturbs trajectories.  Children
        are cached: repeated ``spawn`` calls with one name return one object.
        Each factory owns its direct children and nothing points back up, so
        the tree (and every cached stream) dies with its root.
        """
        child = self._children.get(name)
        if child is None:
            child = RngStreams(self.master_seed, prefix=f"{self.prefix}{name}:")
            child._streams = self._streams
            self._children[name] = child
        return child

    def normal(self, name: str, mean: float, std: float, minimum: float = 1e-9) -> float:
        """Draw a normal variate from stream ``name``, floored at ``minimum``.

        Task processing times in the paper follow normal distributions; the
        floor guards against nonsensical non-positive durations in the tail.
        """
        value = self.stream(name).gauss(mean, std)
        return max(value, minimum)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def choice(self, name: str, items: list):
        """Pick one item uniformly from stream ``name``."""
        return self.stream(name).choice(items)

    def sample(self, name: str, items: list, count: int) -> list:
        """Sample ``count`` distinct items from stream ``name``."""
        return self.stream(name).sample(items, count)

    def shuffle(self, name: str, items: list) -> None:
        """Shuffle ``items`` in place using stream ``name``."""
        self.stream(name).shuffle(items)

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` from stream ``name``."""
        return self.stream(name).randint(low, high)
