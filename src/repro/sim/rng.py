"""Named, independently seeded random streams.

Experiments in the paper repeat each configuration over 30 random seeds.  To
keep runs reproducible *and* structurally comparable (so changing how one
component draws randomness does not perturb another component's draws), each
consumer asks :class:`RngStreams` for its own named stream; streams are
derived from the master seed and the name, never from draw order.

Most names are drawn from exactly once: one processing time per task, one
placement shuffle per stripe, one heartbeat offset per slave.  A
:class:`random.Random` holds 2.5 KB of state, so :class:`RngStreams` keeps a
generator only for a name that is drawn from twice or fetched with
:meth:`RngStreams.stream`.  A first convenience draw seeds the generator,
draws, drops it and records a *replay recipe*: the stdlib method and the
sizes its draws depend on.  A second draw re-seeds, replays that recipe with
same-size dummy arguments (which consumes exactly the state the first draw
consumed) and keeps the generator from then on.  Every value is the one a
generator kept from the start would give.
"""

from __future__ import annotations

import hashlib
import random

_Random = random.Random

#: Replay recipes ``(method, *args)`` for draws whose state use does not
#: depend on their arguments: one shared tuple each (explicit arguments,
#: which some Python versions do not default).
_GAUSS = (_Random.gauss, 0.0, 1.0)
_EXPOVARIATE = (_Random.expovariate, 1.0)
_UNIFORM = (_Random.uniform, 0.0, 1.0)


def _shuffle_of_length(generator: random.Random, length: int) -> None:
    generator.shuffle([None] * length)


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

    Streams come in two states.  A name drawn from twice, or fetched with
    :meth:`stream`, has its generator *kept* in ``_streams``.  A name drawn
    from once through a convenience method (:meth:`normal`,
    :meth:`exponential`, :meth:`uniform`, :meth:`choice`, :meth:`sample`,
    :meth:`shuffle`, :meth:`randint`) is *spent*: ``_spent`` holds only the
    recipe that replays its one draw.
    """

    def __init__(self, master_seed: int, prefix: str = "") -> None:
        self.master_seed = master_seed
        self.prefix = prefix
        self._streams: dict[str, random.Random] = {}
        self._spent: dict[str, tuple] = {}
        self._children: dict[str, RngStreams] = {}

    def _seeded(self, full: str) -> random.Random:
        digest = hashlib.sha256(f"{self.master_seed}:{full}".encode()).digest()
        return _Random(int.from_bytes(digest[:8], "big"))

    def _keep(self, full: str) -> random.Random:
        """Seed ``full``'s generator, replay its spent draw if any, keep it."""
        generator = self._seeded(full)
        recipe = self._spent.pop(full, None)
        if recipe is not None:
            recipe[0](generator, *recipe[1:])
        self._streams[full] = generator
        return generator

    def _draw(self, name: str, method, args: tuple, recipe: tuple):
        """``method(generator, *args)`` on stream ``name``, keeping it only if reused.

        ``recipe`` replays this draw's state use; it is recorded only once
        the draw returns, so a call that raises (the stdlib validates before
        drawing) leaves the name untouched.
        """
        full = self.prefix + name
        generator = self._streams.get(full)
        if generator is None:
            if full not in self._spent:
                value = method(self._seeded(full), *args)
                self._spent[full] = recipe
                return value
            generator = self._keep(full)
        return method(generator, *args)

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        full = self.prefix + name
        generator = self._streams.get(full)
        if generator is None:
            generator = self._keep(full)
        return generator

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
            child._spent = self._spent
            self._children[name] = child
        return child

    def normal(self, name: str, mean: float, std: float, minimum: float = 1e-9) -> float:
        """Draw a normal variate from stream ``name``, floored at ``minimum``.

        Task processing times in the paper follow normal distributions; the
        floor guards against nonsensical non-positive durations in the tail.
        """
        value = self._draw(name, _Random.gauss, (mean, std), _GAUSS)
        return max(value, minimum)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._draw(name, _Random.expovariate, (1.0 / mean,), _EXPOVARIATE)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform float between ``low`` and ``high`` from stream ``name``."""
        return self._draw(name, _Random.uniform, (low, high), _UNIFORM)

    def choice(self, name: str, items: list):
        """Pick one item uniformly from stream ``name``."""
        return self._draw(
            name, _Random.choice, (items,), (_Random.choice, range(len(items)))
        )

    def sample(self, name: str, items: list, count: int) -> list:
        """Sample ``count`` distinct items from stream ``name``."""
        return self._draw(
            name, _Random.sample, (items, count), (_Random.sample, range(len(items)), count)
        )

    def shuffle(self, name: str, items: list) -> None:
        """Shuffle ``items`` in place using stream ``name``."""
        self._draw(name, _Random.shuffle, (items,), (_shuffle_of_length, len(items)))

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` from stream ``name``."""
        return self._draw(name, _Random.randint, (low, high), (_Random.randint, low, high))
