"""Property test: one-shot streams draw exactly what kept generators draw.

:class:`~repro.sim.rng.RngStreams` keeps a generator only for a name drawn
from twice or fetched with ``stream()``; a first convenience draw seeds,
draws and drops the generator, and a later use re-seeds and replays that
draw before going on.  The claim is that *nothing observable changes*:
every value equals what one :class:`random.Random` per full name, kept
from its first use, gives.

:class:`ReferenceStreams` below is that keep-everything factory (the
implementation before one-shot streams, less the child cache).  Random
scripts interleave names reached through root and ``spawn`` children
(``spawn("a").uniform("x", ...)`` and ``uniform("a:x", ...)`` name one
stream), every convenience method, draws that raise before drawing, and
raw ``stream()`` fetches followed by raw draws; both sides must give the
same values, the same exceptions and the same shuffled lists, and
``stream()`` must return one object whatever the access path.

The last test is the mutation check of this harness: a second use that
keeps a freshly seeded generator without replaying the first draw must be
caught.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngStreams


class ReferenceStreams:
    """One generator per full name, kept from its first use."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self.generators: dict[str, random.Random] = {}

    def stream(self, full: str) -> random.Random:
        if full not in self.generators:
            digest = hashlib.sha256(f"{self.master_seed}:{full}".encode()).digest()
            self.generators[full] = random.Random(int.from_bytes(digest[:8], "big"))
        return self.generators[full]

    def draw(self, full: str, method: str, args: tuple):
        generator = self.stream(full)
        if method == "normal":
            mean, std = args
            return max(generator.gauss(mean, std), 1e-9)
        if method == "exponential":
            (mean,) = args
            if mean <= 0:
                raise ValueError(mean)
            return generator.expovariate(1.0 / mean)
        if method == "shuffle":
            generator.shuffle(args[0])
            return None
        return getattr(generator, method)(*args)


def _draw_args(method: str, data) -> tuple:
    """Arguments for one draw; some fail validation before drawing."""
    if method == "normal":
        return (data.draw(st.floats(-50, 50)), data.draw(st.floats(0, 20)))
    if method == "exponential":
        return (data.draw(st.sampled_from([0.5, 3.0, 120.0, 0.0])),)
    if method == "uniform":
        return (data.draw(st.floats(-10, 10)), data.draw(st.floats(-10, 10)))
    if method == "randint":
        low = data.draw(st.integers(-5, 5))
        return (low, low + data.draw(st.integers(-1, 1000)))
    # Up to 40 items: sample takes its set branch from 22 items at k <= 5.
    items = list(range(data.draw(st.integers(0, 40))))
    if method == "sample":
        return (items, data.draw(st.integers(0, len(items) + 1)))
    return (items,)


NAMES = st.sampled_from(["x", "y", "a:x", "b:y", "a:b:x"])
PATHS = st.sampled_from([(), ("a",), ("b",), ("a", "b")])
ACTIONS = st.sampled_from(
    ["normal", "exponential", "uniform", "choice", "sample", "shuffle", "randint", "stream"]
)


def _child(root: RngStreams, path: tuple) -> RngStreams:
    factory = root
    for label in path:
        factory = factory.spawn(label)
    return factory


def _outcome(call):
    try:
        return ("value", call())
    except (ValueError, IndexError) as error:
        return ("raised", type(error))


def run_script(seed: int, data, steps: int) -> None:
    real, reference = RngStreams(seed), ReferenceStreams(seed)
    for _ in range(steps):
        path, name, action = data.draw(PATHS), data.draw(NAMES), data.draw(ACTIONS)
        factory = _child(real, path)
        full = "".join(f"{label}:" for label in path) + name
        if action == "stream":
            generator = factory.stream(name)
            parts = full.split(":")
            for cut in range(len(parts)):  # every root / child split of the name
                head, tail = ":".join(parts[:cut]), ":".join(parts[cut:])
                assert (real.spawn(head) if head else real).stream(tail) is generator
            raw = data.draw(st.integers(1, 3))
            assert [generator.random() for _ in range(raw)] == [
                reference.stream(full).random() for _ in range(raw)
            ]
            continue
        args = _draw_args(action, data)
        mirrored = tuple(list(arg) if isinstance(arg, list) else arg for arg in args)
        got = _outcome(lambda: getattr(factory, action)(name, *args))
        expected = _outcome(lambda: reference.draw(full, action, mirrored))
        assert got == expected, (full, action)
        assert args == mirrored  # shuffled lists end up in the same order


# One failure per run, so the harness check below can expect an AssertionError.
@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@given(st.integers(0, 2**32), st.data())
def test_every_draw_matches_a_generator_kept_per_name(seed, data):
    run_script(seed, data, steps=data.draw(st.integers(1, 40)))


@pytest.mark.parametrize(
    "method,args",
    [("normal", (1.0, 2.0)), ("uniform", (0.0, 1.0)), ("shuffle", (list(range(30)),)),
     ("sample", (list(range(30)), 4))],
)
def test_only_a_name_drawn_again_keeps_a_generator(method, args):
    rng = RngStreams(3)
    getattr(rng.spawn("a"), method)("x", *args)
    assert rng._streams == {}
    rng.normal("a:x", 0.0, 1.0)
    assert set(rng._streams) == {"a:x"}


def test_harness_catches_a_skipped_replay(monkeypatch):
    """A second use that keeps a freshly seeded generator must fail the property."""

    def keep_without_replay(self, full):
        self._spent.pop(full, None)
        generator = self._seeded(full)
        self._streams[full] = generator
        return generator

    monkeypatch.setattr(RngStreams, "_keep", keep_without_replay)
    with pytest.raises(AssertionError):
        test_every_draw_matches_a_generator_kept_per_name()
