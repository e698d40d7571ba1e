"""Dynamic determinism sanitizers over the identity registry.

Static rules catch *patterns* of hash-order dependence; this module
catches the *effect*, on every scenario in
:data:`repro.analysis.scenarios.SCENARIOS`.

:func:`run_sanitizer` runs the registry twice in each of two interpreter
processes launched with different ``PYTHONHASHSEED`` values. Both digests
of a scenario — observable and self-cost, which includes the kernel's
event order — must agree across the two processes (no ``set``/``dict``
iteration order leaks into the simulation, rule MR102) and between the
two passes inside one process (no module-level counter or cache
survives a run, rule MR105).

:func:`run_race_sanitizer` permutes same-instant dispatch order and
requires every scenario's observables, and its self-cost less the
kernel's own series, to hold, except the scenarios on
:data:`TIE_ORDER_DEPENDENT`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from heapq import heappush
from typing import Callable, Iterator, Optional, Sequence

from repro.telemetry import KERNEL_SERIES

from . import scenarios

_UPLUS_A2 = ("FOUND [U+ on A2] in CHANGES.md: U+ replays on A2 move under "
             "permuted ties; 16 of this trace's 34 auto jobs run U+")

#: Registry scenarios whose observables move under permuted same-instant
#: ties at the time of writing, each citing the ``FOUND`` line in
#: ``CHANGES.md`` that records the dependence. The race run skips them
#: and says so; fixing one means deleting its entry here.
TIE_ORDER_DEPENDENT: dict[str, str] = {
    "trace-json/serving": _UPLUS_A2,
    "metrics/serving-summary": _UPLUS_A2,
    "metrics/serving-jsonl": _UPLUS_A2,
    "metrics/serving-openmetrics": _UPLUS_A2,
    "churn-telemetry-report": (
        "FOUND [churn re-replication] in CHANGES.md: the under-replicated "
        "block count diverges 48 s into the stock churn replay"),
}


def child_digests(names: Sequence[str] = ()) -> list[dict[str, dict[str, str]]]:
    """Two passes of :func:`repro.analysis.scenarios.digests` over
    ``names`` in this process; the second must repeat the first."""
    return [scenarios.digests(names), scenarios.digests(names)]


def _run_children(hash_seeds: Sequence[int], names: Sequence[str]
                  ) -> list[list[dict[str, dict[str, str]]]]:
    """``child_digests(names)`` in one fresh interpreter per hash seed,
    all running at once. The parent names the scenarios its registry
    holds, so each child runs exactly those."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH")
    path = src_root + os.pathsep + existing if existing else src_root
    children = [subprocess.Popen(
        [sys.executable, "-m", "repro.analysis", "--digest", *names],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path})
        for seed in hash_seeds]
    try:
        runs = []
        for seed, child in zip(hash_seeds, children):
            out, err = child.communicate(timeout=900)
            if child.returncode != 0:
                raise RuntimeError(
                    f"digest child (PYTHONHASHSEED={seed}) failed:\n"
                    f"{out}\n{err}")
            runs.append(json.loads(out.strip().splitlines()[-1]))
        return runs
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()


def run_sanitizer(seeds: tuple[int, int] = (1, 2),
                  echo: Optional[Callable[[str], None]] = None) -> int:
    """Compare scenario digests across two PYTHONHASHSEED values and
    across in-process repeats.

    Returns 0 when all digests agree (deterministic), 1 otherwise.
    """
    say = echo or (lambda _msg: None)
    say(f"determinism sanitizer: PYTHONHASHSEED={seeds[0]} vs {seeds[1]}")
    runs = _run_children(seeds, sorted(scenarios.SCENARIOS))
    failures = []
    for seed, (first, repeat) in zip(seeds, runs):
        for name, digest in first.items():
            for part, value in digest.items():
                if repeat[name][part] != value:
                    failures.append(
                        f"{name}: {part} moved on an in-process repeat under "
                        f"PYTHONHASHSEED={seed} (cross-run state — see rule "
                        f"MR105)")
    a, b = runs[0][0], runs[1][0]
    for name, digest in a.items():
        for part, value in digest.items():
            if b[name][part] != value:
                failures.append(
                    f"{name}: {part} depends on PYTHONHASHSEED "
                    f"(hash-order leak — see rule MR102)")
    if failures:
        for line in failures:
            say(f"FAIL {line}")
        return 1
    for name, digest in a.items():
        say(f"OK {name:<32} {digest['observable'][:12]}… "
            f"{digest['self_cost'][:12]}… identical across seeds and repeats")
    return 0


# -- same-timestamp race sanitizer -----------------------------------------
#
# The kernel breaks (time, priority) ties by insertion order, which makes
# runs deterministic — but determinism is not the same as *robustness*: if
# a scheduling decision depends on which of two same-instant events
# happens to have been scheduled first, any innocent refactor that swaps
# two ``schedule()`` calls silently changes every figure. The race
# sanitizer makes that hazard a hard failure: it patches the kernel so
# the tie-break among events sharing a (timestamp, priority) class is a
# seeded random permutation instead of insertion order, runs every
# registry scenario under two different permutations, and requires its
# observable bytes (reports, exports, CLI output) and its self-cost less
# the kernel's own series to be identical to the unpermuted run. Causality
# is preserved: an event scheduled *while* its sibling is being dispatched
# was never in the queue at the same time, so only genuinely concurrent
# events are permuted.


@contextmanager
def permuted_ties(seed: int) -> Iterator[None]:
    """Patch the kernel so same-(time, priority) dispatch order is a
    seeded permutation rather than insertion order.

    The tie-break third element of each heap entry becomes
    ``(random_bits, insertion_counter)`` — still unique, so the event is
    never compared, but heap order now follows the random bits first.
    Every push goes through :meth:`Environment.schedule` or
    :meth:`Environment.schedule_at` (``Timeout`` included), so patching
    those two covers the whole kernel. Patched at class level so
    environments constructed inside the context are covered from their
    very first event (mixing int and tuple tie-breaks in one heap would
    not compare).
    """
    from repro.simulation.core import Environment
    from repro.simulation.events import NORMAL, Event

    orig_schedule = Environment.schedule
    orig_schedule_at = Environment.schedule_at

    def _tie(env: "Environment") -> tuple[int, int]:
        state = env.__dict__.get("_race_tie_state")
        if state is None:
            state = (random.Random(seed), itertools.count())
            env.__dict__["_race_tie_state"] = state
        rng, counter = state
        return (rng.getrandbits(32), next(counter))

    def schedule(self: "Environment", event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay, priority, _tie(self), event))

    def schedule_at(self: "Environment", event: Event, at: float,
                    priority: int = NORMAL) -> None:
        if at < self._now:
            raise ValueError(
                f"schedule_at({at}) lies in the past (now={self._now})")
        heappush(self._queue, (at, priority, _tie(self), event))

    Environment.schedule = schedule  # type: ignore[method-assign]
    Environment.schedule_at = schedule_at  # type: ignore[method-assign]
    try:
        yield
    finally:
        Environment.schedule = orig_schedule  # type: ignore[method-assign]
        Environment.schedule_at = orig_schedule_at  # type: ignore[method-assign]


def _tie_invariant(outcome: scenarios.Outcome) -> dict[str, bytes]:
    """What no tie order may move: the observables, and the self-cost less
    the lines of the kernel's own series
    (:data:`repro.telemetry.KERNEL_SERIES`). The wheel's ticks and a fixed
    horizon's event count must hold."""
    kernel = KERNEL_SERIES.encode()
    return {"observables": outcome.observable,
            "self-cost": b"".join(
                line for line in outcome.self_cost.splitlines(keepends=True)
                if kernel not in line)}


def run_race_sanitizer(seeds: tuple[int, int] = (1, 2),
                       echo: Optional[Callable[[str], None]] = None) -> int:
    """Permute same-timestamp dispatch order; no scenario's observables or
    wheel and event counts may move.

    Returns 0 when every scenario's tie-invariant bytes are identical
    across the unpermuted run and both permutation seeds, 1 otherwise.
    """
    say = echo or (lambda _msg: None)
    say(f"race sanitizer: permuting (time, priority) ties with seeds "
        f"{seeds[0]} and {seeds[1]}")
    failures: list[str] = []
    for name, scenario in sorted(scenarios.SCENARIOS.items()):
        if name in TIE_ORDER_DEPENDENT:
            say(f"SKIP {name}: {TIE_ORDER_DEPENDENT[name]}")
            continue
        reference = _tie_invariant(scenario())
        moved = []
        for seed in seeds:
            with permuted_ties(seed):
                permuted = _tie_invariant(scenario())
            moved += [(seed, part) for part, value in reference.items()
                      if permuted[part] != value]
        for seed, part in moved:
            failures.append(
                f"{name}: {part} moved under tie permutation (seed {seed}) "
                f"— a scheduling decision depends on same-timestamp "
                f"dispatch order")
        if not moved:
            say(f"OK {name:<32} invariant under tie permutation")

    for line in failures:
        say(f"FAIL {line}")
    return 1 if failures else 0
