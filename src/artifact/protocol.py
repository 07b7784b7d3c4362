"""Composed interactive proof: calculation/test coin, optimal q, amplification.

A round flips a coin: with probability q the verifier runs the measurement
pattern and accepts on the designated output bit; otherwise it runs the
one-shot honesty test.  Repeating N rounds and accepting when the accept
count exceeds the midpoint N (c_ip + s_ip) / 2 amplifies the
completeness/soundness gap via Hoeffding's inequality: an honest count
falls below it, and a cheating count rises above it, with probability at
most exp(-N (c_ip - s_ip)^2 / 2); ``hoeffding_n`` picks the N that makes
this 1/3.  The rounds draw in sequence from one generator: in an experiment,
the trial's stream after any draws that built a ``perturbed`` strategy.
A round sees a stand-in whose ``random()`` is the ``__next__`` of an
iterator over blocks of uniforms drawn ahead; when the rounds end, or one
raises, the generator is rewound to exactly where the uniforms taken
would have left it, so every value is the one a scalar
``Generator.random()`` call would have returned.  Each round is one
``run_round`` call, and that one ``run_oneshot`` or ``run_pattern`` call.
The verifier reads one accept bit per round and their count: a round is a
bool, and a decision is the pair (accepted, count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from operator import length_hint

import numpy as np

from .bounds import lemma6_gap, lemma6_q
from .mbqc import MeasurementPattern, require_support, run_distribution, run_pattern
from .provers import ProverSet
from .selftest import TestParameters, exact_pass_probability, run_oneshot

# uniforms a decision draws ahead at a time; a decision of N < 4,096 rounds
# draws blocks of N, since drawing 4,096 ahead of a few dozen rounds costs
# more than the scalar draws it replaces
UNIFORM_BLOCK = 4096


def choose_q(c_test: float, s_test: float, s_calc: float, delta: float,
             c_calc: float = 2 / 3) -> tuple[float, float]:
    """Optimal calculation weight and the composite gap it guarantees.

    The weight is ``bounds.lemma6_q``, where the two adversarial case lines
    cross, and the gap is ``bounds.lemma6_gap`` at that weight.
    """
    return (lemma6_q(c_test, s_test, s_calc, delta),
            lemma6_gap(c_calc, s_calc, c_test, s_test, delta))


def midpoint_threshold(n_rounds: int, c_ip: float, s_ip: float) -> float:
    """The amplified decision's accept threshold N (c_ip + s_ip) / 2."""
    return n_rounds * (c_ip + s_ip) / 2


def gap_case_lines(q: float, c_calc: float, s_calc: float, c_test: float,
                   s_test: float, delta: float) -> tuple[float, float]:
    """The two adversarial gap lines as functions of the coin weight q.

    First line: the provers cheat on the calculation but still pass the test
    at full rate.  Second line: they sacrifice the test to always pass the
    calculation.  choose_q picks the crossing point, maximizing the minimum.
    """
    first = q * (c_calc - s_calc - delta)
    second = q * (c_calc - 1) + (1 - q) * (c_test - s_test)
    return first, second


def require_bit(accept_output: int) -> int:
    """``accept_output``, once it is 0 or 1."""
    if accept_output not in (0, 1):
        raise ValueError("accept_output is a bit")
    return accept_output


@dataclass(frozen=True)
class ProtocolConfig:
    """One interactive-proof setup: coin weight, test, pattern, repetitions."""

    q: float
    params: TestParameters
    pattern: MeasurementPattern
    n_rounds: int
    c_ip: float
    s_ip: float
    accept_output: int = 0
    threshold: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.q <= 1:
            raise ValueError("q must lie in [0, 1]")
        if self.n_rounds < 1:
            raise ValueError("need at least one round")
        if not 0 <= self.s_ip < self.c_ip <= 1:
            raise ValueError("need 0 <= s_ip < c_ip <= 1")
        require_bit(self.accept_output)
        require_support(self.pattern, self.params.graph.n)
        object.__setattr__(self, "threshold",
                           midpoint_threshold(self.n_rounds, self.c_ip, self.s_ip))


def run_round(p: ProverSet, cfg: ProtocolConfig, rng: np.random.Generator) -> bool:
    """Flip the coin, run one pattern execution or one subtest: accepted or not."""
    if rng.random() < cfg.q:
        return run_pattern(p, cfg.pattern, rng)[0] == cfg.accept_output
    return run_oneshot(p, cfg.params, rng).accepted


def run_amplified(p: ProverSet, cfg: ProtocolConfig,
                  rng: np.random.Generator) -> tuple[bool, int]:
    """N rounds drawn in sequence from ``rng``: the decision and the accept count.

    ``run_amplified_rounds`` calls ``run_round`` N times.  Every round
    queries the same prover set, whose outcome tree carries the Born
    probabilities and small states one round caches.
    """
    return run_amplified_rounds(partial(run_round, p, cfg), cfg.n_rounds, cfg.threshold, rng)


def run_amplified_rounds(round_fn, n_rounds: int, threshold: float,
                         rng: np.random.Generator) -> tuple[bool, int]:
    """Amplify an arbitrary accept/reject round function.

    ``round_fn(uniforms) -> bool`` runs N times, each round drawing where
    the last stopped.  ``uniforms`` stands in for ``rng`` and offers
    ``random()`` only: the ``__next__`` of an iterator over ``rng.random(k)``
    drawn in blocks of k = min(N, ``UNIFORM_BLOCK``), the values of k scalar
    draws.  On return, or when a round raises, ``rng`` is left exactly where
    the draws taken would have left it, a buffered 32-bit half included.
    ``run_amplified`` counts its protocol rounds here, and tests exercise
    the rule with synthetic Bernoulli rounds.
    """
    if n_rounds < 1:
        raise ValueError("need at least one round")
    uniforms = _Uniforms(rng, min(n_rounds, UNIFORM_BLOCK))
    try:  # the rounds run in map's loop, not the interpreter's
        count = sum(map(bool, map(round_fn, repeat(uniforms, n_rounds))))
    finally:
        uniforms.rewind()
    return count > threshold, count


class _Uniforms:
    """``rng.random()`` served from blocks of ``size`` drawn ahead, by the
    ``__next__`` of a chain that draws a block when the last runs out."""

    __slots__ = ("rng", "size", "random", "state", "drawn", "block")

    def __init__(self, rng: np.random.Generator, size: int):
        self.rng, self.size = rng, size
        self.state, self.drawn, self.block = rng.bit_generator.state, 0, iter(())
        self.random = chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        while True:
            self.state, self.drawn = self.rng.bit_generator.state, self.size
            self.block = iter(self.rng.random(self.size).tolist())
            yield self.block

    def rewind(self) -> None:
        """Put ``rng`` where the draws served so far would have left it:
        the state before the current block, then the draws taken from it.
        Restoring a saved state, not ``PCG64.advance``, keeps the buffered
        32-bit half that ``advance`` would drop.  Serving ends here: dropping
        the chain also breaks the cycle self -> chain -> ``_blocks`` -> self."""
        self.rng.bit_generator.state = self.state
        self.rng.random(self.drawn - length_hint(self.block))
        self.random = None


def exact_accept_probability(p: ProverSet, cfg: ProtocolConfig) -> float:
    """q P[pattern output = accept bit] + (1-q) P[subtest passes], exactly."""
    calc = run_distribution(p, cfg.pattern).get(cfg.accept_output, 0.0)
    test = exact_pass_probability(p, cfg.params)
    return cfg.q * calc + (1 - cfg.q) * test

