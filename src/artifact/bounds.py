"""Closed-form error bounds and protocol constants.

Every bound is a direct transcription of a displayed formula; nothing
here samples or simulates.  ``evaluate`` dispatches on a kind string so
callers (CLI, reports) can request any bound uniformly.

Bitstring-valued quantities enter through their integer dot products:
``p`` stands for p.p (the number of ones in the X exponent), ``s_dot_t``
and ``t_dot_at`` for the corresponding integer products.
"""

from __future__ import annotations

import inspect
import math

from .graphs import as_int, as_real


class MissingParameterError(ValueError):
    pass


class DomainError(ValueError):
    pass


def thm2_bound(eps: float, n: int, edges: int, p: float) -> float:
    """Equivalence distance (2 sqrt(p.p) + 2 sqrt(2n) + sqrt(|E|+n)) (2 eps)^{1/4}."""
    _check_eps(eps)
    return (2 * math.sqrt(p) + 2 * math.sqrt(2 * n)
            + math.sqrt(edges + n)) * (2 * eps) ** 0.25


def lemma1_anticommutator(eps: float) -> float:
    """Anti-commutator norm bound 4 sqrt(2 eps) at a triangle vertex."""
    _check_eps(eps)
    return 4 * math.sqrt(2 * eps)


def cor1_bound(eps: float, s_dot_t: int) -> float:
    """Cost 4 (s.t) sqrt(2 eps) of commuting X^s past Z^t, s.t over Z."""
    _check_eps(eps)
    if s_dot_t < 0:
        raise DomainError("s_dot_t must be nonnegative")
    return 4 * s_dot_t * math.sqrt(2 * eps)


def lemma2_bound(eps: float, t_dot_at: int, t_dot_t: int) -> float:
    """Distance (2 (t.At) + t.t) sqrt(2 eps) for X^t vs Z^{At} action."""
    _check_eps(eps)
    if t_dot_at < 0 or t_dot_t < 0:
        raise DomainError("dot products must be nonnegative")
    return (2 * t_dot_at + t_dot_t) * math.sqrt(2 * eps)


def lemma3_bound(eps: float, delta: float) -> float:
    """Rotation-observable distance sqrt(2 (eps + 2 delta))."""
    _check_eps(eps)
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return math.sqrt(2 * (eps + 2 * delta))


def lemma4_bound(delta: float, n: int, m: int = 4) -> float:
    """Adaptive-sequence deviation (2 n m + 1) delta in state norm."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return (2 * n * m + 1) * delta


def cor2_bound(delta: float, n: int, m: int = 4) -> float:
    """Outcome-probability deviation 2 (2 n m + 1) delta."""
    return 2 * lemma4_bound(delta, n, m)


def lemma5_eps_of_delta(delta: float, n: int) -> float:
    """Invert the honesty-test gap: eps = (delta^2 / (22 + 25 sqrt(n)))^4."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return (delta ** 2 / (22 + 25 * math.sqrt(n))) ** 4


def lemma5_delta_of_eps(eps: float, n: int) -> float:
    """Forward direction: delta = sqrt(22 + 25 sqrt(n)) eps^{1/8}."""
    _check_eps(eps)
    return math.sqrt(22 + 25 * math.sqrt(n)) * eps ** 0.125


def lemma5_gap(delta: float, n: int, n_g: int | None = None) -> float:
    """Pass-probability deficit (1 / 2 N_G) (delta^2 / (22 + 25 sqrt(n)))^4.

    N_G defaults to its ceiling 4 n.
    """
    if n_g is None:
        n_g = 4 * n
    if n_g <= 0:
        raise DomainError("n_g must be positive")
    return lemma5_eps_of_delta(delta, n) / (2 * n_g)


def cor3_gap(delta: float, n: int) -> float:
    """Simplified deficit delta^8 / (10^{17.7} n^{11})."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return delta ** 8 / (10 ** 17.7 * n ** 11)


def _lemma6_domain(c_test: float, s_test: float, s_calc: float, delta: float) -> None:
    """Lemma 6's domain: delta in (0, 1/6] (the boundary is evaluated when
    bounding the worst case), c_test > s_test, and s_calc <= 1 - delta, the
    range where the coin weight q lies in [0, 1]."""
    if not 0 < delta <= 1 / 6:
        raise DomainError("delta must lie in (0, 1/6]")
    if c_test <= s_test:
        raise DomainError("need c_test > s_test")
    if s_calc > 1 - delta:
        raise DomainError(f"s_calc must be at most 1 - delta = {1 - delta:.6g}, got {s_calc:.6g}")


def lemma6_q(c_test: float, s_test: float, s_calc: float, delta: float) -> float:
    """Optimal coin weight q = (c_test - s_test) / (1 + c_test - s_calc - s_test - delta)."""
    _lemma6_domain(c_test, s_test, s_calc, delta)
    return (c_test - s_test) / (1 + c_test - s_calc - s_test - delta)


def lemma6_gap(c_calc: float, s_calc: float, c_test: float, s_test: float,
               delta: float) -> float:
    """Composite gap (c_calc - s_calc - delta)(c_test - s_test) / denominator."""
    _lemma6_domain(c_test, s_test, s_calc, delta)
    return ((c_calc - s_calc - delta) * (c_test - s_test)
            / (1 + c_test - s_calc - s_test - delta))


def lemma6_gap_floor(delta: float, n: int) -> float:
    """Guaranteed composite gap delta^8 / (10^{18.8} n^{11})."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    return delta ** 8 / (10 ** 18.8 * n ** 11)


def hoeffding_n(gap: float, error: float = 1 / 3) -> int:
    """Repetitions ceil(2 ln(1/error) / gap^2), from exp(-N gap^2 / 2) <= error."""
    if not 0 < gap <= 1:
        raise DomainError("gap must lie in (0, 1]")
    if not 0 < error < 1:
        raise DomainError("error must lie in (0, 1)")
    return math.ceil(2 * math.log(1 / error) / gap ** 2)


def thm1_n(n: int, delta: float) -> float:
    """Protocol-scale repetition count 10^{37.9} n^{22} / delta^{16}."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    return 10 ** 37.9 * n ** 22 / delta ** 16


def bound_chain_report(n: int, edges: int, eps: float, m: int = 4,
                       p: float = 1) -> list[dict]:
    """Trace the bound composition from a test deviation eps downward.

    Stages: the equivalence distance for X^q Z^p labels, the rotation
    label distance that feeds adaptive runs, the sequence and outcome
    deviations, and the honesty-test deficits at the implied delta.  Each
    stage is read through ``evaluate``, so its inputs meet the same checks.
    """
    stages = []

    def stage(name: str, kind: str, **inputs) -> float:
        value = evaluate(kind, **inputs)
        stages.append({"stage": name, "value": value, "inputs": inputs})
        return value

    d_thm2 = stage("thm2", "thm2", eps=eps, n=n, edges=edges, p=p)
    d_rot = stage("lemma3", "lemma3", eps=eps, delta=d_thm2)
    stage("lemma4", "lemma4", delta=d_rot, n=n, m=m)
    stage("cor2", "cor2", delta=d_rot, n=n, m=m)
    delta5 = stage("lemma5_delta", "lemma5delta", eps=eps, n=n)
    stage("cor3_gap", "cor3gap", delta=delta5, n=n)
    return stages


def _check_eps(eps: float):
    if eps < 0:
        raise DomainError("eps must be nonnegative")


# kind -> (bound function, its formula); evaluate reads the parameter names
# and defaults from the function's signature
_REGISTRY = {
    "thm2": (thm2_bound, "(2*sqrt(p) + 2*sqrt(2*n) + sqrt(edges + n)) * (2*eps)**(1/4)"),
    "lemma1": (lemma1_anticommutator, "4*sqrt(2*eps)"),
    "cor1": (cor1_bound, "4*s_dot_t*sqrt(2*eps)"),
    "lemma2": (lemma2_bound, "(2*t_dot_at + t_dot_t)*sqrt(2*eps)"),
    "lemma3": (lemma3_bound, "sqrt(2*(eps + 2*delta))"),
    "lemma4": (lemma4_bound, "(2*n*m + 1)*delta"),
    "cor2": (cor2_bound, "2*(2*n*m + 1)*delta"),
    "lemma5gap": (lemma5_gap, "(delta**2/(22 + 25*sqrt(n)))**4 / (2*n_g)"),
    "lemma5eps": (lemma5_eps_of_delta, "(delta**2/(22 + 25*sqrt(n)))**4"),
    "lemma5delta": (lemma5_delta_of_eps, "sqrt(22 + 25*sqrt(n)) * eps**(1/8)"),
    "cor3gap": (cor3_gap, "delta**8 / (10**17.7 * n**11)"),
    "lemma6q": (lemma6_q, "(c_test - s_test)/(1 + c_test - s_calc - s_test - delta)"),
    "lemma6gap": (lemma6_gap, "(c_calc - s_calc - delta)*(c_test - s_test)"
                              "/(1 + c_test - s_calc - s_test - delta)"),
    "lemma6gapfloor": (lemma6_gap_floor, "delta**8 / (10**18.8 * n**11)"),
    "hoeffdingn": (hoeffding_n, "ceil(2*ln(1/error)/gap**2)"),
    "thm1n": (thm1_n, "10**37.9 * n**22 / delta**16"),
}

FORMULAS = {kind: formula for kind, (_, formula) in _REGISTRY.items()}
KINDS = tuple(sorted(_REGISTRY))


def kind_key(kind: str) -> str:
    """The registry key of a bound name: case, "_" and "-" are ignored."""
    key = kind.lower().replace("_", "").replace("-", "")
    if key not in _REGISTRY:
        raise ValueError(f"unknown bound kind {kind!r}; choose from {KINDS}")
    return key


# a parameter's annotation (a string: annotations are postponed here) -> its reader
_READERS = {"int": as_int, "float": as_real,
            "int | None": lambda v, what: None if v is None else as_int(v, what)}

# the least value of each size parameter: the counts n, m and edges, and p = p.p
_FLOORS = {"n": 1, "m": 1, "edges": 0, "p": 0}


def evaluate(kind: str, **params) -> float:
    """Evaluate a bound by kind name (see ``kind_key``) with the parameter
    names and defaults of its function.  Each value is read by its
    parameter's annotation, a size below its floor (n and m at least 1,
    edges and p at least 0) raises DomainError, and so does a result that
    is not finite or overflows the float range.
    """
    fn = _REGISTRY[kind_key(kind)][0]
    names = inspect.signature(fn).parameters
    for name, param in names.items():
        if name not in params and param.default is param.empty:
            raise MissingParameterError(f"{kind} needs parameter {name!r}")
    extra = set(params) - set(names)
    if extra:
        raise ValueError(f"{kind} does not take {sorted(extra)}")
    read = {name: _READERS[names[name].annotation](value, name)
            for name, value in params.items()}
    for name, least in _FLOORS.items():
        if name in read and read[name] < least:
            raise DomainError(f"{name} must be at least {least}, got {read[name]}")
    try:
        value = fn(**read)
    except ArithmeticError:  # an overflow, or a division by a power that underflowed to 0
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{kind} evaluates to {value} at {params}")
    return value
