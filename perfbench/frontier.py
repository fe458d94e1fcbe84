"""Frontier ladders: how large an instance still gets an exact answer.

Each ladder climbs its rungs in order and stops at the first rung that
raises, answers wrongly, or runs past its budget.  The frontier is the last
rung that passed.  A wrong answer is a correctness failure; ExpansionTooLarge
and an exhausted budget are the walls the ladder exists to find.  Budgets
sit several times above the slowest passing rung measured at the seed
commit, so the frontier repeats exactly from run to run.
"""

from __future__ import annotations

import signal
import time

import refs

RUNG_BUDGET_S = 20.0
LADDER_BUDGET_S = 30.0
TOP = 161

LADDERS = {
    # path_matrix(n).lengths(), torus_knot_dga(n) class and l(d(a2))
    "path": tuple(range(21, TOP + 1, 2)),
    # torus_tangle(n).word.length() = l(d(a2)) + 1
    "tangle": tuple(range(3, TOP + 1, 2)),
    # single-summand fly: verdicts at j = 1..3
    "fly": tuple(n for n in range(3, TOP + 1, 2) if n % 3 != 2),
}


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


def _rung(ladder: str, n: int, lg: dict) -> bool:
    b, ob = lg["builders"], lg["obstruction"]
    if ladder == "path":
        if tuple(b.path_matrix(n).lengths()) != refs.path_lengths(n):
            return False
        dga = b.torus_knot_dga(n)
        return (b.is_even_delta_class(dga)[0] == refs.even_class(n)
                and dga.d("a2").length() == refs.d_a2_length(n))
    if ladder == "tangle":
        return b.torus_tangle(n, "k1").word.length() == refs.word_length(n)
    table = ob.family_verdicts((n,), (1, 2, 3))
    return all(refs.verdict_ok((n,), j, v.tau_value, v.certificate_ok, v.conclusion)
               for j, v in table.items()) and sorted(table) == [1, 2, 3]


def climb(ladder: str, lg: dict) -> dict:
    """Returns {"frontier": n or 0, "rungs": [[n, status, seconds], ...],
    "wrong": bool}; status is ok, wrong, too_large, budget or an exception
    name."""
    too_large = lg["algebra"].ExpansionTooLarge
    signal.signal(signal.SIGALRM, _alarm)
    rungs, frontier, wrong = [], 0, False
    ladder_start = time.perf_counter()
    for n in LADDERS[ladder]:
        remaining = LADDER_BUDGET_S - (time.perf_counter() - ladder_start)
        budget = min(RUNG_BUDGET_S, remaining)
        t0 = time.perf_counter()
        try:
            if budget <= 0:
                raise OverBudget
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                status = "ok" if _rung(ladder, n, lg) else "wrong"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget:
            status = "budget"
        except too_large:
            status = "too_large"
        except Exception as exc:
            status = type(exc).__name__
        rungs.append([n, status, time.perf_counter() - t0])
        if status != "ok":
            wrong = status == "wrong"
            break
        frontier = n
    return {"ladder": ladder, "frontier": frontier, "rungs": rungs, "wrong": wrong,
            "rung_budget_s": RUNG_BUDGET_S, "ladder_budget_s": LADDER_BUDGET_S}
