"""Reidemeister move scripts, per-move holonomies, and loop monodromies.

A script is an initial DGA plus an ordered list of typed move events.  Each
event yields an algebra map (its holonomy) and the post-move DGA state; the
script's monodromy is the composite of the holonomies, folded from the last
event back after the events are checked in order (the same value as the
front-to-back fold: composition is associative).  The supported rules:

  RII      births x, y; survivors map identically when their post-move
           differential vanishes or their height lies below h(y)
  RIIInv   kills x, y where d(x) = y + w; sends x to 0 and y to w
  RIIIa    identity
  RIIIb    sends x to x + z y
  Relabel  renames generators by a bijection

The closed-form monodromy of the Kalman loop on a trefoil carrying a rigid
fly is provided directly: one pass sends b1 to W + b1 b2 W, b2 to 1 + b2 b3,
b3 to b1, and fixes every fly generator.
"""

from __future__ import annotations

import functools
from typing import Literal, Union

from .algebra import AlgebraMap, Poly, add, compose, mul
from .dga import Dga, DgaError, Generator, Record, ValidationReport, apply_endomorphism


class MoveError(DgaError):
    pass


class RIIGeneralHolonomyUnsupported(MoveError):
    pass


class MalformedDifferential(MoveError):
    pass


class StaleEvent(MoveError):
    pass


class NotAnEndomorphism(MoveError):
    pass


class FlyCollision(MoveError):
    pass


class RII(Record):
    __slots__ = _fields = ("x", "y", "new_differentials")

    def __init__(self, x: Generator, y: Generator, new_differentials: dict[str, Poly]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "new_differentials", new_differentials)


class RIIInv(Record):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: str, y: str):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class RIIIa(Record):
    __slots__ = ()


class RIIIb(Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: str, y: str, z: str):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


class Relabel(Record):
    __slots__ = _fields = ("perm",)

    def __init__(self, perm: dict[str, str]):
        object.__setattr__(self, "perm", perm)


MoveEvent = Union[RII, RIIInv, RIIIa, RIIIb, Relabel]


class MoveScript(Record):
    __slots__ = _fields = ("initial", "events", "mode")

    def __init__(
        self,
        initial: Dga,
        events: tuple[MoveEvent, ...],
        mode: Literal["verified", "formal"] = "verified",
    ):
        if mode not in ("verified", "formal"):
            raise MoveError(f"mode must be 'verified' or 'formal', got {mode!r}")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "mode", mode)


class Monodromy(Record):
    __slots__ = _fields = ("map",)

    def __init__(self, map: AlgebraMap):
        object.__setattr__(self, "map", map)


def _require(state: Dga, *names: str) -> None:
    for name in names:
        if name not in state.names:
            raise StaleEvent(f"generator {name!r} absent from current state")


def holonomy(event: MoveEvent, state: Dga, verified: bool = True) -> tuple[AlgebraMap, Dga]:
    """The holonomy map of one move and the post-move DGA state."""
    if isinstance(event, RIIIa):
        return AlgebraMap.identity(), state

    if isinstance(event, RIIIb):
        _require(state, event.x, event.y, event.z)
        # x + z y: the names are state names, and the two words differ in length
        sub = AlgebraMap({event.x: Poly._explicit(frozenset({(event.x,), (event.z, event.y)}))})
        diff = {name: sub.apply(p) for name, p in state.differential.items()}
        if all(diff[name] is p for name, p in state.differential.items()):
            return sub, state  # no differential mentions x
        return sub, Dga(state.generators, diff, state.rotation_zero)

    if isinstance(event, Relabel):
        _require(state, *event.perm)
        try:
            post = state.rename(event.perm)
        except DgaError as exc:
            raise MoveError(f"relabel: {exc}") from exc
        return AlgebraMap({old: Poly.gen(new) for old, new in event.perm.items()}), post

    if isinstance(event, RIIInv):
        _require(state, event.x, event.y)
        dx = state.d(event.x)
        if not dx.contains((event.y,)):
            raise MalformedDifferential(
                f"d({event.x}) does not contain {event.y} as a summand"
            )
        w = add(dx, Poly.gen(event.y))
        sub = AlgebraMap({event.x: Poly.zero(), event.y: w})
        gens = tuple(g for g in state.generators if g.name not in (event.x, event.y))
        diff = {
            name: sub.apply(p)
            for name, p in state.differential.items()
            if name not in (event.x, event.y)
        }
        return sub, Dga(gens, diff, state.rotation_zero)

    if isinstance(event, RII):
        x, y = event.x, event.y
        if x.name in state.names or y.name in state.names:
            raise StaleEvent(f"RII birth names {x.name!r}/{y.name!r} not fresh")
        gens = state.generators + (x, y)
        diff = dict(state.differential)
        diff.update(event.new_differentials)
        new_state = Dga(gens, diff, state.rotation_zero)
        if verified:
            for g in state.generators:
                if g.name not in new_state.differential:
                    continue
                if (
                    g.height is not None
                    and y.height is not None
                    and g.height < y.height
                ):
                    continue
                raise RIIGeneralHolonomyUnsupported(
                    f"survivor {g.name} has nonzero post-move differential and "
                    f"no height exemption; the general RII holonomy is not "
                    f"implemented"
                )
        return AlgebraMap.identity(), new_state

    raise MoveError(f"unknown event {event!r}")


def _steps(script: MoveScript):
    """(event, holonomy, post-move state) for each event of the script."""
    verified = script.mode == "verified"
    state = script.initial
    for event in script.events:
        h, state = holonomy(event, state, verified=verified)
        yield event, h, state


def run_script(script: MoveScript) -> Monodromy:
    """Compose all event holonomies into an endomorphism of the initial DGA.

    The forward pass through the events checks every state; the composite
    h_k ... h_1 is then folded from the last event back, so each event
    evaluates the running map only on the letters it moves (one for RIIIb,
    two for RIIInv, none for RII or RIIIa).  Composition is associative:
    the value is that of the front-to-back fold."""
    state = script.initial
    holonomies = []
    for _, h, state in _steps(script):
        holonomies.append(h)
    total = functools.reduce(compose, reversed(holonomies), AlgebraMap.identity())
    names = script.initial.names
    restricted = AlgebraMap({g: img for g, img in total.assignments.items() if g in names})
    if script.mode == "verified":
        if state.names != script.initial.names:
            raise NotAnEndomorphism(
                f"final generator set {sorted(state.names)} differs from "
                f"initial {sorted(script.initial.names)}"
            )
        report = apply_endomorphism(script.initial, restricted)
        if not report.ok:
            raise NotAnEndomorphism("; ".join(report.violations))
    return Monodromy(restricted)


def fly_fixed_check(script: MoveScript, fly: frozenset[str] | set[str]) -> ValidationReport:
    """Verify every event's holonomy fixes every fly generator."""
    report = ValidationReport()
    fly = frozenset(fly)
    missing = fly - script.initial.names
    if missing:
        report.violations.append(f"fly generators not in initial DGA: {sorted(missing)}")
        return report
    for i, (event, h, _) in enumerate(_steps(script)):
        for g in sorted(fly & h.normalized().keys()):
            report.violations.append(f"event {i} ({type(event).__name__}) moves {g}")
    return report


def kalman_monodromy(fly_word: Poly, j: int) -> AlgebraMap:
    """j-fold composite of the one-pass Kalman loop map on a trefoil whose
    associated-word slot carries the rigid fly word W."""
    if j < 1:
        raise MoveError(f"j >= 1 required, got {j}")
    w = fly_word
    clash = w.alphabet() & {"b1", "b2", "b3"}
    if clash:
        raise FlyCollision(f"fly word mentions trefoil generators {sorted(clash)}")
    b1, b2, b3 = Poly.gen("b1"), Poly.gen("b2"), Poly.gen("b3")
    one_pass = AlgebraMap(
        {
            "b1": add(w, mul(mul(b1, b2), w)),
            "b2": add(Poly.one(), mul(b2, b3)),
            "b3": b1,
        }
    )
    total = one_pass
    for _ in range(j - 1):
        total = compose(one_pass, total)
    return total
