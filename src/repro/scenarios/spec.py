"""The declarative scenario cube: axes, constraints, skip/xfail rules.

A :class:`ScenarioSpec` is the whole configuration cube in one value:
named :class:`Axis` lists (the dimensions), :class:`Constraint`
predicates (combinations pruned from generation because they cannot
exist — e.g. a comms fault without a rank-decomposed lattice), and
:class:`Rule` metadata (cells that *do* exist but are known-skipped
or known-not-to-pass, each with a written reason).

The split matters for coverage accounting: a constraint removes a
cell (and its axis-value pairs) from the feasible universe the
pairwise sampler must cover, while a ``skip`` rule leaves the cell in
the generated matrix as a visible, reasoned hole — the §V-D
discipline of tracking *known* VL-specific failures instead of
silently dropping them, made declarative (in the style of libresoc's
case accumulators and tp-libvirt's cfg matrices).

Cases are frozen and keyed: ``operator=wilson|family=generic|vl=256|
...`` in declared axis order.  The key is the case's identity across
runs — the persisted result matrix and the CI differ join on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Axis:
    """One dimension of the cube: a name and its legal values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")


class Case:
    """One bound point of the cube (immutable, mapping-like).

    ``values`` is a tuple of ``(axis_name, value)`` in declared axis
    order; :attr:`key` renders it as the stable ``name=value|...``
    string the result matrix is indexed by.
    """

    __slots__ = ("values", "_map")

    def __init__(self, values: Sequence[tuple]) -> None:
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_map", dict(values))

    def __setattr__(self, name, value):
        raise AttributeError("Case is immutable")

    def __getitem__(self, axis: str):
        return self._map[axis]

    def get(self, axis: str, default=None):
        return self._map.get(axis, default)

    def __contains__(self, axis: str) -> bool:
        return axis in self._map

    def __iter__(self):
        return iter(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Case) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Case({self.key})"

    def as_dict(self) -> dict:
        return dict(self.values)

    @property
    def key(self) -> str:
        """The stable identity string: ``axis=value|axis=value|...``.

        Booleans render as ``on``/``off`` so keys read as
        configuration, not Python.
        """
        return "|".join(f"{n}={_render(v)}" for n, v in self.values)


def _render(value) -> str:
    if value is True:
        return "on"
    if value is False:
        return "off"
    return str(value)


@dataclass(frozen=True)
class Constraint:
    """A combination that cannot exist — pruned from generation.

    ``forbids(case) -> True`` removes the cell from the cube (and its
    pairs from the pairwise universe).  Distinct from a skip rule: a
    constrained-out cell never appears in any matrix.
    """

    reason: str
    forbids: Callable

    def __call__(self, case: Case) -> bool:
        return bool(self.forbids(case))


@dataclass(frozen=True)
class Rule:
    """Skip/xfail metadata for cells that exist but are special.

    * ``kind="skip"`` — the cell appears in the matrix with status
      ``skip`` and is never executed (e.g. emulated SVE beyond the
      paper's validated VLs).
    * ``kind="xfail"`` — the cell runs, but is *expected* not to reach
      ``pass``; ``expect`` names the outcome it is known to produce
      (e.g. a persistent link loss is ``detected``, never recovered).
      An xfail cell that suddenly passes is a **new-pass**: the differ
      reports it as a promotion candidate, not a failure.
    """

    kind: str
    reason: str
    when: Callable
    expect: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("skip", "xfail"):
            raise ValueError(f"rule kind must be skip|xfail, "
                             f"got {self.kind!r}")
        if self.kind == "xfail" and not self.expect:
            raise ValueError("xfail rules must name the expected outcome")

    def matches(self, case: Case) -> bool:
        return bool(self.when(case))


def skip_rule(reason: str, when: Callable) -> Rule:
    return Rule(kind="skip", reason=reason, when=when)


def xfail_rule(reason: str, when: Callable, expect: str) -> Rule:
    return Rule(kind="xfail", reason=reason, when=when, expect=expect)


@dataclass(frozen=True)
class ScenarioSpec:
    """The whole declarative cube: axes + constraints + rules.

    ``settings`` maps a fault value to the keyword arguments its body
    runs with in this spec (the runner's
    :mod:`~repro.scenarios.faults` bodies default the rest).
    """

    name: str
    axes: tuple
    constraints: tuple = ()
    rules: tuple = ()
    description: str = ""
    settings: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        if not self.axes:
            raise ValueError("a spec needs at least one axis")

    # ------------------------------------------------------------------
    # Cube membership
    # ------------------------------------------------------------------
    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise KeyError(f"unknown axis {name!r}; "
                       f"known: {[a.name for a in self.axes]}")

    def allowed(self, case: Case) -> bool:
        """True when no constraint forbids the cell."""
        return not any(c(case) for c in self.constraints)

    def case(self, **bindings) -> Case:
        """Bind one case from keyword values (validated, axis order)."""
        values = []
        for a in self.axes:
            if a.name not in bindings:
                raise ValueError(f"missing axis {a.name!r}")
            v = bindings.pop(a.name)
            if v not in a.values:
                raise ValueError(
                    f"axis {a.name!r} has no value {v!r}; "
                    f"legal: {a.values}")
            values.append((a.name, v))
        if bindings:
            raise ValueError(f"unknown axes {sorted(bindings)}")
        return Case(values)

    # ------------------------------------------------------------------
    # Metadata resolution
    # ------------------------------------------------------------------
    def skip_for(self, case: Case) -> Optional[Rule]:
        """The first matching skip rule, if any."""
        for rule in self.rules:
            if rule.kind == "skip" and rule.matches(case):
                return rule
        return None

    def xfail_for(self, case: Case) -> Optional[Rule]:
        """The first matching xfail rule, if any."""
        for rule in self.rules:
            if rule.kind == "xfail" and rule.matches(case):
                return rule
        return None
