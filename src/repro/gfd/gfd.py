"""Graph functional dependencies ``Q[x̄](X -> Y)``.

A :class:`GFD` bundles a frozen :class:`~repro.gfd.pattern.Pattern` with two
sets of literals, the antecedent ``X`` and the consequent ``Y``. Both may be
empty: ``X = ∅`` means the consequent is enforced on every match; ``Y = ∅``
makes the GFD trivially satisfied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import GFDError
from .literals import (
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    literal_attribute_names,
    validate_literals,
)
from .pattern import Pattern

_gfd_counter = itertools.count(1)


@dataclass(frozen=True)
class GFD:
    """An immutable GFD.

    Attributes
    ----------
    pattern:
        The (frozen) graph pattern ``Q[x̄]``.
    antecedent:
        The literal set ``X``.
    consequent:
        The literal set ``Y``.
    name:
        Optional human-readable identifier (auto-generated when omitted);
        used in diagnostics, dependency graphs and benchmark reports.
    """

    pattern: Pattern
    antecedent: Tuple[Literal, ...]
    consequent: Tuple[Literal, ...]
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.pattern.frozen:
            self.pattern.freeze()
        validate_literals(self.antecedent, self.pattern.variables, "X")
        validate_literals(self.consequent, self.pattern.variables, "Y")
        if not self.name:
            object.__setattr__(self, "name", f"gfd{next(_gfd_counter)}")
        # Normalize literal order for deterministic iteration and hashing.
        object.__setattr__(self, "antecedent", tuple(sorted(self.antecedent, key=str)))
        object.__setattr__(self, "consequent", tuple(sorted(self.consequent, key=str)))

    # ------------------------------------------------------------------
    # Structure probes
    # ------------------------------------------------------------------
    def has_empty_antecedent(self) -> bool:
        """True iff ``X = ∅`` (applies to every match)."""
        return not self.antecedent

    def is_trivial(self) -> bool:
        """True iff ``Y = ∅`` (satisfied by every graph)."""
        return not self.consequent

    def has_false_consequent(self) -> bool:
        return any(isinstance(lit, FalseLiteral) for lit in self.consequent)

    def antecedent_attributes(self) -> FrozenSet[str]:
        """Attribute names appearing in ``X``."""
        return literal_attribute_names(self.antecedent)

    def consequent_attributes(self) -> FrozenSet[str]:
        """Attribute names appearing in ``Y``."""
        return literal_attribute_names(self.consequent)

    def constants(self) -> FrozenSet[object]:
        """All constants mentioned by the GFD's literals."""
        values = set()
        for literal in self.antecedent + self.consequent:
            if isinstance(literal, ConstantLiteral):
                values.add(literal.value)
        return frozenset(values)

    def literal_count(self) -> int:
        """``l`` in the paper's generator: |X| + |Y|."""
        return len(self.antecedent) + len(self.consequent)

    def size(self) -> int:
        """|φ| = |Q| plus the number of literals."""
        return self.pattern.size() + self.literal_count()

    def __str__(self) -> str:
        ant = " ∧ ".join(str(lit) for lit in self.antecedent) or "∅"
        con = " ∧ ".join(str(lit) for lit in self.consequent) or "∅"
        return f"{self.name}: Q[{', '.join(self.pattern.variables)}]({ant} → {con})"

    def __hash__(self) -> int:
        return hash((self.pattern, self.antecedent, self.consequent))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFD):
            return NotImplemented
        return (
            self.pattern == other.pattern
            and self.antecedent == other.antecedent
            and self.consequent == other.consequent
        )


def make_gfd(
    pattern: Pattern,
    antecedent: Iterable[Literal] = (),
    consequent: Iterable[Literal] = (),
    name: str = "",
) -> GFD:
    """Build a validated GFD (the pattern is frozen if needed)."""
    return GFD(pattern, tuple(antecedent), tuple(consequent), name)


def sigma_size(sigma: Sequence[GFD]) -> int:
    """|Σ| measured as the sum of GFD sizes (paper's size measure)."""
    return sum(gfd.size() for gfd in sigma)


def gfds_by_name(sigma: Iterable[GFD]) -> Dict[str, GFD]:
    """Index Σ by rule name, in Σ order.

    Names key canonical embeddings, enforcement, provenance and the
    dependency graphs, so a second rule under a taken name would be
    dropped without a word; it raises :class:`GFDError` instead.
    """
    by_name: Dict[str, GFD] = {}
    for gfd in sigma:
        if gfd.name in by_name:
            raise GFDError(f"duplicate GFD name {gfd.name!r} in Σ")
        by_name[gfd.name] = gfd
    return by_name


def validate_sigma(sigma: Sequence[GFD]) -> List[str]:
    """Sanity-check a GFD set; returns a list of warnings (not errors).

    Flags trivial GFDs and duplicate names, which usually indicate a
    generator or parsing bug upstream.
    """
    warnings: List[str] = []
    seen_names = set()
    for gfd in sigma:
        if gfd.name in seen_names:
            warnings.append(f"duplicate GFD name {gfd.name!r}")
        seen_names.add(gfd.name)
        if gfd.is_trivial():
            warnings.append(f"{gfd.name} has an empty consequent (trivially satisfied)")
    return warnings
