"""The world table ``W(Var, Rng)`` and its probabilistic extension.

A :class:`WorldTable` defines the finite variables and domains that
ws-descriptors refer to (Section 2).  The set of possible worlds is the set
of *total valuations* of the variables; the table represents
``prod(|dom(x)|)`` worlds in ``sum(|dom(x)|)`` tuples.

The probabilistic extension of Section 7 attaches a probability to every
``(Var, Rng)`` pair such that each variable's probabilities sum to 1;
variables are independent, so a descriptor's probability is the product of
its assignment probabilities.

The reserved trivial variable ``_t`` (domain ``{0}``) is always present; it
pads empty descriptors and never affects world counts.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import TOP_VALUE, TOP_VARIABLE, Descriptor

__all__ = ["WorldTable"]


class WorldTable:
    """Variables and their finite domains (optionally with probabilities)."""

    def __init__(
        self,
        domains: Optional[Mapping[str, Sequence[Any]]] = None,
        probabilities: Optional[Mapping[str, Sequence[float]]] = None,
    ):
        self._domains: Dict[str, Tuple[Any, ...]] = {TOP_VARIABLE: (TOP_VALUE,)}
        self._probabilities: Dict[str, Tuple[float, ...]] = {TOP_VARIABLE: (1.0,)}
        #: Bumped on every mutation: a component of
        #: :attr:`UDatabase.catalog_version`, so whoever keys on that sees
        #: the table grow without re-materializing it.
        self.version = 0
        if domains:
            for var, values in domains.items():
                probs = probabilities.get(var) if probabilities else None
                self.add_variable(var, values, probs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        var: str,
        values: Sequence[Any],
        probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        """Register a variable with its domain (and optional probabilities)."""
        values = tuple(values)
        if not values:
            raise ValueError(f"variable {var!r} must have a non-empty domain")
        if len(set(values)) != len(values):
            raise ValueError(f"variable {var!r} has duplicate domain values")
        if var in self._domains and var != TOP_VARIABLE:
            raise ValueError(f"variable {var!r} already defined")
        if probabilities is not None:
            probabilities = tuple(float(p) for p in probabilities)
            if len(probabilities) != len(values):
                raise ValueError(
                    f"variable {var!r}: {len(values)} values but "
                    f"{len(probabilities)} probabilities"
                )
            total = sum(probabilities)
            if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(f"variable {var!r}: probabilities sum to {total}, not 1")
        else:
            probabilities = tuple(1.0 / len(values) for _ in values)
        self._domains[var] = values
        self._probabilities[var] = probabilities
        self.version += 1

    @classmethod
    def from_relation(cls, relation: Relation) -> "WorldTable":
        """Rebuild a world table from its relational ``W(Var, Rng[, P])`` form."""
        has_p = len(relation.schema) >= 3
        domains: Dict[str, List[Any]] = {}
        probs: Dict[str, List[float]] = {}
        for row in relation.rows:
            var, rng = row[0], row[1]
            if var == TOP_VARIABLE:
                continue
            domains.setdefault(var, []).append(rng)
            if has_p:
                probs.setdefault(var, []).append(row[2])
        return cls(domains, probs if has_p else None)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def variables(self, include_trivial: bool = False) -> List[str]:
        """All variable names (sorted; trivial variable excluded by default)."""
        names = sorted(self._domains)
        if not include_trivial:
            names = [n for n in names if n != TOP_VARIABLE]
        return names

    def domain(self, var: str) -> Tuple[Any, ...]:
        """The domain of a variable."""
        try:
            return self._domains[var]
        except KeyError:
            raise KeyError(f"unknown variable {var!r}") from None

    def __contains__(self, var: str) -> bool:
        return var in self._domains

    def __len__(self) -> int:
        """Number of (non-trivial) variables."""
        return len(self._domains) - 1

    def probability(self, var: str, value: Any) -> float:
        """P(var = value)."""
        domain = self.domain(var)
        try:
            idx = domain.index(value)
        except ValueError:
            raise KeyError(f"{value!r} not in domain of {var!r}") from None
        return self._probabilities[var][idx]

    def descriptor_probability(self, descriptor: Descriptor) -> float:
        """Probability of the world-set a descriptor denotes (independence)."""
        p = 1.0
        for var, val in descriptor.items():
            p *= self.probability(var, val)
        return p

    def world_count(self) -> int:
        """Number of represented worlds: product of domain sizes."""
        count = 1
        for var, domain in self._domains.items():
            if var != TOP_VARIABLE:
                count *= len(domain)
        return count

    def log10_world_count(self) -> float:
        """log10 of the world count (Figure 9 reports e.g. 10^857.076)."""
        total = 0.0
        for var, domain in self._domains.items():
            if var != TOP_VARIABLE:
                total += math.log10(len(domain))
        return total

    def max_domain_size(self) -> int:
        """The paper's "max. number of local worlds in a component"."""
        sizes = [
            len(domain)
            for var, domain in self._domains.items()
            if var != TOP_VARIABLE
        ]
        return max(sizes, default=1)

    # ------------------------------------------------------------------
    # valuations
    # ------------------------------------------------------------------
    def valuations(self, variables: Optional[Sequence[str]] = None) -> Iterator[Dict[str, Any]]:
        """Enumerate total valuations of the given (default: all) variables.

        The trivial variable is included in every valuation so descriptor
        extension tests need no special case.
        """
        if variables is None:
            variables = self.variables()
        variables = [v for v in variables if v != TOP_VARIABLE]
        domains = [self._domains[v] for v in variables]
        for combo in itertools.product(*domains):
            valuation = dict(zip(variables, combo))
            valuation[TOP_VARIABLE] = TOP_VALUE
            yield valuation

    def sample_valuation(self, rng: random.Random) -> Dict[str, Any]:
        """Sample one total valuation according to the probabilities."""
        valuation: Dict[str, Any] = {TOP_VARIABLE: TOP_VALUE}
        for var in self.variables():
            domain = self._domains[var]
            weights = self._probabilities[var]
            valuation[var] = rng.choices(domain, weights=weights, k=1)[0]
        return valuation

    def valuation_probability(self, valuation: Mapping[str, Any]) -> float:
        """Probability of one total valuation."""
        p = 1.0
        for var in self.variables():
            p *= self.probability(var, valuation[var])
        return p

    # ------------------------------------------------------------------
    # relational views
    # ------------------------------------------------------------------
    def relation(self, with_probabilities: bool = False) -> Relation:
        """The ``W(Var, Rng[, P])`` relation (trivial variable included)."""
        if with_probabilities:
            schema = Schema(["var", "rng", "p"])
            rows = [
                (var, value, prob)
                for var in sorted(self._domains)
                for value, prob in zip(self._domains[var], self._probabilities[var])
            ]
        else:
            schema = Schema(["var", "rng"])
            rows = [
                (var, value)
                for var in sorted(self._domains)
                for value in self._domains[var]
            ]
        return Relation(schema, rows)

    def copy(self) -> "WorldTable":
        """An independent copy (used by normalization)."""
        table = WorldTable()
        for var in self.variables():
            table.add_variable(var, self._domains[var], self._probabilities[var])
        return table

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{var}:{len(self._domains[var])}" for var in self.variables()
        )
        return f"WorldTable({parts or 'empty'}; {self.world_count()} worlds)"
