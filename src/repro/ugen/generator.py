"""The uncertain TPC-H generator (Section 6 of the paper).

Post-processes a certain (one-world) TPC-H database into an attribute-level
U-relational database, following the paper's pipeline:

1. while generating tuples, decide per field with probability ``x``
   (*uncertainty ratio*) whether it is uncertain; collect uncertain field
   coordinates (relation, tuple id, attribute) in a *field pool*,
2. shuffle the pool and allocate variables over dependent-field counts by
   the Zipf(``z``) scheme (*correlation ratio*) — a variable with DFC > 1
   correlates several fields, possibly across tuples and relations,
3. give each field ``m_i <= m`` alternative values (*max alternatives*,
   default 8) drawn from the field type's dbgen distribution (the original
   value is always alternative 1),
4. size the domain of a DFC-``k`` variable as ``p^{k-1} * prod(m_i)``
   (``p = 0.25``) — the fraction of value combinations surviving dependency
   chasing — and map every domain value to one combination of field values,
   covering every field's alternatives,
5. emit one U-relation per (relation, attribute) — vertical partitioning —
   with one tuple per (domain value, field) for uncertain fields and a
   single empty-descriptor tuple for certain fields.

Windows: the paper processes uncertain fields in windows of 10M to bound
memory; ``window`` reproduces this (variables never span windows).

Set-up cost: at scale 0.002 (x = 0.1, z = 0.25) generation took ~3.3 s, a
quarter of it in ~2 400 collector passes over objects that never become
garbage, and built one ``Descriptor`` per field only to re-encode it.  Now
step 5 writes the ``(c1, w1, tid, value)`` rows directly and the collector is
paused, process-wide, for the whole call (the caller's setting is restored
on exit): ~1.6 s, most of it the RNG draws.

The primary keys of the TPC-H tables are kept certain so that the generated
world-sets have sensible join structure in every world (the paper verifies
its worlds share dbgen's join selectivities; key fields being certain is
what makes that hold).
"""

from __future__ import annotations

import datetime
import gc
import math
import random
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.descriptor import TOP_VALUE, TOP_VARIABLE, descriptor_columns
from ..core.udatabase import UDatabase
from ..core.urelation import URelation, tid_column
from ..core.worldtable import WorldTable
from ..relational.relation import Relation
from ..tpch import dictionaries as words
from ..tpch.dbgen import END_DATE, START_DATE, generate

__all__ = ["UncertainTPCH", "generate_uncertain", "KEY_ATTRIBUTES"]

#: Fields never made uncertain (keys and foreign keys).
KEY_ATTRIBUTES: Dict[str, Set[str]] = {
    "region": {"regionkey"},
    "nation": {"nationkey", "regionkey"},
    "supplier": {"suppkey", "nationkey"},
    "part": {"partkey"},
    "partsupp": {"partkey", "suppkey"},
    "customer": {"custkey", "nationkey"},
    "orders": {"orderkey", "custkey"},
    "lineitem": {"orderkey", "partkey", "suppkey", "linenumber"},
}

FieldCoord = Tuple[str, Any, str]  # (relation, tuple id, attribute)


class UncertainTPCH:
    """The result bundle of one generator run."""

    def __init__(
        self,
        udb: UDatabase,
        certain: Dict[str, Relation],
        parameters: Dict[str, Any],
        uncertain_field_count: int,
        variable_count: int,
    ):
        self.udb = udb
        self.certain = certain
        self.parameters = parameters
        self.uncertain_field_count = uncertain_field_count
        self.variable_count = variable_count

    # -- Figure 9 metrics ------------------------------------------------
    def log10_worlds(self) -> float:
        """log10 of the number of represented worlds."""
        return self.udb.world_table.log10_world_count()

    def max_local_worlds(self) -> int:
        """Largest variable domain ("max local worlds in a component")."""
        return self.udb.world_table.max_domain_size()

    def representation_rows(self) -> int:
        """Total U-relation + world-table rows."""
        return self.udb.total_representation_rows()

    def one_world_rows(self) -> int:
        """Rows of the certain one-world database."""
        return sum(len(r) for r in self.certain.values())

    def size_ratio(self) -> float:
        """Representation rows / one-world *field* count (size blow-up).

        The paper reports U-relational databases at 6-8x the one-world size
        for x = 0.1; the comparable ratio here is representation rows over
        one-world fields (a vertical partition holds one field per row).
        """
        fields = sum(
            len(r) * len(r.schema) for r in self.certain.values()
        )
        return self.representation_rows() / max(fields, 1)


def generate_uncertain(
    scale: float = 0.001,
    x: float = 0.01,
    z: float = 0.25,
    m: int = 8,
    p: float = 0.25,
    seed: int = 42,
    window: int = 10_000_000,
    tables: Optional[Sequence[str]] = None,
) -> UncertainTPCH:
    """Generate an uncertain TPC-H database (the paper's parameter grid).

    Parameters mirror Section 6: ``scale`` (s), uncertainty ratio ``x``,
    correlation ratio ``z``, max alternatives per field ``m`` (paper fixes
    8), survival probability ``p`` (paper fixes 0.25).  ``tables`` restricts
    generation to a subset (all eight by default).
    """
    collecting = gc.isenabled()
    gc.disable()  # every object made below lives on: see the module docstring
    try:
        from .zipf import dfc_allocation

        if not 0 <= x < 1:
            raise ValueError(f"uncertainty ratio x must be in [0, 1), got {x}")
        certain = generate(scale=scale, seed=seed)
        if tables is not None:
            certain = {name: certain[name] for name in tables}
        rng = random.Random(seed * 31337 + 7)

        # step 1: the field pool
        pool: List[FieldCoord] = []
        originals: Dict[FieldCoord, Any] = {}
        for name, relation in certain.items():
            keys = KEY_ATTRIBUTES.get(name, set())
            attrs = relation.schema.names
            for tid, row in enumerate(relation.rows, start=1):
                for attr, value in zip(attrs, row):
                    if attr not in keys and x > 0 and rng.random() < x:
                        coord = (name, tid, attr)
                        pool.append(coord)
                        originals[coord] = value

        world = WorldTable()
        assignment: Dict[FieldCoord, Tuple[str, List[Any]]] = {}
        variable_count = 0

        # steps 2-4, window by window
        for start in range(0, len(pool), window):
            chunk = pool[start : start + window]
            rng.shuffle(chunk)
            allocation = dfc_allocation(len(chunk), z)
            cursor = 0
            for dfc in sorted(allocation, reverse=True):
                for _ in range(allocation[dfc]):
                    fields = chunk[cursor : cursor + dfc]
                    cursor += dfc
                    if not fields:
                        continue
                    variable_count += 1
                    var = f"v{variable_count}"
                    alternatives = [_alternatives(rng, c, originals[c], m) for c in fields]
                    m_counts = [len(a) for a in alternatives]
                    combos = _combinations(rng, m_counts, _domain_size(p, m_counts))
                    world.add_variable(var, list(range(1, len(combos) + 1)))
                    for i, (coord, alts) in enumerate(zip(fields, alternatives)):
                        assignment[coord] = (var, [alts[combo[i]] for combo in combos])

        # step 5: vertical partitions, rows in the d_width = 1 encoding
        udb = UDatabase(world)
        for name, relation in certain.items():
            attrs = relation.schema.names
            tid_name = tid_column(name)
            partitions = []
            for attr_index, attr in enumerate(attrs):
                rows = []
                for tid, row in enumerate(relation.rows, start=1):
                    field = assignment.get((name, tid, attr))
                    if field is None:
                        rows.append((TOP_VARIABLE, TOP_VALUE, tid, row[attr_index]))
                    else:
                        var, values = field
                        rows.extend(
                            (var, domain_value, tid, value)
                            for domain_value, value in enumerate(values, start=1)
                        )
                encoded = Relation(descriptor_columns(1) + [tid_name, attr], rows)
                partitions.append(URelation(encoded, 1, [tid_name], [attr]))
            udb.add_relation(name, attrs, partitions)

        parameters = {"scale": scale, "x": x, "z": z, "m": m, "p": p, "seed": seed}
        return UncertainTPCH(udb, certain, parameters, len(pool), variable_count)
    finally:
        if collecting:
            gc.enable()


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _domain_size(p: float, m_counts: Sequence[int]) -> int:
    """``p^{k-1} * prod(m_i)`` rounded up, at least 2, at least max(m_i)."""
    size = p ** (len(m_counts) - 1)
    for m_i in m_counts:
        size *= m_i
    return max(int(round(size)), max(m_counts), 2)


def _combinations(
    rng: random.Random, m_counts: Sequence[int], domain_size: int
) -> List[Tuple[int, ...]]:
    """``domain_size`` distinct index combinations covering all field values.

    The first ``max(m_i)`` combinations cycle each field through its values
    (so every alternative of every field occurs in some world); the rest are
    random distinct combinations.
    """
    domain_size = min(domain_size, math.prod(m_counts))
    combos: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    for l in range(max(m_counts)):
        combo = tuple(l % m_i for m_i in m_counts)
        if combo not in seen:
            seen.add(combo)
            combos.append(combo)
    attempts = 0
    while len(combos) < domain_size and attempts < 50 * domain_size:
        combo = tuple(rng.randrange(m_i) for m_i in m_counts)
        attempts += 1
        if combo not in seen:
            seen.add(combo)
            combos.append(combo)
    return combos


def _alternatives(
    rng: random.Random, coord: FieldCoord, original: Any, m: int
) -> List[Any]:
    """``m_i`` alternative values for one field (original first).

    Up to ``20 * m_i`` draws until ``m_i`` distinct values are seen.  A
    field over a short value list (:data:`_CHOICES`) can run out of new
    values first: its remaining draws are then made bare, as the same
    ``rng.choice`` calls, so the random stream - and every later row - is
    the one the full loop would draw.
    """
    m_i = rng.randint(2, max(m, 2))
    seen = {repr(original): original}  # insertion-ordered: the first of equal reprs
    values = _CHOICES.get(coord[2])
    # how many distinct values the field can reach: the list and the original
    reachable = len(_CHOICE_REPRS[coord[2]] | {repr(original)}) if values else None
    attempts = 0
    while len(seen) < m_i and attempts < 20 * m_i:
        if len(seen) == reachable:
            for _ in range(20 * m_i - attempts):
                rng.choice(values)
            break
        candidate = _random_value(rng, coord, original)
        attempts += 1
        seen.setdefault(repr(candidate), candidate)
    return list(seen.values())


#: Alternatives by attribute name: drawn from dbgen's value lists, from
#: ``randint(1, bound)``, or from ``uniform(0, bound)`` to two decimals.
_CHOICES = {
    "mktsegment": words.SEGMENTS, "orderpriority": words.PRIORITIES,
    "shipmode": words.SHIP_MODES, "shipinstruct": words.SHIP_INSTRUCTIONS,
    "returnflag": ["R", "A", "N"],
    "linestatus": ["F", "O", "P"], "orderstatus": ["F", "O", "P"],
}
_CHOICE_REPRS = {attr: frozenset(map(repr, values)) for attr, values in _CHOICES.items()}
_INT_BOUNDS = {"quantity": 50, "size": 50, "availqty": 9999}
_RATE_BOUNDS = {"discount": 0.10, "tax": 0.08}


def _random_value(rng: random.Random, coord: FieldCoord, original: Any) -> Any:
    """A plausible alternative value respecting the field's distribution."""
    attr = coord[2]
    if attr in _CHOICES:
        return rng.choice(_CHOICES[attr])
    if attr in _INT_BOUNDS:
        return rng.randint(1, _INT_BOUNDS[attr])
    if attr in _RATE_BOUNDS:
        return round(rng.uniform(0.0, _RATE_BOUNDS[attr]), 2)
    if isinstance(original, datetime.date):
        span = (END_DATE - START_DATE).days
        return START_DATE + datetime.timedelta(days=rng.randint(0, span))
    if isinstance(original, bool):
        return not original
    if isinstance(original, int):
        return max(original + rng.randint(-max(abs(original) // 2, 5),
                                          max(abs(original) // 2, 5)), 0)
    if isinstance(original, float):
        return round(original * rng.uniform(0.5, 1.5) + rng.uniform(0, 10), 2)
    if isinstance(original, str):
        pools = [words.COMMENT_ADJECTIVES, words.COMMENT_NOUNS, words.COMMENT_VERBS]
        return " ".join(rng.choice(pool) for pool in pools)
    return original
