"""DBSCAN parameter variants and the reuse (inclusion) criteria.

A *variant* is one ``(eps, minpts)`` parameterisation of DBSCAN
(paper Section II-A).  Variant-based parallelism executes a whole set
``V`` of variants over one database, so this module also provides
:class:`VariantSet`: construction from Cartesian products (the paper's
``V = A x B`` notation in Section V-B), the canonical ordering used by
the schedulers (eps non-decreasing, then minpts non-increasing,
Section IV-D), and parameter-space distances.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.util.errors import ValidationError
from repro.util.validation import check_eps, check_minpts


@dataclass(frozen=True, order=False)
class Variant:
    """One DBSCAN parameterisation ``(eps, minpts)``.

    Immutable and hashable so variants can key dictionaries in the
    completed-variant registry and appear in sets.
    """

    eps: float
    minpts: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", check_eps(self.eps))
        object.__setattr__(self, "minpts", check_minpts(self.minpts))

    def can_reuse(self, other: Variant) -> bool:
        """Inclusion criteria of Section IV-B.

        ``self`` may seed its clusters from ``other``'s results iff
        ``self.eps >= other.eps`` and ``self.minpts <= other.minpts``:
        relaxing the density requirement can only *grow* each existing
        cluster, never split it, so every reused point keeps a valid
        assignment.  A variant trivially satisfies the inequalities
        against itself, but self-reuse is pointless, so it returns
        ``False``.
        """
        if self == other:
            return False
        return self.eps >= other.eps and self.minpts <= other.minpts

    def parameter_distance(
        self, other: Variant, eps_span: float = 1.0, minpts_span: float = 1.0
    ) -> float:
        """Normalized component-wise parameter difference.

        SCHEDGREEDY picks the completed variant minimizing this
        distance (Section IV-D / Figure 3a).  Both components are
        normalized by the span of values present in the variant set so
        that neither parameter dominates merely due to its units.
        """
        de = abs(self.eps - other.eps) / max(eps_span, 1e-300)
        dm = abs(self.minpts - other.minpts) / max(minpts_span, 1e-300)
        return de + dm

    def as_tuple(self) -> tuple[float, int]:
        return (self.eps, self.minpts)

    def __repr__(self) -> str:
        return f"({self.eps:g},{self.minpts})"


def sort_key(v: Variant) -> tuple[float, int]:
    """Canonical ordering key: eps non-decreasing, minpts non-increasing."""
    return (v.eps, -v.minpts)


class VariantSet:
    """An ordered collection of distinct variants.

    The constructor de-duplicates and stores variants in the canonical
    Section IV-D order.  Iteration yields variants in that order.  The
    set is immutable, so its derived values (membership, distinct
    values, spans) are computed once.
    """

    def __init__(self, variants: Iterable[Variant]) -> None:
        seen: dict[Variant, None] = {}
        for v in variants:
            if not isinstance(v, Variant):
                raise ValidationError(f"expected Variant, got {type(v).__name__}")
            seen.setdefault(v, None)
        if not seen:
            raise ValidationError("a VariantSet needs at least one variant")
        self._variants: tuple[Variant, ...] = tuple(sorted(seen, key=sort_key))
        self._members = frozenset(self._variants)

    @classmethod
    def from_product(
        cls, eps_values: Sequence[float], minpts_values: Sequence[int]
    ) -> VariantSet:
        """Build ``V = A x B`` from eps values ``A`` and minpts values ``B``.

        This is exactly the notation of Section V-B, used by every
        experimental scenario (Tables III and IV).
        """
        return cls(
            Variant(e, m) for e, m in itertools.product(eps_values, minpts_values)
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, int]]) -> VariantSet:
        """Build from explicit ``(eps, minpts)`` tuples."""
        return cls(Variant(e, m) for e, m in pairs)

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Variant]:
        return iter(self._variants)

    def __len__(self) -> int:
        return len(self._variants)

    def __getitem__(self, i: int) -> Variant:
        return self._variants[i]

    def __contains__(self, v: object) -> bool:
        return v in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariantSet) and self._variants == other._variants

    def __hash__(self) -> int:
        return hash(self._variants)

    def __repr__(self) -> str:
        return f"VariantSet({list(self._variants)!r})"

    # -- parameter-space geometry -------------------------------------------
    @cached_property
    def eps_values(self) -> tuple[float, ...]:
        """Distinct eps values, ascending."""
        return tuple(sorted({v.eps for v in self._variants}))

    @cached_property
    def minpts_values(self) -> tuple[int, ...]:
        """Distinct minpts values, ascending."""
        return tuple(sorted({v.minpts for v in self._variants}))

    @cached_property
    def eps_span(self) -> float:
        """Range of eps values (>= smallest positive value for degenerate sets)."""
        vals = self.eps_values
        span = vals[-1] - vals[0]
        return span if span > 0 else max(vals[-1], 1.0)

    @cached_property
    def minpts_span(self) -> float:
        """Range of minpts values (>= 1 for degenerate sets)."""
        vals = self.minpts_values
        span = float(vals[-1] - vals[0])
        return span if span > 0 else float(max(vals[-1], 1))

    def distance(self, a: Variant, b: Variant) -> float:
        """Normalized parameter distance within this set's spans."""
        return a.parameter_distance(b, eps_span=self.eps_span, minpts_span=self.minpts_span)

    def reusable_sources(self, v: Variant) -> list[Variant]:
        """All variants in the set whose results ``v`` may legally reuse."""
        return [u for u in self._variants if v.can_reuse(u)]

    def max_reuse_fraction(self, n_threads: int) -> float:
        """Upper bound on the fraction of variants that can reuse results.

        With ``T`` threads, the first ``T`` variants start with an empty
        completed set and must cluster from scratch, so at most
        ``(|V| - T) / |V|`` variants can reuse data (Section IV-D).
        """
        n = len(self._variants)
        return max(0.0, (n - n_threads) / n)
