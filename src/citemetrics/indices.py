"""The three journal citation measures computed from raw counts.

impact_factor:   I(T) = (cites to year T-2 papers + cites to year T-1 papers)
                        / (articles in T-2 + articles in T-1)
annual_citations: n(T) = sum over all papers of citations received in year T
citation_rate:   r(T) = n(T) / N(T), citations per article published in T
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .model import RankedSet


@dataclass(frozen=True)
class RawCounts:
    """Two-year citation/article counts feeding the impact factor.

    ``per_paper_citations`` optionally carries the citations received this
    year by every paper the journal ever published, for the annual total.
    """

    cites_to_y_minus_1: int
    cites_to_y_minus_2: int
    articles_y_minus_1: int
    articles_y_minus_2: int
    per_paper_citations: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in (
            "cites_to_y_minus_1",
            "cites_to_y_minus_2",
            "articles_y_minus_1",
            "articles_y_minus_2",
        ):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
        if self.per_paper_citations is not None:
            annual_citations(self.per_paper_citations)


def impact_factor(raw: RawCounts) -> float:
    """Two-year impact factor from raw counts.

    Single exact division of the integer sums; raises when there are no
    citable articles in the window.
    """
    denominator = raw.articles_y_minus_2 + raw.articles_y_minus_1
    if denominator == 0:
        raise ValidationError("no citable articles: impact factor undefined")
    return (raw.cites_to_y_minus_2 + raw.cites_to_y_minus_1) / denominator


def annual_citations(per_paper_citations: Iterable[int]) -> int:
    """Total citations received this year over all papers; empty list sums to 0.

    Integer arithmetic throughout, so the sum is exact at any size.
    """
    total = 0
    for c in per_paper_citations:
        if type(c) is not int or c < 0:
            raise ValidationError(f"per-paper citation counts must be non-negative integers, got {c!r}")
        total += c
    return total


def citation_rate(citations: int, articles: int) -> float:
    """Annual citation rate r = n(T)/N(T)."""
    if type(citations) is not int or citations < 0:
        raise ValidationError(f"citations must be a non-negative integer, got {citations!r}")
    if type(articles) is not int or articles < 0:
        raise ValidationError(f"articles must be a non-negative integer, got {articles!r}")
    if articles == 0:
        raise ValidationError("citation rate undefined for zero articles")
    return citations / articles


class RateDerivation(NamedTuple):
    """Per-journal rates in rank order plus the ids dropped for N = 0."""

    rates: list[tuple[str, float]]
    dropped: list[str]


def derive_rates(ranked: RankedSet) -> RateDerivation:
    """Citation rate for every journal in a RankedSet, in rank order.

    Journals with zero articles cannot have a rate; they are dropped and
    reported rather than aborting the whole set. Raises if nothing remains.
    """
    rate = ranked.column("cr")
    defined = ~np.isnan(rate)
    if not defined.any():
        raise ValidationError("every record has zero articles: no rates derivable")
    ids = np.array(ranked.journal_ids(), dtype=object)
    return RateDerivation(
        list(zip(ids[defined].tolist(), rate[defined].tolist())), ids[~defined].tolist()
    )
