"""Journal-year rows as named tuples, for tests that build or read a
``JournalTable`` row by row."""

from collections import namedtuple

Row = namedtuple("Row", "journal_id year citations impact_factor articles")


def rows_of(table):
    """The table's rows, in row order."""
    return list(map(Row, table.journal_id, table.year, table.citations, table.impact_factor,
                    table.articles))
