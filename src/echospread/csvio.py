"""The CSV dialect of every artifact: UTF-8, ``newline=""``, header row first."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write the header, then each row as ``rows`` yields it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def read_csv(path: str | Path) -> Iterator[tuple[list[str] | None, Iterator[list[str]]]]:
    """The header (None for an empty file) and an iterator over the rows
    after it, read lazily while the block is open."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        yield next(reader, None), reader


def read_rows(path: str | Path, header: Sequence[str]) -> list[list[str]]:
    """The rows of a CSV whose header must equal ``header``; a row of
    another width, a blank line included, is a ValueError naming the file."""
    with read_csv(path) as (found, rows):
        if found != list(header):
            raise ValueError(f"unexpected header in {path}: {found}")
        rows = list(rows)
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row!r} has {len(row)} cells, not {len(header)}")
    return rows


def by_key(path: str | Path, rows: Iterable[Sequence[str]]) -> dict[str, list[str]]:
    """Each row read from ``path`` as its first cell -> the cells after it; a
    repeated first cell is a ValueError naming both."""
    keyed: dict[str, list[str]] = {}
    for key, *rest in rows:
        if key in keyed:
            raise ValueError(f"{path}: {key!r} is repeated")
        keyed[key] = rest
    return keyed
