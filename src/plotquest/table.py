"""Semi-structured table: the common currency between plot ground truth,
geometric extraction and table question answering.

Rows are the category-axis ticks, columns are the legend entries (falling
back to the value-axis label when a plot carries no legend). Cells are
optional floats; a missing cell means the extractor could not associate a
value, never that the value is zero.

A table is valid once built: its headers are lists of strings, its row
label is a string, and every cell is None or a finite int or float (a
bool is neither); a table that breaks this raises ValueError.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .answers import finite_number


@dataclass
class SemiStructuredTable:
    row_headers: list[str]
    col_headers: list[str]
    cells: list[list[float | None]]  # shape |row_headers| x |col_headers|
    row_label: str = ""  # category-axis title; lands in the CSV corner cell

    def __post_init__(self):
        if not (isinstance(self.row_headers, list) and isinstance(self.col_headers, list)):
            raise ValueError("table headers are not lists")  # a string would read as one header a character
        for h in (self.row_label, *self.row_headers, *self.col_headers):
            if not isinstance(h, str):
                raise ValueError(f"table header {h!r} is not a string")
        if len(self.cells) != len(self.row_headers):
            raise ValueError("cell row count != row header count")
        for r in self.cells:
            if len(r) != len(self.col_headers):
                raise ValueError("cell column count != column header count")
            for v in r:
                if v is not None and not finite_number(v):
                    raise ValueError(f"table cell {v!r} is not None or a finite number")

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([self.row_label] + list(self.col_headers))
        for rh, row in zip(self.row_headers, self.cells):
            w.writerow([rh] + ["" if v is None else repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "row_label": self.row_label,
            "row_headers": list(self.row_headers),
            "col_headers": list(self.col_headers),
            "cells": [[v for v in row] for row in self.cells],
        }

    @staticmethod
    def from_json(obj: dict) -> "SemiStructuredTable":
        """Inverse of to_json: an int cell is read as a float, and every
        other value is left for the constructor's check."""
        return SemiStructuredTable(
            row_headers=obj["row_headers"],
            col_headers=obj["col_headers"],
            cells=[[float(v) if type(v) is int else v for v in row] for row in obj["cells"]],
            row_label=obj.get("row_label", ""),
        )
