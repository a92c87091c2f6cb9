"""Semi-structured table: the common currency between plot ground truth,
geometric extraction and table question answering.

Rows are the category-axis ticks, columns are the legend entries (falling
back to the value-axis label when a plot carries no legend). Cells are
optional floats; a missing cell means the extractor could not associate a
value, never that the value is zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass


@dataclass
class SemiStructuredTable:
    row_headers: list[str]
    col_headers: list[str]
    cells: list[list[float | None]]  # shape |row_headers| x |col_headers|
    row_label: str = ""  # category-axis title; lands in the CSV corner cell

    def __post_init__(self):
        if len(self.cells) != len(self.row_headers):
            raise ValueError("cell row count != row header count")
        for r in self.cells:
            if len(r) != len(self.col_headers):
                raise ValueError("cell column count != column header count")

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([self.row_label] + list(self.col_headers))
        for rh, row in zip(self.row_headers, self.cells):
            w.writerow([rh] + ["" if v is None else repr(float(v)) for v in row])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "SemiStructuredTable":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            return SemiStructuredTable([], [], [], "")
        header, body = rows[0], rows[1:]
        cells: list[list[float | None]] = []
        row_headers = []
        for r in body:
            row_headers.append(r[0])
            cells.append([None if c == "" else float(c) for c in r[1:]])
        return SemiStructuredTable(row_headers, header[1:], cells, row_label=header[0])

    def to_json(self) -> dict:
        return {
            "row_label": self.row_label,
            "row_headers": list(self.row_headers),
            "col_headers": list(self.col_headers),
            "cells": [[v for v in row] for row in self.cells],
        }

    @staticmethod
    def from_json(obj: dict) -> "SemiStructuredTable":
        return SemiStructuredTable(
            row_headers=list(obj["row_headers"]),
            col_headers=list(obj["col_headers"]),
            cells=[[None if v is None else float(v) for v in row] for row in obj["cells"]],
            row_label=obj.get("row_label", ""),
        )
