"""Tabular report formatting and simple model fits.

:class:`TableFormatter` renders the paper-style tables (fixed-width text
and Markdown) used by the harness CLI and EXPERIMENTS.md.
:func:`fit_linear` performs the ``t_o + t_p * P`` fit the paper uses to
argue AMO barriers scale linearly (§4.2.1).
"""

from __future__ import annotations

from typing import Sequence


class TableFormatter:
    """Build a text/Markdown table row by row.

    >>> t = TableFormatter(["CPUs", "AMO"])
    >>> t.add_row([4, 2.10])
    >>> print(t.to_text())       # doctest: +NORMALIZE_WHITESPACE
    CPUs    AMO
       4   2.10
    """

    def __init__(self, columns: Sequence[str], float_format: str = "{:.2f}",
                 title: str = "") -> None:
        self.columns = list(columns)
        self.float_format = float_format
        self.title = title
        self.rows: list[list] = []

    def add_row(self, values: Sequence) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def _cell(self, value) -> str:
        if isinstance(value, float):
            return self.float_format.format(value)
        return str(value)

    def to_text(self) -> str:
        """Fixed-width table (right-aligned numeric style)."""
        cells = [[self._cell(v) for v in row] for row in self.rows]
        widths = [max(len(self.columns[i]),
                      max((len(r[i]) for r in cells), default=0))
                  for i in range(len(self.columns))]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(c.rjust(w)
                               for c, w in zip(self.columns, widths)))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown table."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---:" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._cell(v) for v in row) + " |")
        return "\n".join(lines)


def fit_linear(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit ``y ~ a + b*x``; returns ``(a, b, r_squared)``.

    Used for the paper's AMO-barrier cost model ``t_o + t_p * P``.
    """
    import numpy as np

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size < 2:
        raise ValueError("need at least two points")
    coeffs = np.polyfit(xa, ya, 1)
    b, a = float(coeffs[0]), float(coeffs[1])
    pred = a + b * xa
    ss_res = float(((ya - pred) ** 2).sum())
    ss_tot = float(((ya - ya.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, b, r2
