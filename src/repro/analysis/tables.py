"""Plain-text table rendering (stdlib only)."""

from __future__ import annotations

__all__ = ["format_table"]

MIN_WIDTH = 6  # narrowest column, in characters


def format_table(rows: list[dict[str, object]]) -> str:
    """Render dict rows as an aligned monospace table.

    Columns follow the first row's key order; every row must have them.
    Numbers are right-aligned, text left-aligned.
    """
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    missing = [c for c in columns if any(c not in row for row in rows)]
    if missing:
        raise ValueError(f"rows missing columns: {missing}")

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}".rstrip("0").rstrip(".") if value == value else "nan"
        return str(value)

    rendered = [[cell(row[c]) for c in columns] for row in rows]
    widths = [
        max(MIN_WIDTH, len(c), *(len(r[i]) for r in rendered))
        for i, c in enumerate(columns)
    ]

    def align(text: str, width: int, value: object) -> str:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return text.rjust(width)
        return text.ljust(width)

    header = "  ".join(c.rjust(w) for c, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(
            align(text, width, rows[row_index][column])
            for text, width, column in zip(rendered[row_index], widths, columns)
        )
        for row_index in range(len(rows))
    ]
    return "\n".join([header, separator, *body])
