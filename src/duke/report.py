"""Structured text reports.

A report is an ordered list of sections, each an ordered list of key/value
lines. The text form is

    [section]
    key = value

Values are written with repr-faithful formatting (floats through '%.9g',
index lists comma-joined), so the text reads back as the same
section/key/value strings. The program only writes reports; the parser
lives with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Report", "fmt_float"]


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


@dataclass
class Report:
    sections: list[tuple[str, list[tuple[str, str]]]] = field(default_factory=list)

    def add(self, section: str, key: str, value) -> None:
        for name, pairs in self.sections:
            if name == section:
                pairs.append((key, _fmt_value(value)))
                return
        self.sections.append((section, [(key, _fmt_value(value))]))

    def to_text(self) -> str:
        out: list[str] = []
        for name, pairs in self.sections:
            out.append(f"[{name}]")
            for k, v in pairs:
                out.append(f"{k} = {v}")
            out.append("")
        return "\n".join(out)
