"""Structured text reports.

A report is an ordered list of sections, each an ordered list of key/value
lines. The text form is

    [section]
    key = value

Values are written with repr-faithful formatting (floats through '%.9g',
index lists comma-joined), and parsing the text back yields the same
section/key/value strings, so a report round-trips losslessly.
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

    def get(self, section: str, key: str) -> str:
        for name, pairs in self.sections:
            if name == section:
                for k, v in pairs:
                    if k == key:
                        return v
        raise KeyError((section, key))

    def section(self, section: str) -> list[tuple[str, str]]:
        for name, pairs in self.sections:
            if name == section:
                return pairs
        raise KeyError(section)

    def to_text(self) -> str:
        out: list[str] = []
        for name, pairs in self.sections:
            out.append(f"[{name}]")
            for k, v in pairs:
                out.append(f"{k} = {v}")
            out.append("")
        return "\n".join(out)

    @classmethod
    def from_text(cls, text: str) -> "Report":
        rep = cls()
        current: list[tuple[str, str]] | None = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = []
                rep.sections.append((line[1:-1], current))
                continue
            if current is None or " = " not in line:
                raise ValueError(f"unparseable report line: {raw!r}")
            k, v = line.split(" = ", 1)
            current.append((k, v))
        return rep
