"""OpenMetrics text rendering (and a parser for conformance tests) + JSONL.

The renderer follows the OpenMetrics text format: one ``# TYPE`` /
``# UNIT`` / ``# HELP`` header block per metric family, ``_total``-suffixed
counter samples, cumulative ``_bucket{le="..."}`` / ``_sum`` / ``_count``
histogram samples, escaped label values, and a mandatory ``# EOF``
terminator. Families render in registration order and label sets are
pre-sorted tuples, so the output is byte-stable across hash seeds — the
determinism sanitizer (``python -m repro.analysis --sanitize``) compares
the ``metrics/*-openmetrics`` scenarios under two hash seeds.

:func:`parse_openmetrics` is a deliberately strict reader used by the
round-trip conformance tests (and nothing else); it understands exactly
the subset the renderer emits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .instruments import Counter, Gauge, Histogram, LabelSet, TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .scraper import Scraper


def _format_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: LabelSet, extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.insert(0, extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_openmetrics(registry: TelemetryRegistry) -> str:
    """The registry's current state as OpenMetrics text."""
    lines: list[str] = []
    for name, instruments in registry.families():
        head = instruments[0]
        lines.append(f"# TYPE {name} {head.kind}")
        if head.unit:
            lines.append(f"# UNIT {name} {head.unit}")
        lines.append(f"# HELP {name} {_escape_help(head.help)}")
        for inst in instruments:
            if isinstance(inst, Counter):
                lines.append(f"{name}_total{_render_labels(inst.labels)} "
                             f"{_format_value(inst.value)}")
            elif isinstance(inst, Gauge):
                lines.append(f"{name}{_render_labels(inst.labels)} "
                             f"{_format_value(inst.value)}")
            elif isinstance(inst, Histogram):
                for le, cum in inst.cumulative():
                    bucket = _render_labels(
                        inst.labels, extra=f'le="{_format_value(le)}"')
                    lines.append(f"{name}_bucket{bucket} {cum}")
                lines.append(f"{name}_sum{_render_labels(inst.labels)} "
                             f"{_format_value(inst.sum)}")
                lines.append(f"{name}_count{_render_labels(inst.labels)} "
                             f"{inst.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- conformance parser --------------------------------------------------------

@dataclass
class ParsedFamily:
    """One metric family as read back from OpenMetrics text."""

    name: str
    kind: str = ""
    unit: str = ""
    help: str = ""
    #: (sample name incl. suffix, labels dict, value)
    samples: list[tuple[str, dict[str, str], float]] = field(default_factory=list)


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    return float(token)


def _parse_labels(body: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq]
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value at {body[eq:]!r}")
        j = eq + 2
        out: list[str] = []
        while True:
            ch = body[j]
            if ch == "\\":
                nxt = body[j + 1]
                out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
                j += 2
            elif ch == '"':
                break
            else:
                out.append(ch)
                j += 1
        labels[key] = "".join(out)
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"expected ',' in labels at {body[i:]!r}")
            i += 1
    return labels


def _family_of(sample_name: str, families: dict[str, ParsedFamily]) -> str:
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return sample_name


def parse_openmetrics(text: str) -> dict[str, ParsedFamily]:
    """Strict reader for the renderer's output (conformance tests only)."""
    families: dict[str, ParsedFamily] = {}
    saw_eof = False
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValueError("content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# "):
            _, keyword, name, rest = line.split(" ", 3) if line.count(" ") >= 3 \
                else (*line.split(" ", 2), "")
            family = families.setdefault(name, ParsedFamily(name))
            if keyword == "TYPE":
                family.kind = rest
            elif keyword == "UNIT":
                family.unit = rest
            elif keyword == "HELP":
                family.help = rest.replace("\\n", "\n").replace("\\\\", "\\")
            else:
                raise ValueError(f"unknown comment keyword {keyword!r}")
            continue
        if "{" in line:
            name = line[: line.index("{")]
            body = line[line.index("{") + 1: line.rindex("}")]
            value_token = line[line.rindex("}") + 1:].strip()
            labels = _parse_labels(body)
        else:
            name, value_token = line.rsplit(" ", 1)
            labels = {}
        family = families.get(_family_of(name, families))
        if family is None:
            raise ValueError(f"sample {name!r} before its # TYPE line")
        family.samples.append((name, labels, _parse_value(value_token)))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


# -- JSONL ---------------------------------------------------------------------

def render_jsonl(scraper: Scraper) -> str:
    """Ring-buffer contents as JSON Lines: one object per retained sample.

    Series appear in first-scrape order and samples oldest-first, so the
    output is byte-stable for a given run.
    """
    lines: list[str] = []
    for ring in scraper.all_series():
        labels = dict(ring.labels)
        for t, v in zip(ring.times, ring.values):
            lines.append(json.dumps(
                {"metric": ring.name, "labels": labels,
                 "t": round(t, 6), "value": round(v, 6)},
                sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
