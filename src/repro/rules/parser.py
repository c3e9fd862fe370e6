"""ClassBench text format parser and writer.

The classic ClassBench filter format stores one rule per line::

    @<src_ip>/<len>  <dst_ip>/<len>  <sp_lo> : <sp_hi>  <dp_lo> : <dp_hi>  <proto>/<mask>

for example::

    @10.0.1.0/24 192.168.0.0/16 0 : 65535 80 : 80 0x06/0xFF

This module reads and writes that format so rule-sets produced by the real
ClassBench tool (or exported from other systems) can be used with the library,
and so generated rule-sets can be persisted for inspection.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, TextIO

from repro.rules.fields import (
    FIVE_TUPLE,
    int_to_ip,
    ip_to_int,
    prefix_length_of_range,
    prefix_to_range,
)
from repro.rules.rule import Rule, RuleSet

__all__ = ["parse_classbench_file", "parse_classbench_lines", "write_classbench_file"]

_RULE_RE = re.compile(
    r"^@?\s*"
    r"(?P<src_ip>\d+\.\d+\.\d+\.\d+)/(?P<src_len>\d+)\s+"
    r"(?P<dst_ip>\d+\.\d+\.\d+\.\d+)/(?P<dst_len>\d+)\s+"
    r"(?P<sp_lo>\d+)\s*:\s*(?P<sp_hi>\d+)\s+"
    r"(?P<dp_lo>\d+)\s*:\s*(?P<dp_hi>\d+)\s+"
    r"(?P<proto>0x[0-9a-fA-F]+|\d+)/(?P<proto_mask>0x[0-9a-fA-F]+|\d+)"
)


def _parse_int(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def parse_classbench_lines(lines: Iterable[str], name: str = "classbench") -> RuleSet:
    """Parse an iterable of ClassBench-format lines into a :class:`RuleSet`.

    Lines that are empty or start with ``#`` are skipped.  Rules are assigned
    priorities in file order (first rule wins), matching ClassBench semantics.
    """
    rules: list[Rule] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _RULE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: cannot parse rule: {raw!r}")
        src_range = prefix_to_range(
            ip_to_int(match["src_ip"]), int(match["src_len"])
        )
        dst_range = prefix_to_range(
            ip_to_int(match["dst_ip"]), int(match["dst_len"])
        )
        sport = (int(match["sp_lo"]), int(match["sp_hi"]))
        dport = (int(match["dp_lo"]), int(match["dp_hi"]))
        proto_value = _parse_int(match["proto"])
        proto_mask = _parse_int(match["proto_mask"])
        proto = (0, 255) if proto_mask == 0 else (proto_value, proto_value)
        index = len(rules)
        rules.append(
            Rule(
                (src_range, dst_range, sport, dport, proto),
                priority=index,
                action=f"a{index}",
                rule_id=index,
            )
        )
    return RuleSet(rules, FIVE_TUPLE, name=name)


def parse_classbench_file(path: str | Path, name: str | None = None) -> RuleSet:
    """Parse a ClassBench filter file from disk."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return parse_classbench_lines(handle, name=name or path.stem)


def _format_ip_prefix(lo: int, hi: int) -> str:
    prefix_len = prefix_length_of_range(lo, hi, bits=32)
    if prefix_len is None:
        raise ValueError(
            f"IP range [{lo}, {hi}] is not a prefix and cannot be written in "
            "ClassBench format"
        )
    return f"{int_to_ip(lo)}/{prefix_len}"


def write_classbench_file(ruleset: RuleSet, destination: str | Path | TextIO) -> None:
    """Write a 5-tuple rule-set in ClassBench filter format.

    The rules are written best first, so a round-trip keeps every packet's
    winner.  IP fields must be prefix ranges (which is how the generators
    produce them); ports may be arbitrary ranges; the protocol must be exact
    or a full wildcard.
    """
    if len(ruleset.schema) != 5:
        raise ValueError("ClassBench format requires the 5-tuple schema")

    def _write(handle: TextIO) -> None:
        for rule in ruleset.best_first():
            src = _format_ip_prefix(*rule.ranges[0])
            dst = _format_ip_prefix(*rule.ranges[1])
            sp_lo, sp_hi = rule.ranges[2]
            dp_lo, dp_hi = rule.ranges[3]
            proto_lo, proto_hi = rule.ranges[4]
            if proto_lo == 0 and proto_hi == 255:
                proto = "0x00/0x00"
            elif proto_lo == proto_hi:
                proto = f"0x{proto_lo:02X}/0xFF"
            else:
                raise ValueError(
                    f"protocol range [{proto_lo}, {proto_hi}] is neither exact "
                    "nor wildcard"
                )
            handle.write(
                f"@{src}\t{dst}\t{sp_lo} : {sp_hi}\t{dp_lo} : {dp_hi}\t{proto}\n"
            )

    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8") as handle:
            _write(handle)
    else:
        _write(destination)
