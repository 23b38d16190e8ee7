"""The one JSON writer and the one CSV writer, and the report mixin.

Both writers create the file's directory, so a command that fails before
its first write leaves no directory behind."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path


def write_json(path, doc):
    """``doc`` as strict JSON (NaN or infinity raises ValueError), indented, keys sorted."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_table(path, header, rows):
    """A CSV file: the header row, then ``rows``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class Report:
    """Mixin for frozen dataclass reports: ``to_dict`` gives every field as
    dicts, lists and tuples, which ``write_json`` writes as JSON arrays."""

    def to_dict(self) -> dict:
        return asdict(self)
