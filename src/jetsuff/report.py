"""Serialization shared by the frozen dataclass reports."""

from __future__ import annotations

import json
from dataclasses import asdict


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Report:
    """Mixin for frozen dataclass reports: ``to_dict`` gives every field as
    JSON-ready dicts and lists, ``write_json`` writes it with sorted keys."""

    def to_dict(self) -> dict:
        return _plain(asdict(self))

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
