"""One declarative check for input read from outside the program.

Each boundary (the rank config, a `--data` pair spec, a `downscale train
--config` file, a GCF header, a checkpoint manifest and its meta) declares
its keys as `Field`s, reads its file with `read_json` and calls `parse`. Types are exact, so a bool never passes for an
int, and a number outside [low, high], NaN included, is out of range.
Checks that tie fields together stay with their boundary.
"""

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError

REQUIRED = object()  # the key must be present
ABSENT = object()  # the key may be left out, and is then left out of the result
POSITIVE = math.ulp(0.0)  # as `low`: above zero
FLOAT_MAX = sys.float_info.max  # as `high`: no infinity, and no int too large for a float


@dataclass(frozen=True)
class Field:
    """One key of a JSON object: its exact types, and its default or REQUIRED.

    A number lies in [low, high], and any other scalar is one of `choices`
    when they are given. A list holds `size` (min, max) elements: each of a
    type in `items` (in [low, high] if a number), or each a distinct one of
    `choices`, or each an object checked against `fields`, as a dict value
    is. `what` replaces the generated description in messages.
    """

    key: str
    types: tuple
    default: object = REQUIRED
    low: float = -math.inf
    high: float = math.inf
    choices: Optional[tuple] = None
    items: Optional[tuple] = None
    size: tuple = (0, math.inf)
    fields: Optional[tuple] = None
    what: str = ""

    def accepts(self, value) -> bool:
        """Whether `value` has one of `types` and keeps the bounds, choices and size."""
        kind = type(value)
        if kind not in self.types:
            return False
        if kind is not list:
            return (kind not in (int, float) or self.low <= value <= self.high) and (
                self.choices is None or value in self.choices)
        numbers = self.items is not None and (int in self.items or float in self.items)
        return (self.size[0] <= len(value) <= self.size[1]
                and (self.items is None or all(type(v) in self.items for v in value))
                and (not numbers or all(self.low <= v <= self.high for v in value))
                and (self.choices is None or all(v in self.choices for v in value) and len(set(value)) == len(value)))

    def describe(self) -> str:
        if self.what:
            return self.what
        names = " or ".join("object" if t is dict else t.__name__ for t in self.items or self.types)
        bounds = "" if (self.low, self.high) == (-math.inf, math.inf) else f" in [{self.low!r}, {self.high!r}]"
        choices = f" from {list(self.choices)}" if self.choices else ""
        if list not in self.types:
            return names + bounds + choices
        lo, hi = self.size
        count = ("" if (lo, hi) == (0, math.inf) else f"{lo} " if lo == hi
                 else f"at least {lo} " if hi == math.inf else f"{lo} to {hi} ")
        of = "objects" if self.fields else "distinct names" + choices if self.choices else names + bounds
        return f"list of {count}{of}"


def read_json(path: str, what: str):
    """The JSON value in `path`, for `parse` to check; a malformed file is a ValidationError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None


def parse(block, fields, where: str, path: str = "") -> dict:
    """The values of `block` for `fields`, checked, with each absent key's default filled in.

    A ValidationError names `where` and the key path from `path`, the path
    of `block` in its input: `weightnet.epochs`, `models[2].label`.
    """
    if type(block) is not dict:
        raise ValidationError(f"{where}: {path} must be an object, got {repr(block)[:60]}" if path
                              else f"{where} is not a JSON object")
    prefix = path + "." if path else ""
    unknown = sorted(set(block) - {f.key for f in fields})
    if unknown:
        raise ValidationError(f"{where} has unknown key(s) {[prefix + k for k in unknown]}; "
                              f"known: {sorted(f.key for f in fields)}")
    out = {}
    for f in fields:
        if f.key in block:
            out[f.key] = _check(f, block[f.key], where, prefix + f.key)
        elif f.default is REQUIRED:
            raise ValidationError(f"{where} lacks key {prefix + f.key!r}")
        elif f.default is not ABSENT:
            out[f.key] = f.default
    return out


def _check(f: Field, value, where: str, path: str):
    """`value` for `f`, checked, with the objects it holds parsed against `f.fields`."""
    if type(value) is dict and dict in f.types and f.fields is not None:
        return parse(value, f.fields, where, path)
    if not f.accepts(value):
        raise ValidationError(f"{where}: {path} must be {f.describe()}, got {repr(value)[:60]}")
    if type(value) is list and f.fields is not None:
        return [parse(v, f.fields, where, f"{path}[{i}]") for i, v in enumerate(value)]
    return value
