"""Hypothesis mutations drawn from a declared field spec (`gcmkit.spec`).

`field_paths` lists every key path a spec declares, nested keys included (a
list of objects contributes the keys of its first element), so a key is
covered as soon as it is declared. `mutations` draws one path and one of
four mutations of it: a wrong type, an out-of-range value, a missing key or
an extra key. `parse` rejects each of them, so the input exits 2, except a
missing key that is optional, which the run may accept.
"""

import contextlib
import copy
import io
import math

from hypothesis import strategies as st

from gcmkit.cli import main
from gcmkit.spec import REQUIRED

_JUNK = (None, True, 0, 7, 2**70, 0.5, float("nan"), "x", [], [1], {}, {"x": 1})


def field_paths(fields, prefix=()):
    """(key path, field) of every key `fields` declares, outer keys first."""
    for f in fields:
        path = prefix + (f.key,)
        yield path, f
        if f.fields is not None:
            yield from field_paths(f.fields, path + ((0,) if list in f.types else ()))


def wrong_types(f):
    """Values of a type `f` does not take, or lists holding one such element."""
    values = [v for v in _JUNK if type(v) not in f.types]
    if f.items is not None:
        values += [[v] * max(f.size[0], 1) for v in _JUNK if type(v) not in f.items]
    return values


def _beyond(types, low, high):
    """Numbers just outside [low, high], as an int where the field takes one, and NaN where it takes a float."""
    num = int if int in types else float
    values = [num(math.floor(low) - 1)] if low > -math.inf else []
    values += [num(math.ceil(high) + 1)] if high < math.inf else []
    return values + ([math.nan] if float in types else [])


def out_of_range(f):
    """Values of a type `f` takes that it rejects: out of bounds, not a choice, repeated, or a list of the wrong size."""
    if list not in f.types:
        if f.choices is not None:
            return ["not-a-choice" if str in f.types else max(f.choices) + 1]
        return _beyond(f.types, f.low, f.high) if int in f.types or float in f.types else []
    lo, hi = f.size
    values = ([[]] if lo > 0 else []) + ([[0] * (int(hi) + 1)] if hi < math.inf else [])
    if f.choices is not None:
        values += [[f.choices[0]] * 2, ["not-a-choice"]]
    if f.items is not None and (int in f.items or float in f.items):
        values += [[v] * max(lo, 1) for v in _beyond(f.items, f.low, f.high)]
    return values


@st.composite
def mutations(draw, fields):
    """(key path, field, kind, value) with kind one of "type", "range", "missing", "extra"."""
    path, f = draw(st.sampled_from(list(field_paths(fields))))
    kinds = ["type", "missing", "extra"] + (["range"] if out_of_range(f) else [])
    kind = draw(st.sampled_from(kinds))
    value = draw(st.sampled_from({"type": wrong_types(f), "range": out_of_range(f)}.get(kind, [None])))
    return path, f, kind, value


def mutate(block, path, kind, value):
    """A copy of `block` with the mutation applied; a missing or non-object parent on the path becomes {}."""
    block = copy.deepcopy(block)
    node = block
    for step in path[:-1]:
        if isinstance(step, str) and not isinstance(node.get(step), (dict, list)):
            node[step] = {}
        node = node[step]
    key = path[-1]
    if kind == "missing":
        node.pop(key, None)
    elif kind == "extra":
        node[key + "_extra"] = 1
    else:
        node[key] = value
    return block


def must_fail(f, kind) -> bool:
    """Whether `parse` must reject the mutation: all but a missing optional key."""
    return kind != "missing" or f.default is REQUIRED


def run_cli(argv):
    """(exit code, stderr) of `gcmkit argv`, with stdout muted."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check_exit(code, err, f, kind):
    """No traceback; exit 2 where `parse` must reject, else any exit code the CLI defines."""
    assert "Traceback" not in err
    assert code == 2 if must_fail(f, kind) else code in (0, 2, 3, 4), err
