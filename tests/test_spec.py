"""`gcmkit.spec.parse`, the one check every JSON input goes through."""

import math

import pytest

from gcmkit.errors import ValidationError
from gcmkit.spec import ABSENT, Field, parse

FIELDS = (
    Field("n", (int,), 3, low=1, high=9),
    Field("x", (int, float), ABSENT, low=0, high=1),
    Field("mode", (str,), "a", choices=("a", "b")),
    Field("names", (list,), ABSENT, size=(1, math.inf), choices=("p", "q", "r")),
    Field("dims", (list,), ABSENT, items=(int,), low=1, size=(2, 2)),
    Field("rows", (list,), ABSENT, fields=(Field("id", (str,)),)),
    Field("block", (dict,), ABSENT, fields=(Field("k", (int,)),)),
)


def test_defaults_fill_absent_keys_and_absent_stays_out():
    assert parse({}, FIELDS, "input") == {"n": 3, "mode": "a"}


def test_nested_values_come_back_checked():
    block = {"x": 0.5, "names": ["q", "p"], "dims": [2, 3], "rows": [{"id": "a"}], "block": {"k": 1}}
    assert parse(block, FIELDS, "input") == {"n": 3, "mode": "a", **block}


@pytest.mark.parametrize(
    "block, text",
    [
        ([], "input is not a JSON object"),
        ({"n": True}, "input: n must be int in [1, 9], got True"),
        ({"n": 10}, "input: n must be int"),
        ({"n": 2.0}, "input: n must be int"),
        ({"x": math.nan}, "input: x must be int or float in [0, 1]"),
        ({"mode": "c"}, "input: mode must be str from ['a', 'b']"),
        ({"names": ["p", "p"]}, "input: names must be list of at least 1 distinct names"),
        ({"names": []}, "input: names must be list"),
        ({"names": ["s"]}, "input: names must be list"),
        ({"dims": [1, 0]}, "input: dims must be list of 2 int in [1, inf]"),
        ({"dims": [1, 2, 3]}, "input: dims must be list of 2"),
        ({"dims": [1, True]}, "input: dims must be list of 2"),
        ({"rows": [{"id": "a"}, 5]}, "input: rows[1] must be an object, got 5"),
        ({"rows": [{}]}, "input lacks key 'rows[0].id'"),
        ({"block": {"k": 1, "j": 2}}, "input has unknown key(s) ['block.j']"),
        ({"block": {"k": "1"}}, "input: block.k must be int, got '1'"),
        ({"m": 1}, "input has unknown key(s) ['m']"),
    ],
)
def test_rejections_name_the_input_and_the_key_path(block, text):
    with pytest.raises(ValidationError) as exc:
        parse(block, FIELDS, "input")
    assert text in str(exc.value)


def test_a_required_key_must_be_present():
    with pytest.raises(ValidationError, match="input lacks key 'id'"):
        parse({}, (Field("id", (str,)),), "input")
