"""Fuzz the CLI config check from the command tables themselves.

For each command, a config that every check accepts is built from its schema
in ``cli._COMMANDS``. One leaf at a time is then set to a value of the wrong
JSON type or outside its range, to null where null is not allowed, or an
object gains an unknown key. Every case must raise a SchemaError at that
leaf's ``$.path``; through ``cli.main`` it must end in exit 2 with no
traceback, before any file is read, model loaded or training run.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ndgan import cli, densities, gan
from ndgan.errors import Nullable, Req, SchemaError, Where, check


def _unwrap(field):
    return field.node if isinstance(field, (Req, Nullable)) else field


def _valid(node):
    """A value that schema ``node`` accepts; 1, 0.5 and "entropy" (a scorer name) pass
    every ``Where`` of the tables."""
    node = _unwrap(node)
    if isinstance(node, Where):
        return "entropy" if node.node is str else _valid(node.node)
    if isinstance(node, tuple):
        return node[0]
    if isinstance(node, list):
        return [_valid(node[0])]
    if isinstance(node, dict):
        return {key: _valid(field) for key, field in node.items()}
    return {int: 1, float: 0.5, str: "x"}[node]


def _fits(value, node):
    return any(type(value) is type(c) and value == c for c in node)


_TEXT = st.text(max_size=5)
_NUMBER = st.one_of(st.integers(), st.floats())


def _wrong(node):
    """Values of the wrong JSON type for ``node``, or outside a ``Where``."""
    if isinstance(node, Where):
        inner = {int: st.integers(), float: st.floats(), str: _TEXT}[node.node]
        return st.one_of(_wrong(node.node), inner.filter(lambda v: not node.test(v)))
    if isinstance(node, tuple):
        return st.one_of(_TEXT, _NUMBER, st.booleans()).filter(lambda v: not _fits(v, node))
    return {
        int: st.one_of(_TEXT, st.floats(), st.booleans(), st.lists(st.integers(), max_size=2)),
        float: st.one_of(_TEXT, st.booleans(), st.lists(st.floats(), max_size=2)),
        str: st.one_of(_NUMBER, st.booleans(), st.lists(_TEXT, max_size=2)),
        list: st.one_of(_TEXT, _NUMBER, st.booleans(), st.dictionaries(_TEXT, st.integers(), max_size=1)),
        dict: st.one_of(_TEXT, _NUMBER, st.booleans(), st.lists(st.integers(), max_size=2)),
    }[node if node in (int, float, str) else type(node)]


def _path(loc):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in loc)


def _cases(node, loc=()):
    """(location, strategy of a bad value for it, $.path of the error) of every leaf and object."""
    if isinstance(node, dict):
        yield loc + ("zz_unknown",), st.just(1), _path(loc + ("zz_unknown",))
        for key, field in node.items():
            if not isinstance(field, Nullable):
                yield loc + (key,), st.none(), _path(loc + (key,))
            yield from _cases(_unwrap(field), loc + (key,))
    elif isinstance(node, list):
        yield from _cases(node[0], loc + (0,))
    if loc:
        yield loc, _wrong(node), _path(loc)


def _nullable_sites(node, loc=()):
    if isinstance(node, dict):
        for key, field in node.items():
            if isinstance(field, Nullable):
                yield loc + (key,)
            yield from _nullable_sites(_unwrap(field), loc + (key,))
    elif isinstance(node, list):
        yield from _nullable_sites(node[0], loc + (0,))


def _set(cfg, loc, value):
    for key in loc[:-1]:
        cfg = cfg[key]
    cfg[loc[-1]] = value


CASES = [(command, *case) for command, (_, schema, _) in sorted(cli._COMMANDS.items())
         for case in _cases(schema)]


@pytest.fixture
def no_work(monkeypatch):
    def forbid(what):
        return lambda *args, **kwargs: pytest.fail(f"{what} before the config check")

    monkeypatch.setattr(gan, "train_gan", forbid("trained"))
    monkeypatch.setattr(gan, "load_model", forbid("model loaded"))
    monkeypatch.setattr(densities, "load_mixture_spec", forbid("density read"))
    monkeypatch.setattr(cli, "_load_dataset", forbid("dataset loaded"))
    monkeypatch.setattr(cli, "_read_scores_csv", forbid("scores read"))
    monkeypatch.setattr(cli, "_resolve_out_dir", forbid("output directory made"))


def test_the_train_table_has_exactly_the_train_config_fields_but_the_seed():
    # cmd_train and the holdout eval call TrainConfig(seed=..., **cfg["train"]): a table key with no
    # field would end in a TypeError (exit 3), and a field with no key could never be set
    fields = {f.name for f in dataclasses.fields(gan.TrainConfig)}
    assert set(cli._TRAIN) == fields - {"seed"}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_the_built_config_passes_and_null_passes_where_allowed(command):
    schema = cli._COMMANDS[command][1]
    check(_valid(schema), schema)
    sites = list(_nullable_sites(schema))
    assert sites
    for loc in sites:
        cfg = _valid(schema)
        _set(cfg, loc, None)
        check(cfg, schema)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_leaf_of_every_table_rejects_bad_values_at_its_path(data):
    for command, loc, bad, where in CASES:
        schema = cli._COMMANDS[command][1]
        cfg = _valid(schema)
        _set(cfg, loc, data.draw(bad))
        with pytest.raises(SchemaError) as err:
            check(cfg, schema)
        assert err.value.json_path == where


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_bad_leaf_exits_2_at_its_path_before_any_work(no_work, tmp_path, capsys, data):
    command, loc, bad, where = data.draw(st.sampled_from(CASES))
    cfg = _valid(cli._COMMANDS[command][1])
    value = data.draw(bad)
    _set(cfg, loc, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main([command, "--config", str(path)]) == 2, (command, where, value)
    err = capsys.readouterr().err
    assert f"schema violation at {where}:" in err and "Traceback" not in err, err
