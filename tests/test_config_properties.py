"""Property tests: PipelineConfig.from_dict on mutated configs, each field
rule just broken, and the README key table against the config dataclasses it
documents."""

import copy
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from lexalign import DataError, PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def json_type(kind) -> str:
    """The README's name for the JSON type of an annotation."""
    args = get_args(kind)
    if type(None) in args:
        return f"{json_type(args[0])} or null"
    if get_origin(kind) is list:
        return f"array of {json_type(args[0])}s"
    if is_dataclass(kind):
        return "object"
    return {str: "string", int: "integer", float: "number", bool: "boolean"}[kind]


def walk(kind, prefix=""):
    """(dotted key, field, annotation, innermost annotation) for every field
    of a config dataclass, and of the dataclasses nested in it."""
    hints = get_type_hints(kind)
    for f in fields(kind):
        inner = hints[f.name]
        while get_args(inner):
            inner = get_args(inner)[0]
        yield prefix + f.name, f, hints[f.name], inner
        if is_dataclass(inner):
            yield from walk(inner, f"{prefix}{f.name}.")


def schema(kind) -> dict:
    """Dotted key -> JSON type for every field of a config dataclass."""
    return {key: json_type(hint) for key, _, hint, _ in walk(kind)}


# dotted key -> the field's metadata, the rules its value keeps
RULES = {key: f.metadata for key, f, _, _ in walk(PipelineConfig) if f.metadata}


# every key name of the schema, at any level, and one it does not have
KEYS = sorted({key.rpartition(".")[2] for key in schema(PipelineConfig)}) + ["extra"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["en", "tr", "unit", "center", "skip", "fail", "other2ref",
                       "meemi-multi"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=4)

configs = st.fixed_dictionaries(
    {"reference": st.just({"lang": "en", "path": "en.vec"}),
     "targets": st.lists(st.sampled_from([{"lang": "tr", "path": "tr.vec", "dict": "en-tr.tsv"},
                                          {"lang": "de", "path": "de.vec", "dict": "de-en.tsv",
                                           "dict_direction": "other2ref"}]),
                         min_size=1, max_size=2, unique_by=lambda t: t["lang"]),
     "out_dir": st.just("out")},
    optional={"method": st.sampled_from(["orthogonal", "multistep", "meemi", "meemi-multi"]),
              "normalize": st.lists(st.sampled_from(["unit", "center"]), max_size=3),
              "reweight_p": st.floats(0, 2) | st.integers(0, 2),
              "reduce_dim": st.none() | st.integers(1, 5),
              "sources": st.none() | st.lists(st.sampled_from(["en", "tr"]), max_size=2),
              "split": st.fixed_dictionaries({"test_size": st.integers(1, 9)},
                                             optional={"seed": st.none() | st.integers(0, 9)}),
              "eval": st.fixed_dictionaries({}, optional={
                  "test": st.none() | st.just("test.tsv"),
                  "ks": st.lists(st.integers(1, 10), min_size=1, max_size=3),
                  "oov_policy": st.sampled_from(["skip", "fail"]),
                  "label": st.none() | st.text(max_size=3)}),
              "seed": st.none() | st.integers(0, 9),
              "lowercase": st.booleans(),
              "max_words": st.none() | st.integers(1, 100),
              "clean_dicts": st.booleans()})


@settings(max_examples=300, deadline=None)
@given(base=configs, data=st.data())
def test_from_dict_accepts_or_raises_data_error_and_leaves_its_input(base, data):
    raw = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(0, 2))):
        targets = raw.get("targets") if isinstance(raw.get("targets"), list) else []
        objects = [raw, *(raw[key] for key in ("reference", "split", "eval")
                          if isinstance(raw.get(key), dict)),
                   *(target for target in targets if isinstance(target, dict))]
        where = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(where) + KEYS))
        if key in where and data.draw(st.booleans()):
            del where[key]
        else:
            where[key] = data.draw(json_values)
    before = copy.deepcopy(raw)
    try:
        canonical = PipelineConfig.from_dict(raw).canonical()
    except DataError:
        canonical = None
    assert raw == before
    if canonical is not None:
        assert PipelineConfig.from_dict(canonical).canonical() == canonical


def readme_key_table() -> dict:
    """Dotted key -> (JSON type, meaning) from the README's key table."""
    section = README.read_text(encoding="utf-8").split("## Pipeline config keys")[1]
    section = section.split("\n## ")[0]
    return {key: (kind, meaning) for key, kind, meaning in re.findall(
        r"^\| `([\w.]+)` \| ([^|]+?) \| ([^|]+?) \|", section, re.MULTILINE)}


def test_readme_key_table_is_the_config_schema():
    table = readme_key_table()
    assert {key: kind for key, (kind, _) in table.items()} == schema(PipelineConfig)
    for key, rule in RULES.items():
        meaning = table[key][1]
        assert "least" not in rule or f"at least {rule['least']}" in meaning, key
        assert all(f"`{choice}`" in meaning for choice in rule.get("choices", ())), key
        assert not rule.get("nonempty") or "non-empty" in meaning, key


def valid_config() -> dict:
    return {"reference": {"lang": "en", "path": "en.vec"},
            "targets": [{"lang": "tr", "path": "tr.vec", "dict": "en-tr.tsv"}],
            "out_dir": "out", "split": {"test_size": 1, "seed": 0},
            "eval": {"test": "test.tsv"}}


def just_outside(rule, kind, inner):
    """Values of the annotation kind that break each of rule's parts."""
    bad = []
    if "least" in rule:
        bad.append(rule["least"] - 1 if inner is int else math.nextafter(rule["least"], -1))
    if "choices" in rule:
        bad.append(rule["choices"][0] + "x")
    bad = [[value] for value in bad] if get_origin(kind) is list else bad
    if rule.get("nonempty"):
        bad.append([] if get_origin(kind) is list else "")
    return bad


def test_each_field_rule_just_broken_is_a_data_error_that_names_its_key():
    raw = valid_config()
    PipelineConfig.from_dict(raw)
    kinds = {key: (hint, inner) for key, _, hint, inner in walk(PipelineConfig)}
    for key, rule in RULES.items():
        hint, inner = kinds[key]
        kind = get_args(hint)[0] if type(None) in get_args(hint) else hint
        for value in just_outside(rule, kind, inner):
            broken = copy.deepcopy(raw)
            *parents, name = key.split(".")
            where = broken
            for parent in parents:
                where = where[parent][0] if isinstance(where[parent], list) else where[parent]
            where[name] = value
            with pytest.raises(DataError, match=f"^config key {re.escape(key)} must "):
                PipelineConfig.from_dict(broken)
    # every key the README gives a bound, a non-empty rule or a choice of values has a rule
    told = {key for key, (_, meaning) in readme_key_table().items()
            if re.search(r"at least \d|non-empty|`[^`]+`(, | or )`", meaning)}
    assert told <= set(RULES)


def test_null_label_and_null_sources_keep_their_meaning():
    base = {"reference": {"lang": "en", "path": "en.vec"},
            "targets": [{"lang": "tr", "path": "tr.vec", "dict": "en-tr.tsv"}],
            "out_dir": "out", "method": "meemi", "eval": {"test": "test.tsv"}}
    labelled = {**base, "eval": {"test": "test.tsv", "label": None}}
    assert PipelineConfig.from_dict(base).canonical()["eval"]["label"] == "meemi"
    assert PipelineConfig.from_dict(labelled).canonical()["eval"]["label"] is None
    assert PipelineConfig.from_dict({**base, "sources": None}).canonical()["sources"] == []
