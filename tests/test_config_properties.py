"""Property tests: PipelineConfig.from_dict on mutated configs, and the
README key table against the config dataclasses it documents."""

import copy
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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


def schema(kind, prefix="") -> dict:
    """Dotted key -> JSON type for every field of a config dataclass, and of
    the dataclasses nested in it."""
    rows, hints = {}, get_type_hints(kind)
    for f in fields(kind):
        rows[prefix + f.name] = json_type(hints[f.name])
        inner = hints[f.name]
        while get_args(inner):
            inner = get_args(inner)[0]
        if is_dataclass(inner):
            rows.update(schema(inner, f"{prefix}{f.name}."))
    return rows


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


def test_readme_key_table_is_the_config_schema():
    section = README.read_text(encoding="utf-8").split("## Pipeline config keys")[1]
    section = section.split("\n## ")[0]
    table = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", section, re.MULTILINE))
    assert table == schema(PipelineConfig)


def test_null_label_and_null_sources_keep_their_meaning():
    base = {"reference": {"lang": "en", "path": "en.vec"},
            "targets": [{"lang": "tr", "path": "tr.vec", "dict": "en-tr.tsv"}],
            "out_dir": "out", "method": "meemi", "eval": {"test": "test.tsv"}}
    labelled = {**base, "eval": {"test": "test.tsv", "label": None}}
    assert PipelineConfig.from_dict(base).canonical()["eval"]["label"] == "meemi"
    assert PipelineConfig.from_dict(labelled).canonical()["eval"]["label"] is None
    assert PipelineConfig.from_dict({**base, "sources": None}).canonical()["sources"] == []
