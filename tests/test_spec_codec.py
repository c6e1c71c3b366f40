"""The scenario spec codec: the dataclass fields are the JSON schema.

``ScenarioSpec.to_dict`` / ``from_dict`` are one typed walk over the
spec's fields (``repro.scenario.spec._encode`` / ``_decode``).  These
tests pin the recorded format against the golden headers and hold the
loader to one failure mode: a malformed spec is a ``ValueError`` naming
where it is, never a ``TypeError``, ``KeyError`` or ``AttributeError``.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.spec import ScenarioSpec
from repro.scenario.zoo import get_scenario

GOLDENS = sorted((Path(__file__).parent / "goldens").glob("*.jsonl"))


def _header(path: Path) -> dict:
    return json.loads(path.read_text().splitlines()[0])


GOLDEN_SPECS = [_header(path)["spec"] for path in GOLDENS]


@pytest.mark.parametrize("path", GOLDENS, ids=[path.stem for path in GOLDENS])
def test_golden_header_spec_round_trips_to_its_fingerprint(path):
    """Decoding and re-encoding a recorded spec gives back the same dict,
    so the format is pinned without replaying the run."""
    header = _header(path)
    spec = ScenarioSpec.from_dict(header["spec"])
    assert spec.to_dict() == header["spec"]
    assert spec.fingerprint() == header["fingerprint"]


def test_float_field_keeps_a_json_int():
    data = get_scenario("clean-baseline").to_dict()
    data["trace"]["segments"][0]["duration_s"] = 4
    spec = ScenarioSpec.from_dict(data)
    assert type(spec.trace.segments[0].duration_s) is int
    assert spec.to_dict() == data


def _set(key, value):
    def edit(data):
        data[key] = value

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set("frames", 1.5), r"spec\.frames: expected int, got 1\.5"),
        (_set("frames", True), r"spec\.frames: expected int, got True"),
        (_set("frames", "60"), r"spec\.frames: expected int, got '60'"),
        (_set("num_cameras", 2.0), r"spec\.num_cameras: expected int, got 2\.0"),
        (_set("tags", "ab"), r"spec\.tags: expected a list, got 'ab'"),
        (_set("bogus", 1), r"spec: unknown field\(s\) \['bogus'\]"),
        (
            lambda data: data["churn"][0].update(bogus=1),
            r"spec\.churn\[0\]: unknown field\(s\) \['bogus'\]",
        ),
        (
            lambda data: data["trace"]["segments"][0].update(bogus=1),
            r"spec\.trace\.segments\[0\]: unknown field\(s\) \['bogus'\]",
        ),
        (lambda data: data.pop("description"), r"spec: missing field\(s\) \['description'\]"),
        (
            lambda data: data["faults"].update(seed=5.7),
            r"spec\.faults\.seed: expected int, got 5\.7",
        ),
        (_set("seed", -1), "spec: seed must be non-negative"),
        (
            lambda data: data["trace"].update(seed=-2),
            "spec.trace: seed must be non-negative",
        ),
        (
            lambda data: data["faults"].update(seed=-3),
            "spec.faults: seed must be non-negative",
        ),
        (
            lambda data: data["faults"].update(encoder_faults=[-4]),
            r"spec\.faults\.encoder_faults\[0\]: sequence must be non-negative",
        ),
    ],
    ids=[
        "fractional-frames", "bool-frames", "string-frames", "float-cameras",
        "string-tags", "unknown-key", "churn-unknown-key", "segment-unknown-key",
        "missing-description", "fractional-plan-seed", "negative-seed",
        "negative-trace-seed", "negative-plan-seed", "negative-fault-sequence",
    ],
)
def test_malformed_spec_is_a_value_error_naming_its_path(edit, message):
    data = get_scenario("multiparty-churn").to_dict()
    edit(data)
    with pytest.raises(ValueError, match=message):
        ScenarioSpec.from_dict(data)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _locations(node, at=()):
    """Every position in a JSON tree, as a key/index path from the root."""
    yield at
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _locations(child, (*at, key))


def _mutate(data, spec: dict):
    """Drop a key (or list entry), add one, or swap a value for a value
    of another JSON type -- at any depth of ``spec``."""
    at = data.draw(st.sampled_from(list(_locations(spec))))
    parent, node = None, spec
    for key in at:
        parent, node = node, node[key]
    kind = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if kind == "drop" and parent is not None:
        del parent[at[-1]]
    elif kind == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=12))] = data.draw(_JSON)
    elif kind == "add" and isinstance(node, list):
        node.append(data.draw(_JSON))
    else:
        value = data.draw(_JSON.filter(lambda v: type(v) is not type(node)))
        if parent is None:
            return value
        parent[at[-1]] = value
    return spec


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_golden_spec_loads_or_is_a_value_error(data):
    spec = _mutate(data, copy.deepcopy(data.draw(st.sampled_from(GOLDEN_SPECS))))
    try:
        loaded = ScenarioSpec.from_dict(spec)
    except ValueError:
        return
    assert ScenarioSpec.from_dict(json.loads(json.dumps(loaded.to_dict()))) == loaded
