"""The one JSON input reader, `scenario.read_json`: orjson, then the standard
library for what orjson rejects; the same values as `json.loads`."""

import importlib.util
import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import load_scenario, presets, scenario_from_dict, scenario_to_dict
from cemasim.scenario import MAX_JSON_DEPTH, _json_depth, json_text, read_json, save_scenario
from cemasim.scenario import validate_scenario

ROOT = Path(__file__).resolve().parent.parent
INT64_MIN, UINT64_END = -(2 ** 63), 2 ** 64


def _canon(x):
    """Type and exact value of a parsed JSON value: float bits, int value,
    key order. An int outside [-2**63, 2**64) that a float can hold canons as
    that float, the one documented difference (pinned on its own below)."""
    if isinstance(x, bool) or x is None:
        return (type(x), x)
    if isinstance(x, int) and not INT64_MIN <= x < UINT64_END:
        try:
            x = float(x)
        except OverflowError:
            return (int, x)
    if isinstance(x, float):
        return (float, struct.pack("<d", x))
    if isinstance(x, (int, str)):
        return (type(x), x)
    if isinstance(x, list):
        return (list, [_canon(v) for v in x])
    return (dict, [(k, _canon(v)) for k, v in x.items()])


def _ints():
    edges = [INT64_MIN, 2 ** 63, UINT64_END, 10 ** 308, 2 ** 1024]
    near = st.sampled_from(edges).flatmap(lambda e: st.integers(e - 2, e + 1))
    return st.one_of(st.integers(), near, near.map(lambda i: -i))


_finite = st.floats(allow_nan=False, allow_infinity=False)
# a JSON number literal with arbitrarily long digit strings and exponents
_number_literal = st.from_regex(r"-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?",
                                fullmatch=True)
_numbers = st.one_of(
    _ints().map(str),
    _finite.map(repr),
    _finite.map(lambda x: "%.17g" % x),
    _finite.map(lambda x: "%.15g" % x),
    _number_literal,
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "-0.0", "1E400", "-1e400", "1e-400"]),
)
# raw text as UTF-8, or escaped; lone surrogates only escaped (they have no UTF-8)
_strings = st.one_of(
    st.text().map(lambda s: json.dumps(s, ensure_ascii=True)),
    st.text(st.characters(blacklist_categories=("Cs",))).map(
        lambda s: json.dumps(s, ensure_ascii=False)),
    st.sampled_from(['"\\ud800"', '"\\udfff x"', '"\\ud83d\\ude00"', '"\\u0000"', '"\\/\\b\\f"']),
)
_ws = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
_leaves = st.one_of(_numbers, _strings, st.sampled_from(["true", "false", "null"]))


def _array(items, sep):
    return "[" + sep.join(items) + "]"


def _object(pairs, sep):
    return "{" + sep.join(f"{k}:{v}" for k, v in pairs) + "}"


_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(_array, st.lists(inner, max_size=5), _ws.map(lambda w: "," + w)),
        st.builds(_object, st.lists(st.tuples(_strings, inner), max_size=5),
                  _ws.map(lambda w: w + "," + w)),
        st.builds(lambda d, x: "[" * d + x + "]" * d, st.integers(1, 200), inner),
    ),
    max_leaves=20,
)


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "doc.json"


class TestSameValuesAsTheStandardLibrary:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(text=_documents, pad=_ws)
    def test_read_json_equals_json_loads(self, json_file, text, pad):
        text = pad + text + pad
        json_file.write_bytes(text.encode("utf-8"))
        try:
            want = json.loads(text)
        except (ValueError, RecursionError):
            # ValueError: an int literal of more than 4300 digits
            return
        if _json_depth(text.encode("utf-8")) > MAX_JSON_DEPTH:
            # only where the recursion limit lets json read that deep
            with pytest.raises(ValueError, match="nesting too deep"):
                read_json(json_file)
            return
        assert _canon(read_json(json_file)) == _canon(want)

    def test_every_fallback_literal(self, json_file):
        # what json_text writes for NaN and +-inf, overflow, a lone surrogate
        json_file.write_bytes(b'[NaN, Infinity, -Infinity, 1e400, "\\ud800", 7]')
        got = read_json(json_file)
        assert math.isnan(got[0]) and got[1:4] == [math.inf, -math.inf, math.inf]
        assert got[4:] == ["\ud800", 7] and type(got[5]) is int


class TestIntegerDivergence:
    """orjson reads an integer outside [-2**63, 2**64) as a float, where the
    standard library gives an int (README, "Scenario files")."""

    @pytest.mark.parametrize("literal, want", [
        ("18446744073709551615", 18446744073709551615),
        ("-9223372036854775808", -9223372036854775808),
    ])
    def test_the_64_bit_range_reads_as_int(self, json_file, literal, want):
        json_file.write_text(literal)
        got = read_json(json_file)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("literal", ["18446744073709551616", "-9223372036854775809"])
    def test_beyond_it_reads_as_float(self, json_file, literal):
        json_file.write_text(literal)
        got = read_json(json_file)
        assert type(got) is float and got == float(int(literal))

    def test_a_fallback_document_keeps_the_int(self, json_file):
        json_file.write_text("[18446744073709551616, NaN]")
        assert type(read_json(json_file)[0]) is int

    def test_in_a_scenario_file(self, json_file):
        text = json_text(scenario_to_dict(presets.table1_scenario()))
        # a max_iters past the range fails validation instead of loading rounded
        json_file.write_text(text.replace('"max_iters": 200000', '"max_iters": 100000000000000000001'))
        s = load_scenario(json_file)
        assert type(s.max_iters) is float
        assert [v.rule for v in validate_scenario(s)] == ["scenario.max_iters"]
        json_file.write_text(text.replace('"max_iters": 200000', '"max_iters": 9223372036854775807'))
        assert load_scenario(json_file).max_iters == 2 ** 63 - 1
        json_file.write_text(text.replace('"n": 4', '"n": 18446744073709551616'))
        with pytest.raises(ValueError, match="graph node count 1.8446744073709552e"):
            load_scenario(json_file)


class TestReadErrors:
    @pytest.mark.parametrize("data", [
        b'\xef\xbb\xbf{"a": 1}', b'\xef\xbb\xbf[NaN]',
        b'{"a": "\xff"}', b'[NaN, "\xc3"]',
        b"", b"{not json", b"[1,]",
    ], ids=["bom", "bom-nan", "invalid-utf8", "invalid-utf8-nan", "empty", "garbage", "comma"])
    def test_rejected_as_before(self, json_file, data):
        json_file.write_bytes(data)
        with pytest.raises(ValueError) as want:
            json.loads(data.decode("utf-8"))
        with pytest.raises(ValueError) as got:
            read_json(json_file)
        # the standard library's error, message included
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_deep_nesting_in_the_fallback_is_a_value_error(self, json_file):
        json_file.write_text("[" * 100_000 + "NaN" + "]" * 100_000)
        with pytest.raises(ValueError, match="nesting too deep"):
            read_json(json_file)


def _nested_depth(x):
    """Levels of a chain of arrays or objects, each holding the next first."""
    depth = 0
    while isinstance(x, (list, dict)):
        depth += 1
        x = next(iter(x.values() if isinstance(x, dict) else x), None)
    return depth


class TestNestingLimit:
    """Nesting deeper than MAX_JSON_DEPTH is a ValueError before orjson runs,
    which before version 3.9.15 overflows the native stack near 200 000
    levels; shallower nesting reads under any orjson version."""

    @pytest.mark.parametrize("depth", [MAX_JSON_DEPTH + 1, 100_000, 1_000_000])
    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
    def test_too_deep_is_a_value_error(self, json_file, depth, closed):
        json_file.write_text("[" * depth + "]" * (depth if closed else 0))
        with pytest.raises(ValueError, match="nesting too deep"):
            read_json(json_file)

    @pytest.mark.parametrize("open_, close", [("[", "]"), ('{"a":', "}")], ids=["array", "object"])
    @pytest.mark.parametrize("middle", ["1", "NaN"], ids=["orjson", "fallback"])
    def test_shallow_enough_reads(self, json_file, open_, close, middle):
        json_file.write_text(open_ * 900 + middle + close * 900)
        assert _nested_depth(read_json(json_file)) == 900

    @pytest.mark.parametrize("middle", ["", "NaN"], ids=["orjson", "fallback"])
    def test_near_the_limit_reads_or_is_a_value_error(self, json_file, middle):
        # the standard library's recursion limit sits near 1000 levels and
        # orjson 3.9.15 and later stops at 1024: the file reads or is refused
        json_file.write_text("[" * MAX_JSON_DEPTH + middle + "]" * MAX_JSON_DEPTH)
        try:
            got = read_json(json_file)
        except ValueError as e:
            assert str(e) == "JSON nesting too deep to read"
        else:
            assert _nested_depth(got) == MAX_JSON_DEPTH

    @pytest.mark.parametrize("text, depth", [
        ('["' + "[" * 1_000_000 + '"]', 1),
        ('["\\"' + "[" * 1_000_000 + '"]', 1),
        ('[{"k]}": "\\\\", "v": [["\\u005d"]]}]', 4),
        ('["\\\\", ' + "[" * 3 + "]" * 4, 4),
        ('"\\n"', 0),
    ], ids=["in-a-string", "after-an-escaped-quote", "escapes", "after-an-escaped-backslash", "no-array"])
    def test_brackets_in_strings_do_not_count(self, text, depth):
        assert _json_depth(text.encode()) == depth
        assert _json_depth(text.encode()) == _json_depth(json.dumps(json.loads(text)).encode())


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(s):
    """Every number of a scenario with its type and exact bits."""
    params = [getattr(p, f.name) for p in s.generators + s.consumers for f in fields(p)]
    scalars = params + [s.graph.n, s.eta, s.eps_m, s.eps_l, s.max_iters]
    return ([(type(x), struct.pack("<d", x) if isinstance(x, float) else x) for x in scalars],
            s.graph.edges, s.graph.node_kind, s.weights.W.tobytes(), s.weights.Q.tobytes())


def _written_scenarios(directory):
    """Files of the presets and of bench/inputs.py's scenarios (every
    workload's kinds at seed 1: table1, the 16-node and one 400-node ring)."""
    paths = []
    for name, s in [("table1", presets.table1_scenario()),
                    ("random-1-3-2", presets.random_scenario(1, 3, 2))]:
        paths.append(directory / f"{name}.json")
        save_scenario(s, paths[-1])
    inputs = _bench_inputs()
    rng = np.random.default_rng(1)
    for name, d in [("bench-table1", inputs.table1()),
                    ("bench-ring16", inputs.random_ring(rng, 8, 8, 0.1, 0.001)),
                    ("bench-ring400", inputs.random_ring(rng, 200, 200, 0.1, 0.001))]:
        paths.append(directory / f"{name}.json")
        inputs.write(d, paths[-1])
    return paths


def test_every_preset_and_bench_scenario_loads_the_same_bits(tmp_path):
    for path in _written_scenarios(tmp_path):
        stdlib = scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert _bits(load_scenario(path)) == _bits(stdlib), path.name
