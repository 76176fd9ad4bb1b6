"""`load_scenario` against the exact route, `json.loads` + `scenario_from_dict`.

A file whose text holds no true, false or null has its dense `W` and `Q`
converted by one numpy pass (`scenario._literal_free_matrix`); every other
file, and every dict built in code, has its entries' types scanned by
`real_array`. Either way a file loads to the same bits, or raises the same
exception with the same message, as the exact route."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemasim import load_scenario, presets, scenario_from_dict, scenario_to_dict
from cemasim import scenario as scenario_module
from cemasim.scenario import json_text
from conftest import scenario_bits

# the scenarios whose dense files are mutated: table1 (4 nodes) and two
# generated rings, of 5 and 10 nodes
BASES = [presets.table1_scenario(), presets.random_scenario(1, 3, 2),
         presets.random_scenario(2, 5, 5)]
# the text one W or Q entry is replaced by
ENTRIES = ["true", "false", "null", '"0.5"', "1", "-0.0", "[0.5]", "{}", "NaN", "1e400"]
# besides the entries: no change, a short row, a long row, the matrix as its
# first row (1-D) or with every entry in a list (3-D), a true under an
# unknown key at the top level or in "weights" or "graph"
KINDS = ENTRIES + ["none", "short-row", "long-row", "one-row", "entries-in-lists", "unknown-key"]
_MARK = "@entry@"


def _mutated_text(base, kind, matrix, i, j, place, compact):
    d = scenario_to_dict(BASES[base])
    rows = d["weights"][matrix]
    i, j = i % len(rows), j % len(rows)
    if kind in ENTRIES:
        rows[i][j] = _MARK
    elif kind == "short-row":
        del rows[i][j]
    elif kind == "long-row":
        rows[i].append(0.0)
    elif kind == "one-row":
        d["weights"][matrix] = rows[i]
    elif kind == "entries-in-lists":
        d["weights"][matrix] = [[[x] for x in row] for row in rows]
    elif kind == "unknown-key":
        (d[place] if place else d)["note"] = True
    text = json.dumps(d, separators=(",", ":")) if compact else json_text(d)
    return text.replace(f'"{_MARK}"', kind)


def _outcome(load):
    """The loaded scenario's bits, or the type and message it raised."""
    try:
        return scenario_bits(load())
    except Exception as e:  # the exact route's exception is the expected outcome
        return type(e), str(e)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "s.json"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(base=st.integers(0, len(BASES) - 1), kind=st.sampled_from(KINDS),
       matrix=st.sampled_from(["W", "Q"]), i=st.integers(0, 9), j=st.integers(0, 9),
       place=st.sampled_from(["", "weights", "graph"]), compact=st.booleans())
@example(base=0, kind="none", matrix="W", i=0, j=0, place="", compact=False)
@example(base=1, kind="true", matrix="W", i=1, j=2, place="", compact=False)
@example(base=1, kind="false", matrix="Q", i=0, j=0, place="", compact=True)
@example(base=2, kind="null", matrix="W", i=9, j=0, place="", compact=False)
@example(base=0, kind='"0.5"', matrix="Q", i=3, j=3, place="", compact=False)
@example(base=2, kind="1", matrix="W", i=4, j=5, place="", compact=False)
@example(base=1, kind="-0.0", matrix="Q", i=2, j=1, place="", compact=False)
@example(base=0, kind="[0.5]", matrix="W", i=0, j=1, place="", compact=True)
@example(base=2, kind="{}", matrix="Q", i=7, j=7, place="", compact=False)
@example(base=1, kind="NaN", matrix="W", i=0, j=0, place="", compact=False)
@example(base=0, kind="1e400", matrix="Q", i=1, j=0, place="", compact=False)
@example(base=2, kind="short-row", matrix="W", i=3, j=0, place="", compact=False)
@example(base=1, kind="long-row", matrix="Q", i=4, j=0, place="", compact=True)
@example(base=2, kind="one-row", matrix="W", i=2, j=0, place="", compact=False)
@example(base=0, kind="entries-in-lists", matrix="Q", i=0, j=0, place="", compact=False)
@example(base=0, kind="unknown-key", matrix="W", i=0, j=0, place="weights", compact=False)
def test_load_equals_the_exact_route(scenario_file, base, kind, matrix, i, j, place, compact):
    text = _mutated_text(base, kind, matrix, i, j, place, compact)
    scenario_file.write_text(text, encoding="utf-8")
    want = _outcome(lambda: scenario_from_dict(json.loads(text)))
    assert _outcome(lambda: load_scenario(scenario_file)) == want
    if kind == "none":
        # and a valid scenario round-trips bit for bit
        assert want == scenario_bits(BASES[base])


@pytest.fixture
def real_array_calls(monkeypatch):
    """(name, type of the values) of each real_array call, in order."""
    calls = []

    def spy(values, name, ndim, _fn=scenario_module.real_array):
        calls.append((name, type(values)))
        return _fn(values, name, ndim)

    monkeypatch.setattr(scenario_module, "real_array", spy)
    return calls


class TestDenseRoute:
    """Which route a dense file takes: the one numpy pass without a true,
    false or null in its text, real_array's entry-type scan with one."""

    @pytest.fixture(scope="class")
    def dense_text(self):
        return json_text(scenario_to_dict(presets.random_scenario(1, 50, 50)))

    def test_a_literal_free_file_skips_the_entry_type_scan(self, tmp_path, dense_text,
                                                           real_array_calls):
        path = tmp_path / "s.json"
        path.write_text(dense_text)
        load_scenario(path)
        assert real_array_calls == [("W", np.ndarray), ("Q", np.ndarray)]

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("{\n", '{\n  "note": true,\n', 1),
        lambda t: t.replace('"graph": {\n', '"graph": {\n    "note": null,\n', 1),
        lambda t: re.sub(r'"a": [^,\n]+', '"a": false', t, count=1),
    ], ids=["true-at-the-top", "null-in-the-graph", "false-in-a-generator"])
    def test_one_literal_anywhere_runs_the_scan(self, tmp_path, dense_text, real_array_calls,
                                                edit):
        path = tmp_path / "s.json"
        path.write_text(edit(dense_text))
        load_scenario(path)
        assert real_array_calls == [("W", list), ("Q", list)]
