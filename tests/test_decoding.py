"""The JSON decoding layer: every document ends in a documented exit code.

Malformed fields exit 64 and counts past their caps exit 65, each with a
message on stderr; none ends in exit 70 (``internal error``) and none is
silently coerced into a document that runs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakconv.carrier import (choice, grid_partition, integer, items, need, number, numbers,
                              unit_cube)
from weakconv.cli import main
from weakconv.convergence import MAX_BATTERY_COUNT, MAX_BATTERY_PRODUCT, MAX_PREFIX
from weakconv.errors import CapacityError, DomainError
from weakconv.funcs import Step
from weakconv.target import MAX_TARGET_DIM

CUBE1 = {"kind": "cube", "dim": 1}
PAIR = {"kind": "finite", "labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]}
DRIFT = {"kind": "dirac_drift", "params": {"s0": [0.2], "v": [0.5]}}
ALTERNATING = {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}}
TARGET = {"kind": "frechet", "family": "omega_max", "dim": 2}


def atoms(*pairs):
    return {"atoms": [{"point": p, "weight": w} for p, w in pairs]}


BL = {"space": CUBE1, "mu": atoms(([0.2], 1.0)), "nu": atoms(([0.9], 1.0))}
INTEGRATE = {"space": CUBE1, "measure": atoms(([0.25], 0.5), ([0.75], 0.5)),
             "function": {"kind": "tent", "point": [0.5], "radius": 0.5}}
VECTOR = {"space": CUBE1, "measure": atoms(([0.25], 0.5), ([0.75], 0.5)),
          "function": {"coords": [{"kind": "coord", "axis": 0},
                                  {"kind": "const", "value": 0.5}]},
          "target": TARGET}
CERTIFY = {"space": CUBE1, "sequence": DRIFT, "targets": [TARGET], "run": {"n": 16}}
SCENARIO = {"space": CUBE1, "sequence": ALTERNATING, "targets": [TARGET], "run": {"n": 16}}


def run_doc(argv: list, doc) -> tuple:
    """Exit code and stderr of ``weakconv <argv> FILE`` on ``doc``, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    return code, err.getvalue()


def with_(doc: dict, **fields) -> dict:
    return {**copy.deepcopy(doc), **fields}


BL_CASES = [
    # exited 70
    ("cube coordinate 10**400", with_(BL, mu=atoms(([10 ** 400], 1.0))), 64,
     "cube point must be one finite number"),
    ("cube dim 1e400", with_(BL, space={"kind": "cube", "dim": float("inf")}), 64,
     "cube 'dim' must be an integer, got inf"),
    # coerced
    ("cube dim 1.5", with_(BL, space={"kind": "cube", "dim": 1.5}), 64,
     "cube 'dim' must be an integer, got 1.5"),
    ("cube dim true", with_(BL, space={"kind": "cube", "dim": True}), 64,
     "cube 'dim' must be an integer, got True"),
    ("coordinate true", with_(BL, mu=atoms(([True], 1.0))), 64,
     "cube point must be one finite number, got [True]"),
    ("weight true", with_(BL, mu=atoms(([0.2], True))), 64,
     "atom weight must be a number, got True"),
    ("weight '1'", with_(BL, mu=atoms(([0.2], "1"))), 64,
     "atom weight must be a number, got '1'"),
    ("finite point true", {"space": PAIR, "mu": atoms((True, 1.0)), "nu": atoms((0, 1.0))},
     64, "finite-carrier point must be an integer, got True"),
    ("space kind 1", with_(BL, space={"kind": 1, "dim": 1}), 64,
     "space 'kind' must be \"cube\" or \"finite\", got 1"),
    ("dist of strings", with_(BL, space={**PAIR, "dist": [["0", "1"], ["1", "0"]]}), 64,
     "'dist' row must be two finite numbers"),
    # ignored
    ("document key 'nu2'", with_(BL, nu2=atoms(([0.5], 1.0))), 64,
     "bl document has no 'nu2' field"),
    ("measure key 'atom'", with_(BL, mu={**atoms(([0.2], 1.0)), "atom": []}), 64,
     "measure has no 'atom' field"),
    ("atom key 'wieght'", with_(BL, mu={"atoms": [{"point": [0.2], "weight": 1.0,
                                                   "wieght": 0.5}]}), 64,
     "atom has no 'wieght' field"),
    ("finite space key 'label'", {"space": {**PAIR, "label": ["a", "b"]},
                                  "mu": atoms((0, 1.0)), "nu": atoms((1, 1.0))}, 64,
     "finite space has no 'label' field"),
]

SEQUENCE_CASES = [
    # exited 70
    ("params a list", with_(CERTIFY, sequence={"kind": "alternating", "params": [1]}), 64,
     "sequence 'params' must be a JSON object, got [1]"),
    ("s0 missing", with_(CERTIFY, sequence={"kind": "dirac_drift", "params": {"v": [0.1]}}),
     64, "scenario 'dirac_drift' needs a 's0' param"),
    ("b missing", with_(CERTIFY, sequence={"kind": "mass_split", "params": {"a": [0.1]}}),
     64, "scenario 'mass_split' needs a 'b' param"),
    ("rate [1]", with_(CERTIFY, sequence={"kind": "dirac_drift", "params": {
        "s0": [0.2], "v": [0.5], "rate": [1]}}), 64, "drift 'rate' must be \"harmonic\""),
    ("w_hi 'x'", with_(CERTIFY, sequence={"kind": "oscillating_mixture", "params": {
        "a": [0.1], "b": [0.9], "w_hi": "x"}}), 64, "'w_hi' must be a number, got 'x'"),
    ("points 5", with_(CERTIFY, sequence={"kind": "position_cycle", "params": {"points": 5}}),
     64, "'points' must be a list, got 5"),
    ("targets 5", with_(CERTIFY, targets=5), 64, "'targets' must be a list, got 5"),
    ("target dim -1", with_(CERTIFY, targets=[{**TARGET, "dim": -1}]), 64,
     "bad target spec: 'dim' must be at least 1, got -1"),
    ("target dim 0", with_(CERTIFY, targets=[{**TARGET, "dim": 0}]), 64,
     "bad target spec: 'dim' must be at least 1, got 0"),
    ("target family [1]", with_(CERTIFY, targets=[{**TARGET, "family": [1]}]), 64,
     "bad target spec: 'family' must be \"lp:1\" or"),
    ("target base of strings", with_(CERTIFY, targets=[{**TARGET, "base": [["1", "0"],
                                                                          ["0", "1"]]}]),
     64, "bad target spec: 'base' row must be two finite numbers"),
    # coerced
    ("n 10.7", with_(CERTIFY, run={"n": 10.7}), 64, "'n' must be an integer, got 10.7"),
    ("seed 1.5", with_(CERTIFY, run={"seed": 1.5}), 64,
     "'seed' must be a non-negative integer, got 1.5"),
    ("seed true", with_(CERTIFY, run={"seed": True}), 64,
     "'seed' must be a non-negative integer, got True"),
    ("tol 1e400", with_(CERTIFY, sequence=ALTERNATING, run={"tol": float("inf")}), 64,
     "'tol' must be a number, got inf"),
    ("run [1]", with_(CERTIFY, run=[1]), 64, "'run' must be a JSON object, got [1]"),
    # ignored
    ("params key 'rtae'", with_(CERTIFY, sequence={"kind": "dirac_drift", "params": {
        "s0": [0.2], "v": [0.5], "rtae": "quadratic"}}), 64,
     "scenario 'dirac_drift' reads no 'rtae' param"),
    ("run key 'normalise'", with_(CERTIFY, run={"normalise": True}), 64,
     "'run' has no 'normalise' setting"),
    # exited 1 as if both keys were absent
    ("document key 'targts'", with_(CERTIFY, targts=[TARGET], sequence={**DRIFT, "sead": 5}),
     64, "document has no 'targts' field"),
    ("sequence key 'sead'", with_(CERTIFY, sequence={**DRIFT, "sead": 5}), 64,
     "sequence has no 'sead' field"),
    ("target key 'famly'", with_(CERTIFY, targets=[{**TARGET, "famly": "lp:2"}]), 64,
     "target spec has no 'famly' field"),
    ("cube space key 'dims'", with_(CERTIFY, space={**CUBE1, "dims": 2}), 64,
     "cube space has no 'dims' field"),
    # a dim-1 omega_max target: its own to_json() was refused, and the banach
    # kind it asked for scored gaps by the norm
    ("dim-1 frechet omega_max", with_(CERTIFY, sequence=ALTERNATING,
                                      targets=[{**TARGET, "dim": 1}]), 1, ""),
    ("dim-1 banach omega_max", with_(CERTIFY, targets=[{**TARGET, "dim": 1, "kind": "banach"}]),
     64, "family 'omega_max' implies kind 'frechet'"),
    # capped
    ("n 2**70", with_(CERTIFY, run={"n": 2 ** 70}), 65, f"'n' is capped at {MAX_PREFIX}"),
    ("tents 10**9", with_(CERTIFY, battery={"tents": 10 ** 9}), 65,
     f"battery 'tents' is capped at {MAX_BATTERY_COUNT}"),
    ("mcshane_anchors 2**40", with_(CERTIFY, battery={"mcshane_anchors": 2 ** 40}), 65,
     f"battery 'mcshane_anchors' is capped at {MAX_BATTERY_COUNT}"),
    ("target dim 2**20", with_(CERTIFY, targets=[{**TARGET, "dim": 2 ** 20}]), 65,
     f"bad target spec: 'dim' is capped at {MAX_TARGET_DIM}"),
]

INTEGRATE_CASES = [
    # exited 70
    ("coords 5", with_(VECTOR, function={"coords": 5}), 64, "'coords' must be a list, got 5"),
    ("schedule ['a']", with_(INTEGRATE, schedule=["a"]), 64,
     "'schedule' must be a list of finite numbers, got ['a']"),
    ("schedule 5", with_(INTEGRATE, schedule=5), 64,
     "'schedule' must be a list of finite numbers, got 5"),
    ("step axis 5", with_(INTEGRATE, function={"kind": "step", "axis": 5, "threshold": 0.5}),
     64, "axis 5 out of range for dim 1"),
    ("schedule [1e-300]", with_(INTEGRATE, schedule=[1e-300]), 65, "2**62 cells per axis"),
    ("8-cube mesh 2**-63",
     {"space": {"kind": "cube", "dim": 8}, "measure": atoms(([0.5] * 8, 1.0)),
      "function": {"kind": "dist", "point": [0.5] * 8}, "schedule": [2.0 ** -63]},
     65, "2**62 cells per axis"),
    # coerced
    ("const value true", with_(VECTOR, function={"coords": [{"kind": "coord", "axis": 0},
                                                           {"kind": "const", "value": True}]}),
     64, "'value' must be a number, got True"),
    ("coord axis 0.5", with_(INTEGRATE, function={"kind": "coord", "axis": 0.5}), 64,
     "'axis' must be a non-negative integer, got 0.5"),
    ("mcshane values '1'", with_(INTEGRATE, function={
        "kind": "mcshane", "anchors": [[0.5]], "values": "1", "lip": 1.0}), 64,
     "'values' must be a list of finite numbers, got '1'"),
    ("tent without a radius", with_(INTEGRATE, function={"kind": "tent", "point": [0.5]}), 64,
     "function node 'tent' needs a 'radius' field"),
    # ignored
    ("document key 'schedul'", with_(INTEGRATE, schedul=[0.5]), 64,
     "integrate document has no 'schedul' field"),
    ("tent key 'radus'", with_(INTEGRATE, function={"kind": "tent", "point": [0.5],
                                                    "radius": 0.5, "radus": 1.0}), 64,
     "function node 'tent' has no 'radus' field"),
    ("child key 'axes'", with_(INTEGRATE, function={
        "kind": "clamp", "lo": -1.0, "hi": 1.0, "child": {"kind": "coord", "axis": 0, "axes": 1}}),
     64, "function node 'coord' has no 'axes' field"),
    ("vector function key 'coord'", with_(VECTOR, function={**VECTOR["function"], "coord": []}),
     64, "vector function has no 'coord' field"),
    # ignored, and exited 0
    ("schedule on a finite carrier",
     {"space": PAIR, "measure": atoms((0, 1.0)),
      "function": {"kind": "tent", "point": 1, "radius": 2.0}, "schedule": [0.5, 0.9]},
     64, "integrate document on a finite carrier has no 'schedule' field"),
    ("target beside a scalar function", with_(INTEGRATE, target=5), 64,
     "integrate document with a scalar function has no 'target' field"),
]


class TestDocumentsThatExitedOrRanWrongly:
    @pytest.mark.parametrize("name,doc,code,message", BL_CASES, ids=[c[0] for c in BL_CASES])
    def test_bl(self, name, doc, code, message):
        got, err = run_doc(["bl"], doc)
        assert (got, "internal error" in err) == (code, False), err
        assert message in err

    @pytest.mark.parametrize("name,doc,code,message", SEQUENCE_CASES,
                             ids=[c[0] for c in SEQUENCE_CASES])
    def test_certify(self, name, doc, code, message):
        got, err = run_doc(["certify"], doc)
        assert (got, "internal error" in err) == (code, False), err
        assert message in err

    def test_certify_normalize_1(self):
        got, err = run_doc(["certify"], with_(CERTIFY, run={"normalize": 1}))
        assert got == 64 and "'normalize' must be true or false, got 1" in err

    def test_scenario_run_reads_no_normalize(self):
        doc = with_(SCENARIO, run={"n": 16, "normalize": True})
        got, err = run_doc(["scenario", "run"], doc)
        assert (got, "internal error" in err) == (64, False), err
        assert "'run' has no 'normalize' setting" in err
        assert run_doc(["certify"], doc)[0] in (0, 1, 2)  # certify reads it

    @pytest.mark.parametrize("name,doc,code,message", SEQUENCE_CASES,
                             ids=[c[0] for c in SEQUENCE_CASES])
    def test_scenario_run(self, name, doc, code, message):
        got, err = run_doc(["scenario", "run"], doc)
        assert (got, "internal error" in err) == (code, False), err
        assert message in err

    @pytest.mark.parametrize("name,doc,code,message", INTEGRATE_CASES,
                             ids=[c[0] for c in INTEGRATE_CASES])
    def test_integrate(self, name, doc, code, message):
        got, err = run_doc(["integrate"], doc)
        assert (got, "internal error" in err) == (code, False), err
        assert message in err

    @pytest.mark.parametrize("text", ["1e400", "-1e400"])
    def test_written_out_overflowing_dim(self, text):
        doc = json.dumps(BL).replace('"dim": 1', f'"dim": {text}')
        got, err = run_doc(["bl"], doc)
        assert (got, "internal error" in err) == (64, False), err

    def test_integer_of_5000_digits(self):
        doc = json.dumps(BL).replace('"weight": 1.0', '"weight": ' + "9" * 5000, 1)
        got, err = run_doc(["bl"], doc)
        assert got == 64 and "invalid JSON" in err

    def test_alternating_with_an_infinite_tol_is_not_convergent(self):
        # parsed as inf, it used to make the divergent sequence look convergent
        doc = with_(CERTIFY, sequence=ALTERNATING, targets=[])
        got, _ = run_doc(["certify"], json.dumps(doc).replace('"run": {"n": 16}',
                                                               '"run": {"tol": 1e400}'))
        assert got == 64
        assert run_doc(["certify"], doc)[0] == 1


class TestCaps:
    """Each cap admits its own value and refuses the next one with exit 65."""

    def test_prefix_length(self):
        assert run_doc(["certify"], with_(CERTIFY, sequence=ALTERNATING, targets=[],
                                          run={"n": MAX_PREFIX}))[0] == 1
        assert run_doc(["certify"], with_(CERTIFY, run={"n": MAX_PREFIX + 1}))[0] == 65

    def test_prefix_flag(self):
        assert run_doc(["scenario", "run", "--n", str(MAX_PREFIX + 1)], SCENARIO)[0] == 65

    @pytest.mark.parametrize("key", ["tents", "distances", "mcshanes", "vector_members",
                                     "mcshane_anchors"])
    def test_battery_count(self, key):
        doc = with_(CERTIFY, battery={key: MAX_BATTERY_COUNT + 1})
        assert run_doc(["certify"], doc)[0] == 65

    def test_battery_at_the_cap_runs(self):
        doc = with_(CERTIFY, targets=[], battery={"tents": MAX_BATTERY_COUNT, "distances": 0,
                                                  "mcshanes": 0})
        assert run_doc(["certify"], doc)[0] in (0, 1, 2)

    def test_mcshane_product(self):
        doc = with_(CERTIFY, targets=[], battery={"mcshanes": 16, "mcshane_anchors": 256})
        assert run_doc(["certify"], doc)[0] in (0, 1, 2)
        code, err = run_doc(["certify"], with_(doc, battery={"mcshanes": 17,
                                                             "mcshane_anchors": 241}))
        assert code == 65
        assert (f"battery mcshanes * mcshane_anchors is capped at {MAX_BATTERY_PRODUCT}, "
                f"got {MAX_BATTERY_PRODUCT + 1}") in err

    def test_vector_product_per_target(self):
        target = {"kind": "banach", "dim": 1, "family": "lp:2"}
        doc = with_(CERTIFY, targets=[target] * 2,
                    battery={"vector_members": 16, "mcshane_anchors": 256})
        assert run_doc(["certify"], doc)[0] in (0, 1, 2)
        past = with_(doc, battery={"vector_members": 17, "mcshane_anchors": 241})
        for argv in (["certify"], ["scenario", "run"]):
            code, err = run_doc(argv, past)
            assert code == 65
            assert ("battery vector_members * target dim * mcshane_anchors is capped at "
                    f"{MAX_BATTERY_PRODUCT}, got {MAX_BATTERY_PRODUCT + 1}") in err

    def test_target_dim(self):
        target = {**TARGET, "family": "lp:2", "kind": "banach", "dim": MAX_TARGET_DIM}
        doc = with_(VECTOR, target=target, function={"coords": [{"kind": "coord", "axis": 0}]
                                                     * MAX_TARGET_DIM})
        assert run_doc(["integrate"], doc)[0] == 0
        target["dim"] += 1
        assert run_doc(["integrate"], doc)[0] == 65

    def test_grid_at_the_cap(self):
        # the cap is on cells per axis; the grid's cell count is not capped
        assert grid_partition(unit_cube(1), 2.0 ** -62).cells_per_axis == 2 ** 62
        assert grid_partition(unit_cube(8), 2.0 ** -62).cells_per_axis == 2 ** 62
        assert grid_partition(unit_cube(8), 2.0 ** -8).cells_per_axis == 256
        for h in (2.0 ** -62 * (1 - 2.0 ** -53), 2.0 ** -63, 5e-324):
            with pytest.raises(CapacityError, match="2\\*\\*62 cells per axis"):
                grid_partition(unit_cube(1), h)


class TestDecoders:
    @pytest.mark.parametrize("value", [True, "1", None, [1.0], float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400, -10 ** 400])
    def test_number_rejects(self, value):
        with pytest.raises(DomainError, match="'x' must be a number"):
            number(value, "'x'")

    @pytest.mark.parametrize("value", [0, -3, 2.5, 1e308, 2 ** 1000])
    def test_number_accepts(self, value):
        assert number(value, "x") == float(value)

    @pytest.mark.parametrize("value", [True, False, 2.5, float("nan"), float("inf"), "2",
                                       10 ** 400, None])
    def test_integer_rejects(self, value):
        with pytest.raises(DomainError, match="'k' must be an integer"):
            integer(value, "'k'")

    def test_integer_takes_an_integral_float(self):
        assert integer(2.0, "k") == 2 and type(integer(2.0, "k")) is int
        assert integer(1e300, "k") == int(1e300)

    def test_integer_bounds(self):
        with pytest.raises(DomainError, match="'k' must be a non-negative integer, got -1"):
            integer(-1, "'k'", lo=0)
        with pytest.raises(DomainError, match="'k' must be at least 1, got 0"):
            integer(0, "'k'", lo=1)
        with pytest.raises(CapacityError, match="'k' is capped at 9, got 10"):
            integer(10, "'k'", cap=9)
        assert integer(9, "'k'", lo=9, cap=9) == 9

    def test_numbers(self):
        assert numbers([1, 2.5], "v", 2) == (1.0, 2.5)
        assert numbers((), "v") == ()
        for value in ([1], [1, 2, 3], [1, True], [1, float("nan")], "12", 5):
            with pytest.raises(DomainError, match="'v' must be two finite numbers"):
                numbers(value, "'v'", 2)
        with pytest.raises(DomainError, match="'v' must be 12 finite numbers"):
            numbers([1], "'v'", 12)

    def test_choice_compares_types(self):
        assert choice(True, (True, False), "b") is True
        for value in (1, 0, "true", None, [True]):
            with pytest.raises(DomainError, match="'b' must be true or false"):
                choice(value, (True, False), "'b'")
        assert choice("lp:2", ("lp:1", "lp:2"), "f") == "lp:2"

    def test_need_and_items(self):
        assert need({"a": 1}, "a") == 1
        with pytest.raises(DomainError, match="input needs a 'b' field"):
            need({"a": 1}, "b")
        with pytest.raises(DomainError, match="spec must be a JSON object, got \\[1\\]"):
            need([1], "a", "spec")
        assert items((1, 2), "xs") == [1, 2]
        with pytest.raises(DomainError, match="'xs' must be a list, got 'ab'"):
            items("ab", "'xs'")

    def test_step_axis_range(self):
        space = unit_cube(1)
        with pytest.raises(DomainError, match="axis 1 out of range"):
            Step(1, 0.5).evaluate(space, np.array([[0.5]]))
        with pytest.raises(DomainError, match="axis -1 out of range"):
            Step(-1, 0.5).evaluate(space, np.array([[0.5]]))


# ---------------------------------------------------------------------------
# mutation property
# ---------------------------------------------------------------------------

SHAPES = {
    "bl": (["bl"], BL),
    "integrate": (["integrate"], INTEGRATE),
    "vector integrate": (["integrate"], VECTOR),
    "certify": (["certify"], CERTIFY),
    "scenario run": (["scenario", "run"], SCENARIO),
}

# values of the wrong type, non-finite values, huge integers and nested lists
JUNK = ["x", "", True, False, None, [], {}, 0, -1, 0.5, 1.5, [1], [[0.5]], {"kind": 1},
        float("nan"), float("inf"), -float("inf"), 10 ** 400, -10 ** 400, 2 ** 70, 1e300]
EXIT_CODES = {0, 1, 2, 64, 65}


def _paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,)
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["swap", "drop", "nest"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "nest":
            parent[path[-1]] = draw(st.sampled_from([[parent[path[-1]]],
                                                     [[parent[path[-1]]], 0.5]]))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


@pytest.mark.parametrize("shape", list(SHAPES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(shape, data):
    argv, doc = SHAPES[shape]
    code, err = run_doc(argv, data.draw(mutated(doc)))
    assert code in EXIT_CODES and "internal error" not in err, err
