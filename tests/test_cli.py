import copy
import dataclasses
import json
import random
import warnings

import jsonschema
import numpy as np
import pytest

from fiberloc import cli, localize, mc
from fiberloc.polymap import PolynomialMap, hyperbola_map


HYPERBOLA = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [1, 1]},
                    {"coeff": [-1.0, 0.0], "exps": [0, 0]}]],
    "base_point": [[1.0, 0.0], [1.0, 0.0]],
}

PARABOLOID = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [0, 1]},
                    {"coeff": [-1.0, 0.0], "exps": [2, 0]}]],
    "base_point": [[0.0, 0.0], [0.0, 0.0]],
}

# f = (z_1 + z_2) / sqrt(2): B grows only across the fiber, by (1 + h/2) a step
ROTATED_AFFINE = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [0.5 ** 0.5, 0.0], "exps": [1, 0]},
                    {"coeff": [0.5 ** 0.5, 0.0], "exps": [0, 1]}]],
    "base_point": [[0.0, 0.0], [0.0, 0.0]],
}

# f = z_2 - z_1^40 from (1, 1)
Z40 = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [0, 1]},
                    {"coeff": [-1.0, 0.0], "exps": [40, 0]}]],
    "base_point": [[1.0, 0.0], [1.0, 0.0]],
}

AFFINE = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [1, 0]}]],
    "base_point": [[0.0, 0.0], [0.0, 0.0]],
}


# f = z_1 - 1.5, polymap.affine_map(2, offset=1.5)
AFFINE_OFFSET = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [1, 0]},
                    {"coeff": [-1.5, 0.0], "exps": [0, 0]}]],
    "base_point": [[1.5, 0.0], [0.0, 0.0]],
}


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


# ---------------------------------------------------------------------------
# Config parsing and validation

def test_map_description_round_trips_through_json():
    F = hyperbola_map()
    G = PolynomialMap.from_json(json.loads(json.dumps(HYPERBOLA)))
    assert (G.n, G.k) == (F.n, F.k)
    for a, b in ((G._exps, F._exps), (G._coeffs, F._coeffs), (G.base_point, F.base_point)):
        assert a.tolist() == b.tolist()


def test_bad_exponent_length_exits_1_with_schema_path(tmp_path, capsys):
    cfg = {"map": json.loads(json.dumps(HYPERBOLA)),
           "seed": 0, "r_grid": [0.5], "N": 10}
    cfg["map"]["components"][0][0]["exps"] = [1, 1, 1]
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 1
    payload = read_stderr_payload(capsys)
    assert "$.map.components[0][0].exps" in payload["message"]


@pytest.mark.parametrize("key, value", [("bogus", 1), ("grid_points", [[[0.0, 0.0]]])],
                         ids=["bogus", "grid_points"])
def test_unknown_config_key_exits_1(tmp_path, capsys, key, value):
    cfg = {"map": HYPERBOLA, "seed": 0, "r_grid": [0.5], "N": 10, key: value}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert key in read_stderr_payload(capsys)["message"]


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = cli.main(["tube", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_non_increasing_r_grid_exits_1(tmp_path, capsys):
    cfg = {"map": HYPERBOLA, "seed": 0, "r_grid": [1.0, 0.5], "N": 10}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_missing_required_keys_exits_1(tmp_path, capsys):
    cfg = {"map": HYPERBOLA, "seed": 0}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_non_finite_config_value_exits_1(tmp_path, capsys):
    cfg = {"k": 1, "r_grid": [1.0], "d_grid": [float("nan")]}
    rc = cli.main(["baseline", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "b")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"
    assert not (tmp_path / "b" / "baseline_table.json").exists()


@pytest.mark.parametrize("override", [["--T", "inf"], ["--seed", "-1"]],
                         ids=["infinite-T", "negative-seed"])
def test_out_of_schema_override_exits_1(tmp_path, capsys, override):
    cfg = {"map": AFFINE, "seed": 5, "T": 0.5, "h": 5e-3}
    rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")] + override)
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"


def test_infinite_step_count_exits_1(tmp_path, capsys):
    # T and h each pass the schema, but T / h overflows to infinity; the
    # mixture and center-law checks must not count steps before run_paths
    # has refused the ratio
    for command in ("localize", "mixture", "centerlaw"):
        cfg = {"map": AFFINE, "seed": 5, "T": 0.5, "h": 5e-3, "n_paths": 4}
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / command), "--T", "1e300", "--h", "1e-300"])
        assert rc == 1
        assert read_stderr_payload(capsys)["error"] == "ValidationError"


@pytest.mark.parametrize("components", [[[]], [HYPERBOLA["components"][0], []]],
                         ids=["only-component", "second-component"])
def test_map_with_empty_component_exits_1(tmp_path, capsys, components):
    cfg = {"map": {**HYPERBOLA, "k": len(components), "components": components},
           "seed": 0, "r_grid": [0.5], "N": 10}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"


def test_override_without_config_is_validated(tmp_path, capsys):
    rc = cli.main(["tilt", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 1
    assert "$.seed" in read_stderr_payload(capsys)["message"]


def test_config_schema_is_a_valid_draft7_schema():
    # the validator is built from the constant schema without checking it
    # against its meta-schema; that check is made here instead
    cls = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    assert cls is jsonschema.Draft7Validator
    cls.check_schema(cli.CONFIG_SCHEMA)
    with pytest.raises(jsonschema.SchemaError):
        cls.check_schema({**cli.CONFIG_SCHEMA, "type": "mapping"})


@pytest.mark.parametrize("cfg", [
    {"seed": -1, "T": 0, "bogus": 1},
    {"map": {**HYPERBOLA, "n": 0}, "r_grid": [-1.0]},
    {"weights": [1.0, 0.0], "N": 0.5},
], ids=["three-violations", "nested", "two-violations"])
def test_schema_error_names_the_best_match(tmp_path, cfg):
    # the message names the violation jsonschema.validate would raise
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    with pytest.raises(cli.ValidationError) as got:
        cli.load_config(write_config(tmp_path, cfg), {})
    assert str(got.value) == (f"config schema violation at {expected.value.json_path}: "
                              f"{expected.value.message}")


# The Draft 7 keywords that cli._conforms implements
CONFORMS_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items",
                     "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
                     "enum", "anyOf"}


def schema_keywords(schema):
    """Every (keyword, value) pair of a schema and of its subschemas."""
    for key, value in schema.items():
        yield key, value
        subs = (value.values() if key == "properties" else [value] if key == "items"
                else value if key == "anyOf" else [])
        for sub in subs:
            yield from schema_keywords(sub)


def test_the_keyword_walk_sees_a_nested_keyword():
    schema = {"anyOf": [{"items": {"pattern": "x"}}], "properties": {"items": {"format": "y"}}}
    assert {k for k, _ in schema_keywords(schema)} == {"anyOf", "items", "pattern",
                                                       "properties", "format"}


def test_conforms_implements_every_keyword_of_the_schema():
    pairs = list(schema_keywords(cli.CONFIG_SCHEMA))
    assert {k for k, _ in pairs} - {"$schema"} <= CONFORMS_KEYWORDS
    assert {v for k, v in pairs if k == "type"} <= set(cli._TYPES)
    assert {v for k, v in pairs if k == "additionalProperties"} <= {False}


# Base configs that hold every CONFIG_SCHEMA key and every functional kind
SCHEMA_BASES = [
    {"map": HYPERBOLA, "seed": 3, "T": 1.5, "h": 2e-3, "n_paths": 8, "N": 100,
     "r_grid": [0.5, 1.0, 2], "weights": [1.0, 2.0], "rank_tol": 1e-12, "distance": 0,
     "record_every": 5, "functionals": ["one", "sq_norm", {"half_space": {}},
                                        {"half_space": {"u": [[1, 0], [0, 0]], "c": -0.5}},
                                        {"bounded_exp": {"u": [[0, 1], [1, 0]], "M": 2}}],
     "n_instances": 2, "k": 1, "n": 2, "d_grid": [0.0, 1.5]},
    {"map": {**PARABOLOID, "k": 1.0}, "seed": 2**64 - 1, "T": 1, "h": 0.5, "N": 1.0,
     "r_grid": [], "functionals": [{"bounded_exp": {"u": [], "M": 1e-300}}]},
]
MUTATION_ATOMS = [float("nan"), float("inf"), -float("inf"), True, False, 1.0, 1.5, 2**64,
                  2**64 - 1, 0, -1, 0.0, -0.0, 1e-300, "one", "sq_norm", "x", None, [], {},
                  [1.0, 0.0], [[0.0, 0.0]], {"half_space": {}}, {"u": []}]


def schema_nodes(x):
    """(container, key) for every node below x."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in list(items):
        yield x, key
        yield from schema_nodes(value)


def mutant(rng):
    """A base config with one to three nodes replaced by an atom, wrapped in
    or unwrapped from a list, dropped, duplicated, or given a stray key."""
    holder = [copy.deepcopy(rng.choice(SCHEMA_BASES))]
    for _ in range(rng.randint(1, 3)):
        box, key = rng.choice(list(schema_nodes(holder)))
        value, op = box[key], rng.randrange(6)
        if op == 0:
            box[key] = copy.deepcopy(rng.choice(MUTATION_ATOMS))
        elif op == 1:
            box[key] = [value]
        elif op == 2 and isinstance(value, (dict, list)) and value:
            box[key] = rng.choice(list(value.values() if isinstance(value, dict) else value))
        elif op == 3 and box is not holder:
            del box[key]
        elif op == 4 and isinstance(value, list) and value:
            value.append(copy.deepcopy(value[-1]))
        elif op == 5 and isinstance(value, dict):
            value[rng.choice(["bogus", "u", "c", "M", "seed", "exps", "half_space"])] = \
                copy.deepcopy(rng.choice(MUTATION_ATOMS))
    return holder[0]


def test_conforms_agrees_with_jsonschema_on_mutated_configs():
    rng = random.Random(26)
    validator = jsonschema.Draft7Validator(cli.CONFIG_SCHEMA)
    verdicts, disagree = [], []
    for _ in range(6000):
        cfg = mutant(rng)
        ours = cli._conforms(cfg, cli.CONFIG_SCHEMA)
        verdicts.append(ours)
        if ours != validator.is_valid(cfg):
            disagree.append(cfg)
    assert disagree == []
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_config_hash_is_canonical():
    a = cli.config_hash({"b": 1, "a": [1, 2]})
    b = cli.config_hash({"a": [1, 2], "b": 1})
    assert a == b
    assert a != cli.config_hash({"a": [1, 2], "b": 2})


# ---------------------------------------------------------------------------
# localize

def test_localize_outputs(tmp_path):
    cfg = {"map": AFFINE, "seed": 5, "T": 0.5, "h": 5e-3, "n_paths": 2}
    rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    csv0 = (tmp_path / "out" / "path_0000.csv").read_text().splitlines()
    assert csv0[0].startswith("# config_hash=")
    assert csv0[1].startswith("# seed=5")
    assert csv0[2] == "t,fiber_residual,lambda_min_B,lambda_k1_B,trace_B"
    assert len(csv0) > 3
    summary = json.loads((tmp_path / "out" / "localize_summary.json").read_text())
    assert summary["n_aborted"] == 0 and summary["aborts"] == []
    assert summary["invariants"]["max_post_projection_residual"] <= 1e-10
    assert summary["invariants"]["trace_bound_ok"] is True
    assert (tmp_path / "out" / "path_0001.csv").exists()


def test_localize_long_horizon_writes_finite_records(tmp_path):
    # at T = 80 the condition number of B is about e^40; every recorded
    # value stays a number and the trace bound is checked on all of them
    cfg = {"map": ROTATED_AFFINE, "seed": 3, "T": 80.0, "h": 0.01, "n_paths": 2}
    rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    for i in range(2):
        text = (tmp_path / "out" / f"path_{i:04d}.csv").read_text()
        assert "nan" not in text.lower()
    summary = json.loads((tmp_path / "out" / "localize_summary.json").read_text())
    assert summary["n_aborted"] == 0
    assert summary["invariants"]["trace_bound_ok"] is True


def test_localize_past_the_horizon_cap_exits_1(tmp_path, capsys):
    # T / n = 1000: B could reach e^1000, so the run is refused before it
    # starts, with no overflow on the way
    cfg = {"map": ROTATED_AFFINE, "seed": 3, "T": 2000.0, "h": 1.0, "n_paths": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"
    assert list((tmp_path / "out").iterdir()) == []


def test_localize_summary_lists_each_abort(tmp_path):
    # f = z_2 - z_1^40 at h = 10: 6 of the 32 paths fail to project
    cfg = {"map": Z40, "seed": 3, "T": 200.0, "h": 10.0, "n_paths": 32}
    rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "localize_summary.json").read_text())
    aborts = summary["aborts"]
    assert summary["n_aborted"] == len(aborts) == 6
    assert [a["path"] for a in aborts] == sorted({a["path"] for a in aborts})
    for a in aborts:
        assert set(a) == {"path", "t", "reason"}
        assert a["reason"] == "projection failure"
        assert 0 <= a["t"] < 200.0


def test_localize_cli_overrides_config(tmp_path):
    cfg = {"map": AFFINE, "seed": 5, "T": 9.0, "h": 5e-3, "n_paths": 1}
    rc = cli.main(["localize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o"), "--T", "0.2", "--seed", "7"])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "localize_summary.json").read_text())
    assert summary["T"] == pytest.approx(0.2)
    assert summary["seed"] == 7


# ---------------------------------------------------------------------------
# tube / baseline

def test_tube_results_schema_and_determinism(tmp_path):
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [0.6, 1.0], "N": 500}
    path = write_config(tmp_path, cfg)
    rc = cli.main(["tube", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    doc = json.loads((tmp_path / "a" / "tube_results.json").read_text())
    assert doc["experiment"] == "tube"
    assert doc["seed"] == 3
    assert isinstance(doc["optimizer_failures"], int)
    for row in doc["rows"]:
        assert set(row) == {"r", "p_hat", "stderr", "baseline", "margin", "verdict"}
        assert row["verdict"] in ("pass", "fail")
    # byte-identical rerun
    rc = cli.main(["tube", "--config", path, "--out", str(tmp_path / "b")])
    assert rc == 0
    assert ((tmp_path / "a" / "tube_results.json").read_bytes()
            == (tmp_path / "b" / "tube_results.json").read_bytes())
    assert ((tmp_path / "a" / "tube_plot.dat").read_bytes()
            == (tmp_path / "b" / "tube_plot.dat").read_bytes())


def test_tube_results_count_the_decided_samples(tmp_path):
    # the counts of the library's results, at document level; the distance
    # bounds only where the distance is derived
    from fiberloc import mc
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [0.6, 1.0], "N": 500}
    runs = {"derived": cfg, "given": {**cfg, "distance": 1.5},
            "circled": {**cfg, "weights": [1.0, 2.0]}}
    for name, c in runs.items():
        assert cli.main(["tube", "--config", write_config(tmp_path, c, f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / name / "tube_results.json").read_text())
        est = mc.estimate_tube_grid(hyperbola_map(), c["r_grid"], 500, 3,
                                    norm_weights=c.get("weights"))
        assert (doc["certified_misses"], doc["decided_early"]) \
            == (est.certified_misses, est.decided_early)
        assert doc["certified_misses"] + doc["decided_early"] > 0
        if name == "derived":
            lo, hi = doc["distance_bounds"]
            assert lo <= hi == doc["distance"] and doc["optimality_residual"] <= 1e-6
        else:
            assert doc["distance_bounds"] is None and doc["optimality_residual"] is None


def test_tube_circled_norm_rows(tmp_path):
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [0.8], "N": 300,
           "weights": [1.0, 2.0]}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "w")])
    assert rc == 0
    doc = json.loads((tmp_path / "w" / "tube_results.json").read_text())
    assert doc["rows"][0]["baseline"] is None
    assert doc["rows"][0]["verdict"] == "n/a"


def test_tube_below_the_baseline_exits_3(tmp_path):
    # {z_1 = 1.5} against the baseline at distance 0, as in test_mc
    cfg = {"map": AFFINE_OFFSET, "seed": 3, "r_grid": [1.0, 2.0], "N": 2000,
           "distance": 0.0}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "f")])
    assert rc == 3
    doc = json.loads((tmp_path / "f" / "tube_results.json").read_text())
    assert [row["verdict"] for row in doc["rows"]] == ["fail", "fail"]


def test_tube_with_weights_and_distance_exits_1(tmp_path, capsys):
    # the circled norm has no baseline, so a distance would go unused
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [0.8], "N": 50,
           "weights": [1.0, 2.0], "distance": 1.5}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "wd")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"
    assert not (tmp_path / "wd" / "tube_results.json").exists()


@pytest.mark.parametrize("weights", [None, [1.0, 2.0]])
def test_tube_empty_r_grid_exits_1(tmp_path, capsys, weights):
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [], "N": 50}
    if weights is not None:
        cfg["weights"] = weights
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "empty radius grid" in read_stderr_payload(capsys)["message"]
    assert not (tmp_path / "e" / "tube_results.json").exists()


def test_tube_circled_grid_makes_one_distance_pass(tmp_path, monkeypatch):
    from fiberloc import mc
    calls = []
    original = mc.fiber_distances

    def counting(F, points, seed, **kwargs):
        calls.append(len(points))
        return original(F, points, seed, **kwargs)

    monkeypatch.setattr(mc, "fiber_distances", counting)
    cfg = {"map": HYPERBOLA, "seed": 3, "r_grid": [0.5, 0.8, 1.0], "N": 100,
           "weights": [1.0, 2.0]}
    rc = cli.main(["tube", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "g")])
    assert rc == 0
    assert calls == [100]
    doc = json.loads((tmp_path / "g" / "tube_results.json").read_text())
    p = [row["p_hat"] for row in doc["rows"]]
    assert [row["r"] for row in doc["rows"]] == [0.5, 0.8, 1.0]
    assert p == sorted(p)


def test_baseline_table_matches_library(tmp_path):
    from fiberloc import affine_tube_measure
    cfg = {"k": 1, "n": 2, "r_grid": [0.5, 1.0], "d_grid": [0.0, 1.0]}
    rc = cli.main(["baseline", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "baseline_table.json").read_text())
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["measure"] == pytest.approx(
            affine_tube_measure(2, 1, row["d"], row["r"]))


def test_baseline_past_the_series_bound_exits_1(tmp_path, capsys):
    cfg = {"k": 1, "r_grid": [45.0], "d_grid": [40.0]}
    rc = cli.main(["baseline", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "b")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "DomainError"
    assert not (tmp_path / "b" / "baseline_table.json").exists()


# ---------------------------------------------------------------------------
# mixture / centerlaw / tilt / selftest

def test_mixture_report(tmp_path):
    cfg = {"map": PARABOLOID, "seed": 1, "T": 1.0, "h": 5e-3, "n_paths": 40,
           "functionals": ["one", "sq_norm"]}
    rc = cli.main(["mixture", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "mixture_report.json").read_text())
    assert doc["valid"] is True
    labels = [r["functional"] for r in doc["rows"]]
    assert labels == ["one", "sq_norm"]
    assert doc["rows"][0]["mixture_mean"] == pytest.approx(1.0)


@pytest.mark.parametrize("m", [ROTATED_AFFINE, PARABOLOID], ids=["rotated_affine", "paraboloid"])
def test_mixture_holds_at_a_long_horizon(tmp_path, m):
    # at T = 80, B reaches e^40: read through B, the covariance's
    # eigenvalue 2 was lost, and the check failed on an exact identity or
    # wrote NaN
    cfg = {"map": m, "seed": 7, "T": 80.0, "h": 0.05, "n_paths": 200}
    rc = cli.main(["mixture", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    text = (tmp_path / "mixture_report.json").read_text()
    assert rc == 0
    assert "NaN" not in text and json.loads(text)["valid"] is True


@pytest.mark.parametrize("n, T, h, n_paths", [(2, 5.0, 0.1, 200), (2, 20.0, 0.2, 200),
                                               (3, 5.0, 0.1, 20)])
def test_mixture_holds_on_a_rounding_level_spread(tmp_path, n, T, h, n_paths):
    # on f = z_1 every path gives the half-space mass Phi(-0.5) up to
    # rounding: a stderr of about 4e-18 made a z of -127 from a difference
    # of 5e-16 and failed an exact identity
    F = {"n": n, "k": 1, "components": [[{"coeff": [1.0, 0.0], "exps": [1] + [0] * (n - 1)}]],
         "base_point": [[0.0, 0.0]] * n}
    cfg = {"map": F, "seed": 6, "T": T, "h": h, "n_paths": n_paths,
           "functionals": [{"half_space": {"c": 0.5}}]}
    rc = cli.main(["mixture", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    row, = json.loads((tmp_path / "mixture_report.json").read_text())["rows"]
    assert row["stderr"] < 1e-16 and row["mixture_mean"] != row["reference"]
    assert rc == 0 and abs(row["z_score"]) <= 3


def test_mixture_bounded_exp_past_the_exponent_range(tmp_path):
    # s ~ 40 on the first axis puts e^{m + s^2/2} past the float range
    cfg = {"map": PARABOLOID, "seed": 1, "T": 0.02, "h": 2e-3, "n_paths": 20,
           "functionals": [{"bounded_exp": {"u": [[40, 0], [0, 0]], "M": 10}}]}
    rc = cli.main(["mixture", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc in (cli.EXIT_OK, cli.EXIT_VERDICT)
    row, = json.loads((tmp_path / "mixture_report.json").read_text())["rows"]
    assert 0.0 <= row["mixture_mean"] <= 10.0
    assert row["reference"] == pytest.approx(4.870128707990279, rel=1e-15)


@pytest.mark.parametrize("spec", [
    {"bounded_exp": {"u": [[1, 0], [0, 0]]}},
    {"half_space": 3},
    {"bounded_exp": {"u": [[1, 0], [0, 0]], "M": "x"}},
    {"bounded_exp": {"u": [[1], [0]], "M": 2}},
], ids=["no_cap", "half_space_not_an_object", "cap_not_a_number", "short_coordinate"])
def test_mixture_refuses_a_malformed_functional(tmp_path, capsys, spec):
    cfg = {"map": PARABOLOID, "seed": 1, "T": 0.02, "h": 2e-3, "n_paths": 5,
           "functionals": [spec]}
    rc = cli.main(["mixture", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "m")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"
    assert not (tmp_path / "m" / "mixture_report.json").exists()


def test_centerlaw_outputs(tmp_path):
    cfg = {"map": AFFINE, "seed": 2, "T": 1.0, "h": 5e-3, "n_paths": 20}
    rc = cli.main(["centerlaw", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "centerlaw_samples.csv").read_text().splitlines()
    assert lines[2] == "re_a0,im_a0,re_a1,im_a1"
    assert len(lines) == 3 + 20
    doc = json.loads((tmp_path / "centerlaw_moments.json").read_text())
    assert doc["n_samples"] == 20
    # the affine fiber pins the first coordinate at zero
    assert doc["coord_abs_sq"][0] == 0.0


# values whose text a CSV row must keep: nan, both infinities, a negative
# zero, subnormals, and values that need all 17 significant digits
AWKWARD = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.5e-310,
                    0.1 + 0.2, 1 / 3, -123456789.12345678, 1e300])


# the records a path CSV holds after t, in column order
CSV_RECORDS = ("record_pre_residual", "record_lambda_min", "record_lambda_k1", "record_trace")


def per_value_row(values):
    """A CSV row as one formatted string per value, joined: the reference."""
    return ",".join(f"{x:.17g}" for x in values)


def test_localize_rows_keep_every_value(tmp_path, monkeypatch):
    run_paths, made = localize.run_paths, []

    def awkward(*args, **kwargs):
        res = run_paths(*args, **kwargs)
        R, P = res.record_trace.shape
        res.record_t = np.resize(AWKWARD, R)
        for s, name in enumerate(CSV_RECORDS, start=1):
            setattr(res, name, np.resize(np.roll(AWKWARD, s), (P, R)).T.copy())
        made.append(res)
        return res

    monkeypatch.setattr(localize, "run_paths", awkward)
    cfg = {"map": AFFINE, "seed": 5, "T": 0.06, "h": 5e-3, "n_paths": 3}
    with np.errstate(all="ignore"):
        cli.main(["localize", "--config", write_config(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    res, = made
    for i in range(3):
        text = (tmp_path / "out" / f"path_{i:04d}.csv").read_bytes()
        rows = [per_value_row([t] + [getattr(res, name)[j, i] for name in CSV_RECORDS])
                for j, t in enumerate(res.record_t)]
        assert text.decode().splitlines()[3:] == rows
        assert all(s in text for s in (b"nan", b"-inf", b"-0,", b"e-324", b"e-310"))


def test_centerlaw_rows_keep_every_value(tmp_path, monkeypatch):
    center_law_sample, made = mc.center_law_sample, []

    def awkward(*args):
        res = center_law_sample(*args)
        z = np.resize(AWKWARD, (2,) + res.samples.shape)
        samples = np.empty(res.samples.shape, dtype=complex)
        samples.real, samples.imag = z[0], np.roll(z[1], 3)
        made.append(samples)
        return dataclasses.replace(res, samples=samples)

    monkeypatch.setattr(mc, "center_law_sample", awkward)
    cfg = {"map": AFFINE, "seed": 2, "T": 0.2, "h": 5e-3, "n_paths": 7}
    rc = cli.main(["centerlaw", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    samples, = made
    rows = [per_value_row([v for z in row for v in (z.real, z.imag)]) for row in samples]
    text = (tmp_path / "centerlaw_samples.csv").read_bytes()
    assert text.decode().splitlines()[3:] == rows
    assert all(s in text for s in (b"nan", b"-inf", b"-0,", b"e-324", b"e-310"))


def test_centerlaw_with_one_path_exits_1(tmp_path, capsys):
    # one path has no sample standard error; NaN is not valid JSON
    cfg = {"map": AFFINE, "seed": 2, "T": 0.1, "h": 5e-3, "n_paths": 1}
    rc = cli.main(["centerlaw", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "c")])
    assert rc == 1
    assert read_stderr_payload(capsys)["error"] == "ValidationError"
    assert not (tmp_path / "c" / "centerlaw_moments.json").exists()


def test_tilt_sweep(tmp_path):
    cfg = {"seed": 4, "n_instances": 10}
    rc = cli.main(["tilt", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "tilt_sweep.json").read_text())
    assert doc["all_hold"] is True
    assert len(doc["rows"]) == 10
    for row in doc["rows"]:
        assert row["lhs"] >= row["rhs"] - 1e-6


def test_selftest(tmp_path):
    rc = cli.main(["selftest", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "selftest.json").read_text())
    assert doc["all_ok"] is True


def test_unknown_command_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1
