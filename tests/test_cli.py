import argparse
import concurrent.futures
import hashlib
import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import foxhom
from foxhom import cli, covers, datasets, fox, polygcd, presentations, verify
from foxhom.cli import main
from foxhom.laurent import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- abelianize -----------------------------------------------------------


def test_abelianize_table(capsys):
    code, out, _ = run(capsys, "abelianize", "n-final")
    assert code == 0
    assert "rank 3, torsion [2]" in out


def test_abelianize_bundled_names(capsys):
    code, out, _ = run(capsys, "abelianize", "nb")
    assert code == 0 and "rank 3, torsion []" in out
    code, out, _ = run(capsys, "abelianize", "rst")
    assert code == 0 and "rank 2, torsion []" in out


def test_abelianize_json_embeds_digest(capsys):
    code, out, _ = run(capsys, "abelianize", "n-final", "--format", "json")
    assert code == 0
    report = json.loads(out)
    entry = report["inputs"]["presentation"]
    assert entry["sha256"] == datasets.file_digest(entry["path"])
    assert report["results"][0]["rank"] == 3


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(capsys, "abelianize", "no-such-thing")
    assert code == 2
    assert "no such input" in err


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "generators": ["a"], "relators": ["a^x"]}))
    code, _, err = run(capsys, "abelianize", str(bad))
    assert code == 2
    assert "token 0" in err


def _bundled(name, **changes):
    data = json.loads(datasets.data_path(name).read_text())
    data.update(changes)
    return data


def _float_coefficient_delta():
    data = _bundled("delta_L")
    data["terms"][0]["coef"] = 1.5
    return data


def _float_degree_job():
    data = _bundled("cover-job")
    data["degrees"]["s"] = 1.7
    return data


def _long_exponent_delta():
    data = _bundled("delta_L")
    data["terms"][0]["exp"] = data["terms"][0]["exp"] + [0]
    return data


def _duplicate_exponent_delta():
    data = _bundled("delta_L")
    data["terms"].append({"exp": data["terms"][0]["exp"], "coef": 5})
    return data


def _repeated_variable_map():
    data = _bundled("map-free-abelian")
    data["vars"][1] = data["vars"][0]
    return data


def _map_image(gen, drop=None, **entry):
    data = _bundled("map-free-abelian")
    data["images"][gen].update(entry)
    data["images"].pop(drop, None)
    return data


def _duplicate_generator_presentation():
    data = _bundled("n-final")
    data["generators"] = data["generators"] + ["m"]
    return data


@pytest.mark.parametrize("argv, data", (
    (("abelianize", "{}"), {"name": "p", "generators": ["a"]}),
    (("branched", "{}", "--n", "5"), {"vars": ["x", "y"], "terms": "x - 1"}),
    (("fill", "{}"), [{"presentation": "n-final"}]),
    (("cover", "{}"), {"presentation": "n-final", "n": 3, "fill": ["m"]}),
    (("abelianize", "{}"), {"name": "p", "generators": "ab", "relators": []}),
    (("branched", "{}", "--n", "5"), _float_coefficient_delta()),
    (("cover", "{}"), _float_degree_job()),
    (("cover", "{}"), _bundled("cover-job", n=2.5)),
    (("abelianize", "{}"), "generators: m, s, t"),
    (("branched", "{}", "--n", "5"), _long_exponent_delta()),
    (("abelianize", "{}"), _duplicate_generator_presentation()),
    (("branched", "{}", "--n", "5"), _duplicate_exponent_delta()),
    (("branched", "{}", "--n", "5", "--k", "all"), _bundled("delta_L", vars=["x", "x"])),
    (("alexander", "n-final", "--map", "{}"), _repeated_variable_map()),
    (("alexander", "n-final", "--map", "{}"), _map_image("s", sign=2)),
    (("alexander", "n-final", "--map", "{}"), _map_image("t", exp=[0, 1])),
    # malformed and lacking the image of u: the file's own fault wins
    (("alexander", "n-final", "--map", "{}"), _map_image("s", sign=0, drop="u")),
    # int() would read these exponents as a^10 and a^3
    (("abelianize", "{}"), {"name": "p", "generators": ["a"], "relators": ["a^1_0"]}),
    (("abelianize", "{}"), {"name": "p", "generators": ["a"], "relators": ["a^\u0663"]}),
), ids=(
    "no-relators", "text-terms", "top-level-list", "no-degrees",
    "string-generators", "float-coefficient", "float-degree", "float-n",
    "not-json", "long-exponent", "duplicate-generator", "duplicate-exponent",
    "repeated-variable-poly", "repeated-variable-map", "map-bad-sign",
    "map-short-exponent", "map-bad-sign-and-lacking", "underscore-exponent",
    "arabic-indic-exponent",
))
def test_malformed_input_is_exit_2(capsys, tmp_path, argv, data):
    # not JSON, valid JSON of the wrong shape, a mistyped field that int()
    # or tuple() would otherwise coerce, or a value the decoder rejects;
    # the file goes where argv says "{}"
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2 and out == ""
    assert f"malformed input {path}" in err


@pytest.mark.parametrize("presentation, drop, missing", (
    ("nb", None, "generators 'f4', 'g1', 'g2'"),
    ("n-final", "u", "generator 'u'"),
), ids=("nb", "n-final-without-u"))
def test_map_of_another_presentation_is_a_mismatch(
    capsys, tmp_path, presentation, drop, missing
):
    # a well-formed map that lacks some generators' images is reported as
    # not fitting the presentation, not as a malformed file
    map_path = datasets.data_path("map-free-abelian")
    if drop:
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(_map_image("m", drop=drop)))
    code, out, err = run(capsys, "alexander", presentation, "--map", str(map_path))
    assert code == 2 and out == ""
    pres_path = datasets.data_path(presentation)
    assert err == (
        f"error: map {map_path} has no image for {missing} "
        f"of presentation {presentation} ({pres_path})\n"
    )


def test_malformed_job_presentation_is_named_once(capsys, tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(_duplicate_generator_presentation()))
    job = tmp_path / "job.json"
    job.write_text(json.dumps(_bundled("cover-job", presentation=str(pres))))
    code, out, err = run(capsys, "cover", str(job), "--n", "3")
    assert code == 2 and out == ""
    assert err.count("malformed input") == 1
    assert f"malformed input {pres}" in err and str(job) not in err


def test_job_degree_for_a_generator_the_presentation_lacks_is_exit_2(capsys, tmp_path):
    bundled = _bundled("cover-job")
    job = tmp_path / "job.json"
    job.write_text(json.dumps(_bundled(
        "cover-job",
        presentation=str(datasets.data_path("n-final")),
        degrees={**bundled["degrees"], "typo": 7},
    )))
    code, out, err = run(capsys, "cover", str(job), "--n", "3")
    assert code == 2 and out == ""
    assert f"malformed input {job}" in err and "['typo']" in err
    # the bundled job grades exactly its presentation's generators
    loaded = datasets.standard_cover_job()
    assert set(loaded["degrees"]) == set(loaded["presentation"].generators)


def test_sakuma_job_without_its_generators_is_exit_2(capsys, monkeypatch, tmp_path):
    # the sakuma columns name m, s and t, checked once before any cover is built
    built = []

    def build(*args):
        built.append(args)
        return covers.reidemeister_schreier(*args)

    monkeypatch.setattr(cli, "reidemeister_schreier", build)
    pres = tmp_path / "torus.json"
    pres.write_text(json.dumps(
        {"name": "torus", "generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]}))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"presentation": str(pres), "degrees": {"a": 1, "b": 0}}))
    code, out, err = run(capsys, "sakuma", str(job), "--n", "3..9")
    assert code == 2 and out == ""
    assert err == "error: no base generator named 'm'\n"
    assert built == []


# ---- alexander --------------------------------------------------------------


@pytest.mark.parametrize("flags, minor_lines", (
    ((), []),
    (("--minors",), ["minor[a] = 0", "minor[b] = 0", ""]),
))
def test_alexander_prints_zero_when_every_minor_vanishes(capsys, tmp_path, flags, minor_lines):
    # an empty relator has all Fox derivatives zero, so zero is the gcd of
    # the minors; the body is the one earlier releases printed
    pres = tmp_path / "degenerate.json"
    pres.write_text(json.dumps({"name": "degenerate", "generators": ["a", "b"], "relators": [""]}))
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({
        "vars": ["x", "y"],
        "images": {"a": {"sign": 1, "exp": [1, 0]}, "b": {"sign": 1, "exp": [0, 1]}},
    }))
    code, out, _ = run(capsys, "alexander", str(pres), "--map", str(map_file), *flags)
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["   r1", "a  0", "b  0", "", *minor_lines, "alexander polynomial = 0"]
    code, out, _ = run(
        capsys, "alexander", str(pres), "--map", str(map_file), *flags, "--format", "json"
    )
    [result] = json.loads(out)["results"]
    assert code == 0 and result["alexander_polynomial"] == "0"
    assert result.get("minors") == ({"a": "0", "b": "0"} if flags else None)


def test_alexander_with_minors(capsys):
    code, out, _ = run(
        capsys, "alexander", "n-final", "--map", "map-free-abelian", "--minors"
    )
    assert code == 0
    assert "minor[u] = 0" in out
    assert "alexander polynomial =" in out


def test_alexander_json(capsys):
    code, out, _ = run(
        capsys, "alexander", "n-final", "--map", "map-infinite-cyclic",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    poly = report["results"][0]["alexander_polynomial"]
    assert poly == "2*x^7 - 2*x^6 - 6*x^5 + 6*x^4 + 6*x^3 - 6*x^2 - 2*x + 2"


@pytest.mark.parametrize("map_name", ("map-free-abelian", "map-infinite-cyclic"))
def test_alexander_branches_agree(capsys, map_name):
    # without --minors the gcd is taken over codim_one_minors, with it over
    # minor_polys; both must print the same polynomial
    lines = []
    for extra in ((), ("--minors",)):
        code, out, _ = run(capsys, "alexander", "n-final", "--map", map_name, *extra)
        assert code == 0
        lines.append(out.splitlines()[-1])
    assert lines[0].startswith("alexander polynomial = ")
    assert lines[0] == lines[1]


def test_alexander_free_presentation(capsys, tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(
        json.dumps(
            {
                "vars": ["x", "y"],
                "images": {
                    "r": {"sign": 1, "exp": [-1, -1]},
                    "s": {"sign": 1, "exp": [1, 0]},
                    "t": {"sign": 1, "exp": [0, 1]},
                },
            }
        )
    )
    code, out, _ = run(capsys, "alexander", "rst", "--map", str(map_file))
    assert code == 0
    assert "alexander polynomial = 1" in out


def test_alexander_free_presentation_keeps_the_map_ring(capsys, tmp_path):
    pres = tmp_path / "free.json"
    pres.write_text(json.dumps({"name": "free", "generators": ["a", "b"], "relators": []}))
    map_file = tmp_path / "map.json"
    map_file.write_text(
        json.dumps(
            {
                "vars": ["x", "y"],
                "images": {"a": {"sign": 1, "exp": [1, 0]}, "b": {"sign": 1, "exp": [0, 1]}},
            }
        )
    )
    code, out, _ = run(
        capsys, "alexander", str(pres), "--map", str(map_file), "--format", "json"
    )
    assert code == 0
    [result] = json.loads(out)["results"]
    assert result["matrix"]["vars"] == ["x", "y"]
    assert result["matrix"]["entries"] == [[], []]


def test_alexander_minors_shape_guard(capsys, tmp_path):
    pres = tmp_path / "free.json"
    pres.write_text(json.dumps({"name": "free", "generators": ["a", "b"], "relators": []}))
    map_file = tmp_path / "map.json"
    map_file.write_text(
        json.dumps(
            {
                "vars": ["x"],
                "images": {"a": {"sign": 1, "exp": [1]}, "b": {"sign": 1, "exp": [1]}},
            }
        )
    )
    code, _, err = run(
        capsys, "alexander", str(pres), "--map", str(map_file), "--minors"
    )
    assert code == 2
    assert "deficiency-one" in err


@pytest.mark.parametrize("flags", ((), ("--minors",)))
def test_alexander_refuses_a_map_that_keeps_a_relator(capsys, tmp_path, flags):
    # a -> x, b -> x sends the relator a b to x^2: no map of the group
    pres = tmp_path / "ab.json"
    pres.write_text(json.dumps({"name": "ab", "generators": ["a", "b"], "relators": ["a b"]}))
    map_file = tmp_path / "map.json"
    images = {g: {"sign": 1, "exp": [1]} for g in "ab"}
    map_file.write_text(json.dumps({"vars": ["x"], "images": images}))
    code, out, err = run(capsys, "alexander", str(pres), "--map", str(map_file), *flags)
    assert code == 2 and out == ""
    assert "the grid is not the Fox matrix of the map" in err


@pytest.mark.parametrize("flags", ((), ("--minors",)))
def test_alexander_builds_matrix_and_minors_once(capsys, monkeypatch, flags):
    calls = {"alexander_matrix": 0, "determinant": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "alexander_matrix")
    counted(fox, "alexander_matrix")
    counted(fox, "determinant")
    code, _, _ = run(capsys, "alexander", "n-final", "--map", "map-free-abelian", *flags)
    assert code == 0
    # one Bareiss determinant; the other five minors are exact divisions
    assert calls == {"alexander_matrix": 1, "determinant": 1}


def test_alexander_minor_count_is_capped_before_any_determinant(
    capsys, monkeypatch, tmp_path
):
    gens = [f"a{i}" for i in range(24)]
    rels = [f"a{i} a{i + 12} a{i}^-1 a{i + 1}^-1" for i in range(12)]
    pres = tmp_path / "wide.json"
    pres.write_text(json.dumps({"name": "wide", "generators": gens, "relators": rels}))
    map_file = tmp_path / "map.json"
    images = {g: {"sign": 1, "exp": [1]} for g in gens}
    map_file.write_text(json.dumps({"vars": ["x"], "images": images}))

    def no_determinant(*args):
        raise AssertionError("a determinant ran")

    monkeypatch.setattr(fox, "determinant", no_determinant)
    code, _, err = run(capsys, "alexander", str(pres), "--map", str(map_file))
    assert code == 2
    assert "2704156 codimension-one minors exceed 10000" in err
    # a deficiency-one grid takes one determinant, but its six minors still
    # count against the cap before it
    monkeypatch.setattr(fox, "MAX_MINORS", 5)
    code, _, err = run(
        capsys, "alexander", "n-final", "--map", "map-free-abelian", "--minors"
    )
    assert code == 2
    assert "6 codimension-one minors exceed 5" in err


# ---- cover / fill / sakuma ---------------------------------------------------


def test_cover_levels(capsys):
    code, out, _ = run(capsys, "cover", "cover-job", "--n", "1,3", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["n"] for r in results] == [1, 3]
    assert all(r["rank"] == 3 for r in results)
    assert results[0]["torsion"] == [2]


def test_fill_uses_job_level(capsys):
    code, out, _ = run(capsys, "fill", "cover-job", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0]["n"] == 3
    assert results[0]["rank"] == 0


def test_sakuma_report(capsys):
    code, out, _ = run(capsys, "sakuma", "cover-job", "--n", "3", "--format", "json")
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["sakuma"]["rank"] == 0
    assert entry["hn"]["rank"] == 0
    assert entry["order_ratio"] == 8


@pytest.mark.parametrize("argv", (
    ("cover", "cover-job", "--n", "1..5"),
    ("fill", "cover-job", "--n", "1..5"),
    ("sakuma", "cover-job", "--n", "1..5"),
    ("rhs-sweep", "--n", "3..9"),
    ("verify-paper", "--item", "rhs"),
))
def test_cover_commands_reduce_their_base_once(capsys, monkeypatch, argv):
    calls = []

    def counted(p):
        calls.append(p.name)
        return presentations.eliminate_conjugates(p)

    monkeypatch.setattr(covers, "eliminate_conjugates", counted)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert calls == ["n-final"]
    calls.clear()
    # and the body is that of the unreduced job, kept as reduce_job keeps one
    monkeypatch.setattr(cli, "reduce_job", lambda job, top: {**job, "words": {}})
    monkeypatch.setattr(verify, "reduce_job", lambda job, top: {**job, "words": {}})
    assert run(capsys, *argv, "--format", "json") == (0, out, "")
    assert calls == []


@pytest.mark.parametrize("chain", ("forward", "reversed"))
def test_conjugate_chain_job_is_reduced_within_its_bound(capsys, tmp_path, chain):
    # x_(i+1) = x_i a x_i^-1 doubles the relators at every elimination, and
    # x_i = x_(i+1) a x_(i+1)^-1 the word of x_0; the bound stops either
    # after a few steps, and the cover is that of the unreduced chain
    k = 40
    gens = ["a", *(f"x{i}" for i in range(k + 1))]
    if chain == "forward":
        relators = [f"x{i + 1}^-1 x{i} a x{i}^-1" for i in range(k)] + [f"x{k} a x{k}^-1 a^-1"]
    else:
        relators = [f"x{i}^-1 x{i + 1} a x{i + 1}^-1" for i in range(k)]
    (tmp_path / "chain.json").write_text(
        json.dumps({"name": "chain", "generators": gens, "relators": relators}))
    path = tmp_path / "chain-job.json"
    path.write_text(json.dumps({"presentation": "chain.json", "degrees": dict.fromkeys(gens, 1)}))
    code, out, err = run(capsys, "cover", str(path), "--n", "3", "--format", "json")
    assert (code, err) == (0, "")
    p = datasets.load_presentation(tmp_path / "chain.json")
    group = covers.h1_cover(covers.reidemeister_schreier(
        p, covers.CyclicQuotientMap(p, 3, dict.fromkeys(gens, 1))))
    assert json.loads(out)["results"] == [
        {"n": 3, "rank": group.rank, "torsion": list(group.torsion)}]


@pytest.mark.parametrize("mode", ("cover", "fill"))
def test_job_the_reduction_would_take_past_the_letter_cap_keeps_its_base(
        capsys, monkeypatch, tmp_path, mode):
    # c = b a b^-1 doubles (c a)^50000: 3 * 100 004 letters fit the cap at
    # n = 3, the reduced 3 * 200 004 would not, so the job keeps its base;
    # fill carries the long word in its slope and cover in its relators
    gens = ["a", "b", "c"]
    long = "c a " * 50000
    relators = ["c^-1 b a b^-1"] + ([long] if mode == "cover" else [])
    (tmp_path / "long.json").write_text(
        json.dumps({"name": "long", "generators": gens, "relators": relators}))
    path = tmp_path / "long-job.json"
    path.write_text(json.dumps({"presentation": "long.json", "degrees": {"a": 0, "b": 1, "c": 0},
                                "fill": [long + "b^3"]}))
    code, out, err = run(capsys, mode, str(path), "--n", "3", "--format", "json")
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "reduce_job", lambda job, top: {**job, "words": {}})
    assert run(capsys, mode, str(path), "--n", "3", "--format", "json") == (0, out, "")


def _torus_job(tmp_path, relator="a b a^-1 b^-1", degrees=None, fill=()):
    pres = tmp_path / "torus.json"
    pres.write_text(json.dumps({"name": "torus", "generators": ["a", "b"], "relators": [relator]}))
    job = tmp_path / "torus-job.json"
    job.write_text(json.dumps({
        "presentation": str(pres), "degrees": degrees or {"a": 2, "b": 3}, "fill": list(fill),
    }))
    return str(job)


def test_cover_without_coprime_generator(capsys, tmp_path):
    # degrees (2, 3) map onto Z/6 though neither is coprime to 6
    code, out, _ = run(capsys, "cover", _torus_job(tmp_path), "--n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == [{"n": 6, "rank": 2, "torsion": []}]


@pytest.mark.parametrize("command, relator, slope, detail", (
    ("cover", "a^30000000 b", "a", "3 cosets of relators make 90000003 letters, more than 500000"),
    ("fill", "a b a^-1 b^-1", "a^300000", "3 cosets of slopes make 900000 letters, more than 500000"),
))
def test_cover_letters_are_capped_before_rewriting(
    capsys, monkeypatch, tmp_path, command, relator, slope, detail
):
    lifts = covers._lifts

    def short_only(q, word, starts):
        assert len(word) < 1000, "a long word was rewritten"
        return lifts(q, word, starts)

    monkeypatch.setattr(covers, "_lifts", short_only)
    job = _torus_job(tmp_path, relator, {"a": 1, "b": 0}, fill=[slope])
    code, out, err = run(capsys, command, job, "--n", "3")
    assert code == 2 and out == ""
    assert detail in err


def test_alexander_letters_are_capped_before_any_derivative(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a Fox derivative was taken")

    monkeypatch.setattr(fox, "fox_derivative", refuse)
    pres = tmp_path / "long.json"
    pres.write_text(json.dumps({"name": "long", "generators": ["a", "b"], "relators": ["a^3000000 b"]}))
    map_file = tmp_path / "map.json"
    images = {"a": {"sign": 1, "exp": [1]}, "b": {"sign": 1, "exp": [0]}}
    map_file.write_text(json.dumps({"vars": ["x"], "images": images}))
    code, out, err = run(capsys, "alexander", str(pres), "--map", str(map_file))
    assert code == 2 and out == ""
    assert f"relators of 3000001 letters exceed {fox.MAX_FOX_LETTERS}" in err


# ---- sweeps ---------------------------------------------------------------------


def test_rhs_sweep_table(capsys):
    code, out, _ = run(capsys, "rhs-sweep", "--n", "3..7")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "n ", "-"))]
    assert len(lines) == 3  # odd levels only
    assert all("yes" in l for l in lines)


def test_rhs_sweep_even_guard(capsys):
    code, _, err = run(capsys, "rhs-sweep", "--n", "4")
    assert code == 2
    assert "--force" in err


def test_rhs_sweep_force_flags_even(capsys):
    code, out, _ = run(capsys, "rhs-sweep", "--n", "4", "--force", "--format", "json")
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["flag"] == "even-n"


def test_rhs_sweep_deterministic_across_workers(capsys):
    _, out1, _ = run(capsys, "rhs-sweep", "--n", "3..7", "--format", "json")
    _, out2, _ = run(capsys, "rhs-sweep", "--n", "3..7", "--format", "json")
    assert out1 == out2
    _, out_parallel, _ = run(
        capsys, "rhs-sweep", "--n", "3..7", "--format", "json", "--jobs", "2"
    )
    assert out_parallel == out1


def test_branched_sweep(capsys):
    code, out, _ = run(
        capsys, "branched", "delta_L", "--n", "5", "--k", "all", "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    by_k = {r["k"]: r for r in results}
    assert by_k[1]["flag"] == "zero-polynomial" and by_k[1]["betti"] == 4
    assert by_k[2]["betti"] == 0 and by_k[3]["betti"] == 0
    assert by_k[4]["betti"] == 4 and by_k[4]["flag"] == ""


def test_branched_single_k(capsys):
    code, out, _ = run(
        capsys, "branched", "delta_L", "--n", "7", "--k", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["results"] == [
        {"n": 7, "k": 3, "betti": 0, "flag": ""}
    ]


def test_branched_deterministic_across_workers(capsys):
    argv = ("branched", "delta_L", "--n", "5..13", "--format", "json")
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    _, parallel, _ = run(capsys, *argv, "--jobs", "2")
    assert parallel == serial


def test_branched_sweep_without_heuristic_gcd(capsys, monkeypatch):
    # the primitive remainder sequence alone gives every cell's count
    argv = ("branched", "delta_L", "--n", "5..61", "--k", "all", "--format", "table")
    _, fast, _ = run(capsys, *argv)
    monkeypatch.setattr(polygcd, "_heu_gcd", lambda a, b: None)
    # a count on the fallback shows the patch reached it: were the heuristic
    # renamed, the sweep would compare GCDHEU with itself and pass
    prs, calls = polygcd._prs, []
    monkeypatch.setattr(polygcd, "_prs", lambda *args: calls.append(1) or prs(*args))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == fast
    assert calls


def test_branched_sweep_keeps_the_nu_cache_bounded(capsys):
    polygcd._nu_poly.cache_clear()
    code, _, _ = run(capsys, "branched", "delta_L", "--n", "1..64", "--k", "all", "--format", "json")
    info = polygcd._nu_poly.cache_info()
    assert code == 0 and info.maxsize is not None
    assert info.currsize <= info.maxsize <= 8
    # levels 2..64 miss once each, and every other cell of a level hits
    assert info.misses == 63 and info.hits > 1000


@pytest.mark.parametrize("argv", (
    ("branched", "delta_L", "--n", "5..13", "--k", "all"),
    ("verify-paper", "--item", "matrix"),
), ids=("branched", "verify-paper"))
def test_json_report_builds_no_table(capsys, monkeypatch, argv):
    calls, table = [], cli._table
    monkeypatch.setattr(cli, "_table", lambda *args: calls.append(1) or table(*args))
    assert run(capsys, *argv, "--format", "json")[0] == 0
    assert calls == []
    assert run(capsys, *argv, "--format", "table")[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("vars", (["x"], ["x", "y", "z"]), ids=("one", "three"))
def test_branched_needs_a_two_variable_polynomial(capsys, tmp_path, vars):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"vars": vars, "terms": [{"exp": [1] * len(vars), "coef": 1}]}))
    code, out, err = run(capsys, "branched", str(path), "--n", "5", "--k", "all")
    assert (code, out, err) == (2, "", "error: branched sweeps need a two-variable polynomial\n")


def test_branched_folds_a_large_exponent(tmp_path):
    """Delta = x^(10^9) - 1 is answered at once, not by a degree-10^9 gcd."""
    delta = tmp_path / "delta.json"
    terms = [{"coef": 1, "exp": [10**9, 0]}, {"coef": -1, "exp": [0, 0]}]
    delta.write_text(json.dumps({"vars": ["x", "y"], "terms": terms}))
    src = str(Path(foxhom.__file__).parent.parent)
    argv = ["branched", str(delta), "--n", "5", "--k", "2", "--format", "json"]
    code = f"import sys; sys.path.insert(0, {src!r}); from foxhom import cli; sys.exit(cli.main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    # x^(2 * 10^9) - 1 vanishes at every 5th root of unity
    assert json.loads(proc.stdout)["results"] == [{"n": 5, "k": 2, "betti": 4, "flag": ""}]


def test_cli_import_leaves_the_process_pool_out():
    src = str(Path(foxhom.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import foxhom.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_start_up_imports_no_dataclasses_inspect_or_resources():
    # every process pays for what foxhom.cli imports; without site, so that no
    # .pth file loads any of them first, none of the three may be imported
    src = str(Path(foxhom.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import foxhom.cli; "
        "from foxhom import datasets; datasets.standard_cover_job(); "
        "print([m for m in ('dataclasses', 'inspect', 'importlib.resources') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", (("rhs-sweep",), ("branched", "delta_L", "--n", "5")))
def test_jobs_below_one_is_exit_2(capsys, command):
    code, out, err = run(capsys, *command, "--jobs", "0")
    assert code == 2 and out == ""
    assert "--jobs must be at least 1" in err


@pytest.mark.parametrize("command", (("rhs-sweep",), ("branched", "delta_L", "--n", "5")))
def test_jobs_is_a_text_int(capsys, monkeypatch, command):
    # argparse refuses the value with its own exit 2, before any task runs
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: pytest.fail("a task ran"))
    with pytest.raises(SystemExit) as raised:
        main([*command, "--jobs", "1_0"])
    captured = capsys.readouterr()
    assert raised.value.code == 2 and captured.out == ""
    assert "argument --jobs: invalid text_int value: '1_0'" in captured.err


def _fake_pool(monkeypatch, cpus, seen):
    """Run the pool's map in-process; ``seen`` gets its worker count and chunk size."""

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            seen.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("jobs, cpus, workers", ((64, 3, 3), (64, 8, 4), (2, 8, 2)))
def test_pool_is_clamped_to_tasks_and_cpus(capsys, monkeypatch, jobs, cpus, workers):
    seen = []
    argv = ("branched", "delta_L", "--n", "5", "--format", "json")
    _, serial, _ = run(capsys, *argv)
    _fake_pool(monkeypatch, cpus, seen)
    code, out, _ = run(capsys, *argv, "--jobs", str(jobs))
    assert code == 0 and out == serial
    assert seen == [workers, 1]  # four coprime residues mod 5, one at a time


@pytest.mark.parametrize("argv, chunksize", (
    # 2 240 cheap cells go out in batches
    (("branched", "delta_L", "--n", "101..131", "--k", "all"), 2240 // 32),
    # 30 costly levels go out one at a time
    (("rhs-sweep", "--n", "3..61"), 1),
), ids=("branched", "rhs-sweep"))
def test_pool_hands_out_tasks_in_batches(capsys, monkeypatch, argv, chunksize):
    seen = []
    _fake_pool(monkeypatch, 2, seen)
    # the cells themselves are not under test here
    monkeypatch.setattr(cli, "_branched_cell", lambda payload: ({}, payload[1:] + (0, "")))
    monkeypatch.setattr(cli, "_cover_level", lambda task: ({}, (task[1], 0, [], "yes", "")))
    code, _, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert seen == [2, chunksize]


# the level parsers before they were folded into cli._parse_levels, kept as
# the oracle of its differential test
_OLD_MAX_RANGE = 10_000


def _old_parse_int_values(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise cli.InputError(f"bad range {chunk!r}") from None
            if hi < lo:
                raise cli.InputError(f"empty range {chunk!r}")
            if hi - lo >= _OLD_MAX_RANGE:
                raise cli.InputError(f"range {chunk!r} spans more than {_OLD_MAX_RANGE} values")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(chunk))
            except ValueError:
                raise cli.InputError(f"bad integer {chunk!r}") from None
    if not values or min(values) < 1:
        raise cli.InputError(f"values must be positive: {text!r}")
    return tuple(sorted(set(values)))


def _old_cap_levels(n_values, limit):
    if max(n_values) > limit:
        raise cli.InputError(f"level {max(n_values)} exceeds {limit}")
    return n_values


def _old_parse_sweep_levels(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            values.extend(n for n in _old_parse_int_values(chunk) if n % 2)
        else:
            values.extend(_old_parse_int_values(chunk))
    if not values:
        raise cli.InputError(f"no levels in {text!r}")
    return tuple(sorted(set(values)))


def _old_levels(name, text):
    parse = _old_parse_sweep_levels if name == "rhs-sweep" else _old_parse_int_values
    return _old_cap_levels(parse(text), _OLD_MAX_RANGE if name == "branched" else 500)


_LEVEL_COMMANDS = {
    "cover": ("cover", "cover-job"),
    "fill": ("fill", "cover-job"),
    "sakuma": ("sakuma", "cover-job"),
    "rhs-sweep": ("rhs-sweep",),
    "branched": ("branched", "delta_L"),
}

_LEVEL_TEXTS = (
    "5", " 3 , 5 ", "3..9", "3,5,7", "1..500", "499..501", "2,4..8", "4..4", "0..3", "-1",
    "3..", "..3", "9..3", "9..3,5", "a", "3,,5", "1..10000", "5..10005", "1..1000000000000",
)


class _Admitted(Exception):
    pass


def _outcome(call):
    try:
        return call()
    except cli.InputError:
        return cli.InputError


@pytest.mark.parametrize("name", sorted(_LEVEL_COMMANDS))
def test_levels_match_the_old_parsers(capsys, monkeypatch, name):
    # the command's own call of _parse_levels, so its limit and odd-range
    # rule are under test too; no level runs
    parse, outcomes = cli._parse_levels, []

    def spy(*args, **kwargs):
        outcomes.append(_outcome(lambda: parse(*args, **kwargs)))
        if outcomes[-1] is cli.InputError:
            raise cli.InputError("refused")
        raise _Admitted

    monkeypatch.setattr(cli, "_parse_levels", spy)
    for text in _LEVEL_TEXTS:
        outcomes.clear()
        try:
            code = main([*_LEVEL_COMMANDS[name], "--n", text])
        except _Admitted:
            code = None
        assert outcomes == [_outcome(lambda: _old_levels(name, text))], text
        assert code == (2 if outcomes[0] is cli.InputError else None), text
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(_LEVEL_COMMANDS))
def test_levels_are_text_ints(capsys, monkeypatch, name):
    # int() would read these as 10, 3 and 3..10
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: pytest.fail("a level ran"))
    for text, kind in (("1_0", "integer"), ("\u0663", "integer"), ("3..1_0", "range")):
        code, out, err = run(capsys, *_LEVEL_COMMANDS[name], "--n", text)
        assert (code, out, err) == (2, "", f"error: bad {kind} {text!r}\n"), text


def test_level_range_is_capped_before_expanding(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: pytest.fail("a level ran"))
    for command in _LEVEL_COMMANDS.values():
        code, out, err = run(capsys, *command, "--n", "1..1000000000000")
        assert code == 2 and out == ""
        assert "level 1000000000000 exceeds" in err


@pytest.mark.parametrize("k", ("all", "1"))
def test_branched_level_is_capped_before_any_cell(capsys, monkeypatch, k):
    calls = []
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: calls.append(tasks) or [])
    monkeypatch.setattr(cli, "branched_betti", lambda *args: calls.append(args))
    code, _, err = run(capsys, "branched", "delta_L", "--n", str(cli.MAX_RANGE + 1), "--k", k)
    assert code == 2
    assert f"level {cli.MAX_RANGE + 1} exceeds" in err
    assert calls == []


def test_branched_cell_count_is_capped_before_any_cell(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: calls.append(tasks) or [])
    monkeypatch.setattr(cli, "branched_betti", lambda *args: calls.append(args))
    # a sweep just past the cap, so that a missing cap costs little here
    assert sum(gcd(k, n) == 1 for n in range(1, 301) for k in range(1, n)) > cli.MAX_CELLS
    code, _, err = run(capsys, "branched", "delta_L", "--n", "1..300", "--k", "all")
    assert code == 2
    assert f"more than {cli.MAX_CELLS} (n, k) cells" in err
    assert calls == []


def _refuse_covers(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cover was built")

    monkeypatch.setattr(cli, "reidemeister_schreier", refuse)


@pytest.mark.parametrize("command", (
    ("cover", "cover-job"), ("fill", "cover-job"), ("sakuma", "cover-job"), ("rhs-sweep",),
), ids=lambda command: command[0])
def test_cover_level_is_capped_before_any_cover(capsys, monkeypatch, command):
    _refuse_covers(monkeypatch)
    level = cli.MAX_COVER_LEVEL + 1
    code, out, err = run(capsys, *command, "--n", f"3,{level}")
    assert code == 2 and out == ""
    assert f"level {level} exceeds {cli.MAX_COVER_LEVEL}" in err


def test_cover_job_default_level_is_capped(capsys, monkeypatch, tmp_path):
    _refuse_covers(monkeypatch)
    job = json.loads(datasets.data_path("cover-job").read_text())
    job["n"] = 20_000_000
    path = tmp_path / "big-job.json"
    path.write_text(json.dumps(job))
    code, _, err = run(capsys, "cover", str(path))
    assert code == 2
    assert f"level 20000000 exceeds {cli.MAX_COVER_LEVEL}" in err


def test_wide_cover_job_is_refused_before_its_matrix(capsys, tmp_path):
    # 30 generators of degree 1: within both cover caps at level 500, but
    # the kernel relator matrix would be 15000 x 14999, some 2 GB
    gens = [f"a{i}" for i in range(30)]
    relators = [f"a{i} a{i + 1} a{i}^-1 a{i + 1}^-1" for i in range(29)]
    (tmp_path / "wide.json").write_text(
        json.dumps({"name": "wide", "generators": gens, "relators": relators})
    )
    path = tmp_path / "wide-job.json"
    path.write_text(json.dumps({"presentation": "wide.json", "degrees": dict.fromkeys(gens, 1)}))
    code, out, err = run(capsys, "cover", str(path), "--n", "500")
    assert code == 2 and out == ""
    assert "relator matrix of 15000 x 14999 exceeds 10000000 cells" in err


def test_fill_job_without_slopes_builds_no_cover(capsys, monkeypatch, tmp_path):
    built = []

    def build(*args):
        built.append(args)
        return covers.reidemeister_schreier(*args)

    monkeypatch.setattr(cli, "reidemeister_schreier", build)
    # both slope rules of FillingSpec run before the first level's cover
    for fill, message in (([], "no slopes to fill"), (["m", "s s^-1"], "empty slope word")):
        path = tmp_path / "slopes.json"
        path.write_text(json.dumps(_bundled("cover-job", fill=fill)))
        code, out, err = run(capsys, "fill", str(path), "--n", "400..402")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert built == []


def test_sakuma_transfers_are_capped_before_they_are_built(capsys, monkeypatch, tmp_path):
    # 43 generators at level 30: M is 1290 x 59 and fits the cap, and so
    # does [M | S] with its 3 sakuma columns, but not with the 42 passive
    # transfers that ride along
    gens = ["m", "s", "t", *(f"a{i}" for i in range(40))]
    (tmp_path / "wide.json").write_text(json.dumps(
        {"name": "wide", "generators": gens, "relators": ["m s m^-1 s^-1"]}))
    path = tmp_path / "wide-job.json"
    path.write_text(json.dumps({"presentation": "wide.json", "degrees": dict.fromkeys(gens, 1)}))
    calls = []
    monkeypatch.setattr(covers, "transfer", lambda *args: calls.append(args))
    monkeypatch.setattr(presentations, "MAX_MATRIX_CELLS", 1290 * (59 + 3))
    code, out, err = run(capsys, "sakuma", str(path), "--n", "30")
    assert (code, out) == (2, "")
    assert err == f"error: relator matrix of 1290 x 104 exceeds {1290 * 62} cells\n"
    assert calls == []


def test_main_builds_its_parser_once(capsys, monkeypatch):
    roots = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        roots.append(kwargs.get("prog") == "foxhom")
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        first = run(capsys, "rhs-sweep", "--n", "3..5")
        second = run(capsys, "rhs-sweep", "--n", "3..5")
    finally:
        cli.build_parser.cache_clear()
    assert first[0] == 0 and first == second
    assert roots.count(True) == 1


@pytest.mark.parametrize("n", ("5", "5..41"))
def test_branched_k_is_checked_before_any_level(capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, tasks, jobs: pytest.fail("a cell ran"))
    # int() would read the last three as 10, 2 and 3
    for k in ("x", "1_0", " +2", "\u0663"):
        code, out, err = run(capsys, "branched", "delta_L", "--n", n, "--k", k)
        assert (code, out, err) == (2, "", f"error: --k must be an integer or 'all', got {k!r}\n")


def test_branched_rejects_noncoprime(capsys):
    code, _, err = run(capsys, "branched", "delta_L", "--n", "6", "--k", "2")
    assert code == 2
    assert "coprime" in err


# ---- output file -----------------------------------------------------------------


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "abelianize", "n-final", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "abelianize"


def test_unwritable_output_is_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "abelianize", "n-final", "--output", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


# sha256 of the table-format stdout; a table body holds only input digests
# and results, so it is the same on every machine
PINNED_TABLE_BODIES = (
    ("verify-paper", ("verify-paper",),
     "3f80956b9d312192c539d23c196ca78d54164c7a6b2f2a746de3bcf9eab5a88b"),
    ("alexander", ("alexander", "n-final", "--map", "map-free-abelian", "--minors"),
     "1b05cd650d76eaadbf332b6101f33177f6212db63240c8475a84d704a1b57a53"),
    ("rhs-sweep", ("rhs-sweep", "--n", "3..37"),
     "48de310626ce56101f27a5495e902012139ae0fb0e28bd80859c211d8930b5f0"),
    ("sakuma", ("sakuma", "cover-job", "--n", "3..15"),
     "dcab6bba65ce2754dca13f69f670d0bd90345dc0df9466fcf3b2eb7b5ffdc975"),
    ("branched", ("branched", "delta_L", "--n", "5..41", "--k", "all"),
     "36e43fbd06aad33907eb01f69b56bc7384286f071393b112bf9f42c8e1eb6689"),
    ("cover", ("cover", "cover-job", "--n", "1..15"),
     "8e4bffb0fa1e79cb141de72977871d7b92724a2ea6cc50c527359b9b8d85559f"),
    ("fill", ("fill", "cover-job", "--n", "1..15"),
     "34aa41a9f42f2877f47abc0eb7815dd588efb3b111032252d15cd00165dd3e47"),
    # no coprime residue below 1, so no cells: the header alone, exit 0
    ("branched-empty", ("branched", "delta_L", "--n", "1", "--k", "all"),
     "e136460e8531afac2316c88a0a09c9209183670de892a03d571693251ed58a00"),
)


@pytest.mark.parametrize(
    "argv, digest",
    [(argv, digest) for _, argv, digest in PINNED_TABLE_BODIES],
    ids=[name for name, _, _ in PINNED_TABLE_BODIES],
)
def test_table_body_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---- verify-paper ------------------------------------------------------------------


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert all(r["pass"] for r in results)
    assert {r["item"] for r in results} == {
        "matrix", "minors", "delta", "delta-inf", "h1",
        "factorization", "rhs", "branched",
    }


def test_verify_paper_single_item(capsys):
    code, out, _ = run(capsys, "verify-paper", "--item", "matrix", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["item"] for r in results] == ["matrix"]


def test_verify_paper_fault_injection(capsys, tmp_path):
    """Corrupting the two-variable polynomial fails exactly its two items."""
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    raw = json.loads((alt / "delta_L.json").read_text())
    raw["terms"][0]["coef"] += 1
    (alt / "delta_L.json").write_text(json.dumps(raw))

    code, out, _ = run(
        capsys, "verify-paper", "--data-dir", str(alt), "--format", "json"
    )
    assert code == 1
    results = {r["item"]: r["pass"] for r in json.loads(out)["results"]}
    assert results == {
        "matrix": True,
        "minors": True,
        "delta": True,
        "delta-inf": True,
        "h1": True,
        "factorization": False,
        "rhs": True,
        "branched": False,
    }


def _drop_u_row(raw):
    i = raw["row_labels"].index("u")
    del raw["row_labels"][i], raw["entries"][i]


def _rename_u_row(raw):
    raw["row_labels"][raw["row_labels"].index("u")] = "v"


@pytest.mark.parametrize("edit, detail", (
    (_drop_u_row, "shape 6x5, reference 5x5"),
    (_rename_u_row, "variables or labels differ from the reference"),
), ids=("row-dropped", "row-renamed"))
def test_verify_paper_matrix_compares_shape_and_labels_first(capsys, tmp_path, edit, detail):
    """A reference row missing or renamed fails on that, not on units."""
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    ref = alt / "alexander-reference.json"
    raw = json.loads(ref.read_text())
    edit(raw)
    ref.write_text(json.dumps(raw))

    code, out, _ = run(
        capsys, "verify-paper", "--data-dir", str(alt), "--item", "matrix",
        "--format", "json",
    )
    assert code == 1
    [result] = json.loads(out)["results"]
    assert result["pass"] is False
    assert result["detail"] == detail


def test_verify_paper_unreadable_reference(capsys, tmp_path):
    """A truncated reference file fails exactly the items that read it."""
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    ref = alt / "alexander-reference.json"
    ref.write_text(ref.read_text()[:100])

    code, out, _ = run(
        capsys, "verify-paper", "--data-dir", str(alt), "--format", "json"
    )
    assert code == 1
    results = {r["item"]: r["pass"] for r in json.loads(out)["results"]}
    assert results == {
        "matrix": False,
        "minors": False,
        "delta": False,
        "delta-inf": False,
        "h1": True,
        "factorization": True,
        "rhs": True,
        "branched": True,
    }


def test_verify_paper_map_lacking_an_image_fails_its_items(capsys, tmp_path):
    """A map with no image for a generator fails the items that read it."""
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    map_path = alt / "map-free-abelian.json"
    map_path.write_text(json.dumps(_map_image("m", drop="u")))

    code, out, _ = run(capsys, "verify-paper", "--data-dir", str(alt), "--format", "json")
    assert code == 1
    results = {r["item"]: (r["pass"], r["detail"]) for r in json.loads(out)["results"]}
    missing = (False, f"error: map {map_path} has no image for generator 'u'")
    for item in ("matrix", "minors", "delta", "delta-inf"):
        assert results.pop(item) == missing
    assert all(ok for ok, _ in results.values())


@pytest.mark.parametrize("kind", ("missing", "file"))
def test_verify_paper_data_dir_must_be_a_directory(capsys, tmp_path, kind):
    """A data directory that is not one is an input error, not a mismatch."""
    path = tmp_path / "data"
    if kind == "file":
        path.write_text("{}")
    code, out, err = run(capsys, "verify-paper", "--data-dir", str(path))
    assert code == 2 and out == ""
    assert f"error: no such data directory {path}" in err


def test_verify_paper_long_relator_fails_its_items(capsys, monkeypatch, tmp_path):
    """A relator past the letter caps fails the Fox and cover items at once."""
    monkeypatch.setattr(fox, "fox_derivative", lambda *args: pytest.fail("derivative taken"))
    monkeypatch.setattr(covers, "_lifts", lambda *args: pytest.fail("word rewritten"))
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    raw = json.loads((alt / "n-final.json").read_text())
    raw["relators"][0] += " u^30000000"  # u has degree 0 in the cover job
    (alt / "n-final.json").write_text(json.dumps(raw))

    code, out, _ = run(capsys, "verify-paper", "--data-dir", str(alt), "--format", "json")
    assert code == 1
    results = {r["item"]: (r["pass"], r["detail"]) for r in json.loads(out)["results"]}
    fox_error = (False, f"error: relators of 30000062 letters exceed {fox.MAX_FOX_LETTERS}")
    for item in ("matrix", "minors", "delta", "delta-inf"):
        assert results[item] == fox_error
    assert results["rhs"] == (
        False, f"error: 3 cosets of relators make 90000186 letters, more than {covers.MAX_COVER_LETTERS}"
    )
    assert all(results[item][0] for item in ("h1", "factorization", "branched"))


def test_verify_paper_without_an_input_file(capsys, tmp_path):
    """A deleted data file leaves the report's inputs and fails its item."""
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    (alt / "nb.json").unlink()
    code, out, err = run(capsys, "verify-paper", "--data-dir", str(alt), "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert set(report["inputs"]) == set(verify.INPUT_FILES) - {"nb"}
    results = {r["item"]: (r["pass"], r["detail"]) for r in report["results"]}
    assert results.pop("h1") == (False, (
        "error: no such input file or bundled dataset: 'nb' "
        f"(looked for {alt / 'nb.json'})"))
    assert all(ok for ok, _ in results.values())


def _string_row_labels(raw):
    raw["row_labels"] = "".join(label[0] for label in raw["row_labels"])


def _negate_entry(raw):
    raw["entries"][0][0] = [{**t, "coef": -t["coef"]} for t in raw["entries"][0][0]]


def _bump(*keys):
    def edit(raw):
        for key in keys:
            raw = raw[key]
        raw["coef"] += 1
    return edit


def _set_terms(*terms):
    def edit(raw):
        raw["terms"] = [{"exp": list(e), "coef": c} for e, c in terms]
    return edit


def _square_relator(raw):
    raw["relators"].append(f"{raw['generators'][0]}^2")


def _product_job(*fill):
    """The cover job on Z x <a | a^3>, graded by m alone; sakuma gives Z/3.

    The transfer of a is n a, so the transfer module is 0 at levels prime to
    3, and the order ratio is 3.
    """
    def edit(raw):
        return {"presentation": "product", "degrees": {"m": 1, "s": 0, "t": 0, "a": 0},
                "fill": list(fill)}
    return edit


_PRODUCT = {"name": "product", "generators": ["m", "s", "t", "a"], "relators": [
    "m s m^-1 s^-1", "m t m^-1 t^-1", "m a m^-1 a^-1", "s", "t", "a^3"]}


# Every failure detail of every item, each from one edit of one data file.
# The order-ratio check also fails when hn's order does not divide sak's;
# hn is a quotient of sak, so no data reaches that half of the condition
@pytest.mark.parametrize("name, edit, item, detail", (
    ("alexander-reference", _negate_entry, "matrix",
     "entries agree only up to units (lift convention mismatch)"),
    ("alexander-reference", _bump("entries", 0, 0, 0), "matrix", "1 entries differ"),
    # labels as a string of the right length are a malformed file, not six labels
    ("alexander-reference", _string_row_labels, "matrix",
     "error: malformed input {}: TypeError: expected a list, got 'mmmstu'"),
    ("alexander-reference", _bump("minors", "m", 0), "minors", "minors differ for rows ['m']"),
    ("alexander-reference", _bump("delta", 0), "delta", "gcd of minors is "),
    ("alexander-reference", _bump("delta_inf", "terms", 0), "delta-inf",
     "specialization is 2*x^7 - 6*x^5 + 6*x^3 - 2*x"),
    ("nb", _square_relator, "h1", "nb: Z^2 x Z/2"),
    ("delta_L", _set_terms(((0, 0), 1)), "factorization", "factorization fails at k=2"),
    ("delta_L", _set_terms(((0, 0), 1)), "branched", "(n=5, k=1): expected positive count"),
    ("delta_L", _set_terms(), "branched", "(n=5, k=2): count 4"),
    ("cover-job", _product_job("s"), "rhs", "n=3: filled homology has rank 1"),
    ("cover-job", _product_job("m", "a"), "rhs", "n=3: transfer quotient disagrees with filling"),
    ("cover-job", _product_job("m"), "rhs", "n=5: order ratio 3/1"),
), ids=(
    "matrix-units", "matrix-entry", "matrix-string-labels", "minors", "delta", "delta-inf", "h1",
    "factorization", "branched-positive", "branched-zero",
    "rhs-rank", "rhs-disagree", "rhs-ratio",
))
def test_verify_paper_failure_details(capsys, tmp_path, name, edit, item, detail):
    alt = tmp_path / "data"
    shutil.copytree(datasets.data_dir(), alt)
    (alt / "product.json").write_text(json.dumps(_PRODUCT))
    path = alt / f"{name}.json"
    raw = json.loads(path.read_text())
    path.write_text(json.dumps(edit(raw) or raw))
    code, out, err = run(
        capsys, "verify-paper", "--data-dir", str(alt), "--item", item, "--format", "json")
    assert (code, err) == (1, "")
    [result] = json.loads(out)["results"]
    assert result["pass"] is False
    if item == "delta":  # the detail prints the fresh gcd, which the edit leaves alone
        assert result["detail"].startswith(detail)
        fresh = parse_poly(result["detail"].removeprefix(detail), ("x", "y", "z"))
        assert fresh.unit_equivalent(datasets.load_reference()["delta"])
    else:
        assert result["detail"] == detail.format(path)


def test_run_items_rejects_an_unknown_item():
    with pytest.raises(ValueError, match="unknown item 'bogus'"):
        verify.run_items(["matrix", "bogus"])


def test_verify_paper_derives_the_fox_chain_once_per_run(monkeypatch):
    calls = {"alexander_matrix": 0, "minor_polys": 0}

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(verify, name, wrapper)

    counted("alexander_matrix")
    counted("minor_polys")
    assert all(ok for _, ok, _ in verify.run_items())
    assert calls == {"alexander_matrix": 1, "minor_polys": 1}
    verify.run_items()
    assert calls == {"alexander_matrix": 2, "minor_polys": 2}


# ---- the public surface -------------------------------------------------------


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(foxhom.__all__) == [
        "AbelianGroup", "AbelianizationMap", "CoverPresentation",
        "CyclicQuotientMap", "FillingSpec", "LaurentMatrix", "LaurentPoly",
        "ParseError", "Presentation", "RootCount", "Word", "abelianize",
        "alexander_matrix", "alexander_poly", "branched_betti", "cokernel",
        "determinant", "exponent_vector", "fill", "fox_derivative", "h1_cover",
        "h_n_module", "laurent_divexact", "laurent_gcd", "minor_polys",
        "mutation_invariance_check", "nu_poly", "parse_poly", "parse_word",
        "reidemeister_schreier", "sakuma_quotient", "shared_root_count",
        "smith_normal_form", "substitute_monomial", "tietze_add_generator",
        "tietze_eliminate", "transfer",
    ]
    assert all(hasattr(foxhom, name) for name in foxhom.__all__)
