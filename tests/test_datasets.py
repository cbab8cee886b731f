import json
import pickle
from importlib import resources
from pathlib import Path

import pytest

from foxhom import abelian, covers, datasets, snf
from foxhom.laurent import parse_poly
from foxhom.words import exponent_vector, parse_word


def test_bundled_presentations_load():
    for name in datasets.PRESENTATIONS:
        p = datasets.load_presentation(name)
        assert p.name == name
        assert p.generators


def test_missing_dataset():
    with pytest.raises(FileNotFoundError):
        datasets.load_presentation("does-not-exist")


def test_data_path_names_the_missing_input():
    with pytest.raises(FileNotFoundError, match="no such input"):
        datasets.data_path("no-such-thing")


def test_load_by_path(tmp_path):
    src = datasets.data_path("rst").read_text()
    target = tmp_path / "copy.json"
    target.write_text(src)
    p = datasets.load_presentation(str(target))
    assert p.name == "rst"


def test_data_dir_is_resolved_once():
    datasets.data_dir.cache_clear()
    try:
        for name in ("rst", "nb", "cover-job"):
            assert datasets.data_path(name).parent == datasets.data_dir()
        assert datasets.data_dir.cache_info().misses == 1
        assert datasets.data_dir() is datasets.data_dir()
    finally:
        datasets.data_dir.cache_clear()
    # the package's own directory, as the import machinery's resource reader
    # names it, so report paths are unchanged
    assert datasets.data_dir() == Path(datasets.__file__).parent / "data"
    assert str(datasets.data_dir()) == str(resources.files("foxhom") / "data")


def test_digest_is_stable():
    path = datasets.data_path("delta_L")
    assert datasets.file_digest(path) == datasets.file_digest(path)
    assert len(datasets.file_digest(path)) == 64


def test_constants_parse_and_longitude_is_nullhomologous():
    words = datasets.load_constants()
    assert set(words) == {"bob", "rita", "m", "l", "slope-a", "slope-b"}
    assert str(words["m"]) == "g1^-1 f4"
    assert str(words["slope-a"]) == "s t s^-1 t"
    assert str(words["slope-b"]) == "t^-1 s^-1 t s^-1"
    # the longitude is built to die in homology
    assert exponent_vector(words["l"], ("f4", "g1", "g2")) == [0, 0, 0]
    # bob and rita differ by one meridian turn
    assert exponent_vector(words["rita"], ("f4", "g1", "g2")) == [4, -4, 0]
    assert exponent_vector(words["bob"], ("f4", "g1", "g2")) == [3, -3, 0]


def test_reference_bundle_consistency(reference):
    matrix = reference["matrix"]
    assert matrix.shape == (6, 5)
    assert set(reference["minors"]) == set(matrix.row_labels)
    assert not reference["delta"].is_zero
    assert reference["delta_inf"].vars == ("x",)


def test_cover_job_loads(cover_job):
    assert cover_job["presentation"].name == "n-final"
    assert cover_job["n"] == 3
    assert len(cover_job["fill"]) == 3
    assert cover_job["degrees"]["m"] == 2


def test_job_with_relative_presentation_path(tmp_path):
    pres = datasets.data_path("n-final").read_text()
    (tmp_path / "pres.json").write_text(pres)
    job = {
        "presentation": "pres.json",
        "degrees": {"m": 2, "m1": 2, "m2": 2, "s": 1, "t": 1, "u": 0},
        "n": 5,
        "fill": ["m"],
    }
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    loaded = datasets.load_job(str(job_path))
    assert loaded["presentation"].name == "n-final"
    assert loaded["n"] == 5
    assert [str(w) for w in loaded["fill"]] == ["m"]


def test_pickle_round_trip_keeps_values_and_hashes(cover_job):
    word = parse_word("s t^-2 s^-1 t", ["s", "t"])
    poly = parse_poly("2*x^2*y^-1 - x + 1", ("x", "y"))
    group = abelian.AbelianGroup(2, (2, 6))
    form = snf.smith_normal_form([[2, 0], [0, 2]], [[[1, 1]]])
    assert form.extended
    spec = covers.FillingSpec(cover_job["fill"])
    records = [
        (cover_job["presentation"], "name"),
        (group, "rank"),
        (form, "extended"),
        (spec, "slopes"),
    ]
    for value in (word, poly, cover_job["fill"], *(r for r, _ in records)):
        again = pickle.loads(pickle.dumps(value))
        assert again == value
        assert hash(again) == hash(value)
        assert repr(again) == repr(value)
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert pickle.loads(pickle.dumps(cover_job)) == cover_job


def test_records_compare_within_one_class(cover_job):
    group = abelian.AbelianGroup(1, (2,))
    assert repr(group) == "AbelianGroup(rank=1, torsion=(2,))"
    assert group == abelian.AbelianGroup(rank=1, torsion=[2])
    assert hash(group) == hash((1, (2,)))

    class Other(abelian.AbelianGroup):
        pass

    assert Other(1, (2,)) != group and group != (1, (2,))
    # a record holding a dict is unhashable, and pickles with its cached letters
    q = covers.CyclicQuotientMap(cover_job["presentation"], 5, cover_job["degrees"])
    with pytest.raises(TypeError):
        hash(q)
    letters = q.letters
    again = pickle.loads(pickle.dumps(q))
    assert again == q and "letters" in vars(again) and again.letters == letters
