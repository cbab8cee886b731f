"""The contract every value class keeps through ``foxhom._record.Record``."""

import inspect
import pickle

import pytest

from foxhom import abelian, covers, datasets, fox, polymat, presentations, snf
from foxhom._record import Record
from foxhom.laurent import LaurentPoly, parse_poly
from foxhom.words import Word, parse_word


@pytest.fixture(scope="module")
def values():
    job = datasets.standard_cover_job()
    p = job["presentation"]
    phi = datasets.load_map("map-free-abelian", source=p.generators)
    q = covers.CyclicQuotientMap(p, 5, job["degrees"])
    return {
        Word: parse_word("s t^-2 s^-1 t", ["s", "t"]),
        LaurentPoly: parse_poly("2*x^2*y^-1 - x + 1", ("x", "y")),
        abelian.AbelianGroup: abelian.AbelianGroup(2, (2, 6)),
        snf.SmithForm: snf.smith_normal_form([[2, 0], [0, 2]], [[[1, 1]]]),
        covers.CyclicQuotientMap: q,
        covers.CoverPresentation: covers.reidemeister_schreier(p, q),
        covers.FillingSpec: covers.FillingSpec(job["fill"]),
        fox.AbelianizationMap: phi,
        polymat.LaurentMatrix: fox.alexander_matrix(p, phi),
        presentations.Presentation: p,
    }


CLASSES = (
    Word,
    LaurentPoly,
    abelian.AbelianGroup,
    snf.SmithForm,
    covers.CyclicQuotientMap,
    covers.CoverPresentation,
    covers.FillingSpec,
    fox.AbelianizationMap,
    polymat.LaurentMatrix,
    presentations.Presentation,
)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_class_contract(values, cls):
    value = values[cls]
    assert isinstance(value, Record) and type(value) is cls
    params = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert cls._fields == params
    fields = value._values()
    for name, old in zip(cls._fields, fields):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(value, name, old)
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(value, name)
    assert value._values() == fields
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and again == value and again._values() == fields
    # the trusted constructor stores the checked one's fields as they are
    trusted = cls._of(*fields)
    assert type(trusted) is cls and trusted == cls(*fields) == value
