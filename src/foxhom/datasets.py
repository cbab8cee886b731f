"""Loaders for the bundled datasets and for user-supplied JSON files.

Every input is resolved by ``data_path`` alone: a path to an existing
``*.json`` file is used as given; any other name is looked up as
``<dir>/<name>`` (``.json`` appended when missing), where ``dir`` defaults
to the bundled ``foxhom/data``.  Pointing ``dir`` at a copy of the data
(for instance, a deliberately corrupted one) swaps every bundled name at
once.  Bundled names: rst, nb, amalgam, n-final, constants, delta_L,
alexander-reference, map-free-abelian, map-infinite-cyclic, cover-job.

``_load`` names the file in every error it passes out: a file that cannot
be decoded raises ``MalformedInput``, and a well-formed map with no image
for some generators it is read for raises ``fox.MissingImages``.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

from .fox import AbelianizationMap, MissingImages
from .laurent import LaurentPoly, json_int, json_list
from .polymat import LaurentMatrix
from .presentations import Presentation
from .words import parse_word

PRESENTATIONS = ("rst", "nb", "amalgam", "n-final")


@cache
def data_dir():
    """Directory holding the bundled data files, resolved once per process.

    The data ships inside the package, beside this module, so the path is
    read from ``__file__``: the import machinery's resource reader gives the
    same path and costs every process an import.
    """
    return Path(__file__).parent / "data"


def data_path(name, dir=None):
    """The file an input names: an existing ``*.json`` path, else a data file."""
    name = str(name)
    path = Path(name)
    if path.suffix == ".json" and path.exists():
        return path
    base = Path(dir) if dir is not None else data_dir()
    path = base / (name if name.endswith(".json") else f"{name}.json")
    if not path.exists():
        raise FileNotFoundError(
            f"no such input file or bundled dataset: {name!r} (looked for {path})"
        )
    return path


class MalformedInput(ValueError):
    """An input file that is not JSON, or JSON its decoder rejects."""


def _load(name, decode, dir=None):
    """``decode`` applied to the JSON an input names.

    This is the one place where a malformed file (not JSON, a missing field,
    a list where an object belongs, a value the decoder rejects) becomes a
    ``MalformedInput`` naming the file.  A file loaded inside ``decode``
    names itself, so its error passes through unwrapped.  A map's
    ``MissingImages`` is not a fault of the file: it stays a
    ``MissingImages`` and is named as ``map <path> has ...``.
    """
    path = data_path(name, dir)
    try:
        with open(path) as f:
            return decode(json.load(f))
    except MalformedInput:
        raise
    except MissingImages as exc:
        raise MissingImages(f"map {path} has {exc}") from None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed input {path}: {type(exc).__name__}: {exc}") from None


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_presentation(name, dir=None):
    """A bundled presentation by name, or any presentation JSON by path."""
    return _load(name, Presentation.from_json, dir)


def load_poly(name, dir=None):
    return _load(name, LaurentPoly.from_json, dir)


def load_map(name, source, dir=None):
    """An abelianization map, its images read for the generators ``source``.

    A map with no image for some of ``source`` may be a good map of another
    presentation; the ``MissingImages`` it raises names the file and the
    generators the map lacks.
    """
    return _load(name, lambda raw: AbelianizationMap.from_json(raw, source), dir)


def load_constants(dir=None):
    """The peripheral words, parsed over the generators that occur in them."""
    alphabet = ("f4", "g1", "g2", "m", "m1", "m2", "s", "t", "u")
    return _load(
        "constants",
        lambda raw: {name: parse_word(text, alphabet) for name, text in raw["words"].items()},
        dir,
    )


def _decode_reference(raw):
    minors = {
        g: LaurentPoly.from_json({"vars": raw["vars"], "terms": terms})
        for g, terms in raw["minors"].items()
    }
    return {
        "matrix": LaurentMatrix.from_json(raw),
        "minors": minors,
        "delta": LaurentPoly.from_json({"vars": raw["vars"], "terms": raw["delta"]}),
        "delta_inf": LaurentPoly.from_json(raw["delta_inf"]),
    }


def load_reference(dir=None):
    """The transcribed reference matrix and its derived polynomials."""
    return _load("alexander-reference", _decode_reference, dir)


def load_job(name, dir=None):
    """A cover/fill job spec: presentation, degrees, n and fill slopes.

    The ``presentation`` field is an existing ``*.json`` path, else such a
    path relative to the job file, else a name resolved in ``dir``.  An
    optional ``mode`` field is accepted and ignored.  A degree for a
    generator the presentation lacks raises ValueError naming it.
    """
    path = data_path(name, dir)

    def decode(raw):
        ref = raw["presentation"]
        beside = path.parent / ref
        if not Path(ref).exists() and beside.exists():
            ref = beside
        presentation = load_presentation(ref, dir)
        degrees = {g: json_int(d) for g, d in raw["degrees"].items()}
        unknown = sorted(set(degrees) - set(presentation.generators))
        if unknown:
            raise ValueError(f"degrees name generators not in the presentation: {unknown}")
        return {
            "presentation": presentation,
            "degrees": degrees,
            "n": json_int(raw.get("n", 1)),
            "fill": tuple(
                parse_word(text, presentation.generators)
                for text in json_list(raw.get("fill", []))
            ),
        }

    return _load(path, decode)


def standard_cover_job(dir=None):
    """The bundled job: the n-final presentation, its grading, the slopes."""
    return load_job("cover-job", dir)
