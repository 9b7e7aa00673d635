import json
import os

import numpy as np
import pytest

from abnorm import catalog
from abnorm.catalog import (
    AlgebraId,
    CatalogCorruptError,
    CatalogError,
    automorphism_family,
    default_id,
    instantiate,
    known_generating_subspace,
    list_families,
    verify_automorphism,
)
from abnorm.lie import bracket

E = np.eye(4)


def test_seventeen_families():
    assert len(list_families()) == 17


@pytest.mark.parametrize(
    "raw,canon",
    [
        ("g4.7", "g4.7"),
        ("g47", "g4.7"),
        ("G4.10", "g4.10"),
        ("g3.6+g1", "g3.6+g1"),
        ("g36", "g3.6+g1"),
        ("g3.6 + g1", "g3.6+g1"),
    ],
)
def test_family_name_normalization(raw, canon):
    assert AlgebraId(raw).family == canon


def test_unknown_family_rejected():
    with pytest.raises(CatalogError):
        AlgebraId("g9.9")


def _b(alg, i, j):
    return bracket(alg, E[i - 1], E[j - 1])


def test_bracket_tables_spot_checks():
    a = instantiate(AlgebraId("g4.1"))
    assert np.allclose(_b(a, 2, 4), E[0]) and np.allclose(_b(a, 3, 4), E[1])

    a = instantiate(AlgebraId("g4.3"))
    assert np.allclose(_b(a, 1, 4), E[0]) and np.allclose(_b(a, 3, 4), E[1])

    a = instantiate(AlgebraId("g4.7"))
    assert np.allclose(_b(a, 1, 4), 2 * E[0])
    assert np.allclose(_b(a, 2, 4), E[1])
    assert np.allclose(_b(a, 3, 4), E[1] + E[2])
    assert np.allclose(_b(a, 2, 3), E[0])

    a = instantiate(AlgebraId("g4.10"))
    assert np.allclose(_b(a, 1, 3), E[0])
    assert np.allclose(_b(a, 2, 3), E[1])
    assert np.allclose(_b(a, 1, 4), -E[1])
    assert np.allclose(_b(a, 2, 4), E[0])

    a = instantiate(AlgebraId("g4.8", alpha=-1.0))
    assert np.allclose(_b(a, 2, 3), E[0])
    assert np.allclose(_b(a, 2, 4), E[1])
    assert np.allclose(_b(a, 3, 4), -E[2])
    assert np.allclose(_b(a, 1, 4), 0.0)

    a = instantiate(AlgebraId("g4.8", alpha=0.5))
    assert np.allclose(_b(a, 1, 4), 1.5 * E[0])
    assert np.allclose(_b(a, 3, 4), 0.5 * E[2])

    a = instantiate(AlgebraId("g4.9", alpha=0.0))
    assert np.allclose(_b(a, 2, 3), E[0])
    assert np.allclose(_b(a, 2, 4), -E[2])
    assert np.allclose(_b(a, 3, 4), E[1])
    assert np.allclose(_b(a, 1, 4), 0.0)

    a = instantiate(AlgebraId("g4.9", alpha=0.5))
    assert np.allclose(_b(a, 1, 4), E[0])
    assert np.allclose(_b(a, 2, 4), 0.5 * E[1] - E[2])

    a = instantiate(AlgebraId("g3.6+g1"))
    assert np.allclose(_b(a, 2, 3), E[0])
    assert np.allclose(_b(a, 3, 1), E[1])
    assert np.allclose(_b(a, 1, 2), -E[2])
    assert np.allclose(_b(a, 1, 4), 0.0)

    a = instantiate(AlgebraId("g3.7+g1"))
    assert np.allclose(_b(a, 1, 2), E[2])

    a = instantiate(AlgebraId("g3.4+g1", alpha=0.0))
    assert np.allclose(_b(a, 2, 3), E[0])
    assert np.allclose(_b(a, 3, 1), -E[1])

    a = instantiate(AlgebraId("g3.4+g1", alpha=0.5))
    assert np.allclose(_b(a, 2, 3), E[0] - 0.5 * E[1])
    assert np.allclose(_b(a, 3, 1), 0.5 * E[0] - E[1])

    a = instantiate(AlgebraId("g3.5+g1", alpha=0.5))
    assert np.allclose(_b(a, 2, 3), E[0] - 0.5 * E[1])
    assert np.allclose(_b(a, 3, 1), 0.5 * E[0] + E[1])


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("g4.2", {}),                       # missing alpha
        ("g4.2", {"alpha": 0.0}),           # alpha must be nonzero
        ("g4.5", {"alpha": 0.0, "beta": 0.5}),
        ("g4.5", {"alpha": 0.7, "beta": 0.3}),  # needs alpha <= beta
        ("g4.8", {"alpha": 2.0}),
        ("g4.9", {"alpha": -1.0}),
        ("g3.5+g1", {"alpha": -1.0}),
    ],
)
def test_invalid_parameters_rejected(family, kwargs):
    with pytest.raises(CatalogError):
        instantiate(AlgebraId(family, **kwargs))


def test_boundary_parameters_accepted():
    for fam, kw in [
        ("g4.5", {"alpha": -1.0, "beta": 1.0}),
        ("g4.5", {"alpha": 0.5, "beta": 0.5}),
        ("g4.5", {"alpha": 0.5, "beta": 1.0}),
        ("g4.8", {"alpha": 1.0}),
        ("g4.8", {"alpha": -1.0}),
        ("g4.9", {"alpha": 0.0}),
        ("g3.4+g1", {"alpha": 0.0}),
        ("g3.5+g1", {"alpha": 0.0}),
    ]:
        instantiate(AlgebraId(fam, **kw))


def test_automorphism_families_verified():
    rng = np.random.default_rng(7)
    ids = [
        default_id(f)
        for f in ["g4.1", "g4.2", "g4.3", "g4.4", "g4.5", "g4.6", "g4.7", "g4.10"]
    ] + [
        AlgebraId("g4.8", alpha=-1.0),
        AlgebraId("g4.8", alpha=0.0),
        AlgebraId("g4.8", alpha=0.5),
        AlgebraId("g4.9", alpha=0.0),
        AlgebraId("g4.9", alpha=0.5),
    ]
    for aid in ids:
        alg = instantiate(aid)
        fam = automorphism_family(aid)
        for _ in range(25):
            assert verify_automorphism(alg, fam.sample(rng)), str(aid)


def test_automorphism_matrix_rejects_bad_values():
    with pytest.raises(CatalogError, match="sigma must be one of"):
        automorphism_family(default_id("g4.10")).matrix(0, a1=1.0, sigma=2.0)
    with pytest.raises(CatalogError, match="constraint a1 != 0 violated"):
        automorphism_family(default_id("g4.7")).matrix(0, a1=0.0)


def test_no_automorphism_table_entries():
    for aid in [default_id("g3.1+g1"), default_id("g3.7+g1"),
                AlgebraId("g4.2", alpha=1.0), AlgebraId("g4.8", alpha=1.0)]:
        with pytest.raises(CatalogError):
            automorphism_family(aid)


def test_known_subspaces_presence():
    assert known_generating_subspace(default_id("g3.1+g1")) is None
    assert known_generating_subspace(default_id("g3.3+g1")) is None
    assert known_generating_subspace(AlgebraId("g4.2", alpha=1.0)) is None
    assert known_generating_subspace(AlgebraId("g4.5", alpha=0.5, beta=1.0)) is None
    assert known_generating_subspace(AlgebraId("g4.5", alpha=0.5, beta=0.5)) is None
    assert known_generating_subspace(AlgebraId("g4.8", alpha=1.0)) is None
    have = ["g3.2+g1", "g3.4+g1", "g3.5+g1", "g3.6+g1", "g3.7+g1", "g4.1",
            "g4.2", "g4.3", "g4.4", "g4.5", "g4.6", "g4.7", "g4.8", "g4.9",
            "g4.10"]
    for fam in have:
        ks = known_generating_subspace(default_id(fam))
        assert ks is not None and len(ks.span) == 2, fam


def test_corrupt_catalog_file(tmp_path, monkeypatch):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    monkeypatch.setenv("ABNORM_CATALOG", str(bad))
    with pytest.raises(CatalogCorruptError):
        instantiate(AlgebraId("g4.1"))


@pytest.mark.parametrize("text, ok", [
    ("alpha**2", True), ("alpha**0", True), ("alpha**4", True), ("-alpha**2", True),
    ("alpha**5", False), ("alpha**-1", False), ("alpha**2.0", False), ("alpha**True", False),
    ("(alpha+1)**2", False), ("2**2", False), ("alpha**alpha", False),
    ("9**999999999", False),  # refused before it runs: it would evaluate for minutes
])
def test_expression_powers_are_bounded(text, ok):
    if ok:
        catalog._expr(text, {"alpha"})
    else:
        with pytest.raises(CatalogCorruptError, match="power"):
            catalog._expr(text, {"alpha"})


def test_catalog_missing_family(tmp_path, monkeypatch):
    import abnorm

    src = os.path.join(os.path.dirname(abnorm.__file__), "data", "catalog.json")
    data = json.load(open(src))
    data["families"] = data["families"][:-1]
    trimmed = tmp_path / "trimmed.json"
    trimmed.write_text(json.dumps(data))
    monkeypatch.setenv("ABNORM_CATALOG", str(trimmed))
    with pytest.raises(CatalogCorruptError):
        instantiate(AlgebraId("g4.1"))


def test_default_id_fills_parameters():
    aid = default_id("g4.5")
    assert aid.alpha is not None and aid.beta is not None
    instantiate(aid)
