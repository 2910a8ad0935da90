"""Shape and round-trip checks for the bundled verification corpus."""

import pytest

from cppo import corpus
from cppo.atlas import load_group_spec
from cppo.corpus import (
    corpus_groups,
    corpus_groups_upto,
    default_corpus,
    read_corpus_file,
    write_corpus_file,
)
from cppo.errors import SchemaError
from cppo.structure import is_soluble


def test_corpus_has_enough_small_soluble_groups():
    pairs = corpus_groups()
    small = [(n, g) for n, g in pairs if g.order() <= 200]
    assert len(small) >= 25
    soluble_small = [g for _, g in small if is_soluble(g)]
    assert len(soluble_small) >= 25


def test_corpus_covers_the_prime_power_order_list():
    names = [n for n, _ in corpus_groups()]
    for expected in ("psl2(4)", "psl2(7)", "psl2(8)", "psl2(9)", "psl2(17)",
                     "psl3_4", "sz8"):
        assert expected in names, expected


def test_corpus_names_are_unique_and_stable():
    first = [n for n, _ in corpus_groups()]
    second = [n for n, _ in corpus_groups()]
    assert first == second
    # one document deliberately carries raw generators instead of an atlas id
    assert "s4_explicit" in first
    assert len(set(first)) == len(first)


def test_default_corpus_returns_fresh_copies():
    docs = default_corpus()
    docs[0]["atlas"] = "clobbered"
    assert default_corpus()[0]["atlas"] != "clobbered"


def test_recorded_orders_match_the_built_groups():
    recorded = corpus._SOLUBLE + corpus._INSOLUBLE
    # the documents themselves carry no order, so corpus files stay the same
    assert [doc for _, doc in recorded] == default_corpus()
    for order, doc in recorded:
        assert load_group_spec(dict(doc)).order() == order, doc


@pytest.mark.parametrize("bound", [0, 30, 500, 1000, 10**6])
def test_corpus_groups_upto_builds_only_the_groups_within_the_bound(bound, monkeypatch):
    built = []

    def counted(doc):
        g = load_group_spec(doc)
        built.append(g.order())
        return g

    monkeypatch.setattr(corpus, "load_group_spec", counted)
    got = list(corpus_groups_upto(bound))
    assert all(order <= bound for order in built) and len(built) == len(got)
    # lazy: each group is built when the caller reaches it
    built.clear()
    lazy = corpus_groups_upto(bound)
    if got:
        next(lazy)
    assert len(built) == min(1, len(got))
    monkeypatch.undo()
    want = [(n, g) for n, g in corpus_groups() if g.order() <= bound]
    assert [(n, g._raw_gens) for n, g in got] == [(n, g._raw_gens) for n, g in want]


def test_explicit_generator_document_builds():
    pairs = dict(corpus_groups())
    assert pairs["s4_explicit"].order() == 24


def test_corpus_file_roundtrip(tmp_path):
    path = tmp_path / "corpus.json"
    write_corpus_file(path)
    assert read_corpus_file(path) == default_corpus()
    subset = default_corpus()[:3]
    write_corpus_file(path, subset)
    assert read_corpus_file(path) == subset


def test_read_corpus_file_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_corpus_file(path)
    path.write_text('{"atlas": "q8"}', encoding="utf-8")
    with pytest.raises(SchemaError):
        read_corpus_file(path)
