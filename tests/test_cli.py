"""End-to-end runs of the command-line interface through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cppo import FiniteGroup
from cppo.atlas import catalog_names
from cppo.cli import main
from cppo.corpus import write_corpus_file
from cppo.harness import SCHEMA_VERSION

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY_DOCS = [{"atlas": "q8"}, {"atlas": "s4"}, {"atlas": "alt", "params": [5]}]


@pytest.fixture
def tiny_corpus(tmp_path):
    path = tmp_path / "corpus.json"
    write_corpus_file(path, TINY_DOCS)
    return str(path)


def test_atlas_list(capsys):
    assert main(["atlas", "list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == catalog_names()


def test_atlas_build(capsys):
    assert main(["atlas", "build", "s4"]) == 0
    out = capsys.readouterr().out
    assert "order: 24" in out and "expected_order: 24" in out


def test_classify_text(capsys):
    assert main(["classify", "atlas:s4"]) == 0
    out = capsys.readouterr().out
    assert "theorem1: pass" in out
    assert "tower_witness:" in out
    assert "fitting_height: 3" in out


def test_classify_structured(capsys):
    assert main(["--format", "structured", "classify", "atlas:q8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["name"] == "q8"


def test_classify_reports_commutator_witnesses(capsys):
    assert main(["classify", "atlas:dihedral(12)"]) == 0
    out = capsys.readouterr().out
    assert "is_cppo: False" in out
    assert "witness[cppo]:" in out


def test_classify_spec_file(tmp_path, capsys):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"atlas": "sl2_3"}))
    assert main(["classify", str(spec)]) == 0
    assert "order: 24" in capsys.readouterr().out


def test_classify_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_malformed_spec(tmp_path, capsys):
    spec = tmp_path / "g.json"
    spec.write_text("{oops")
    assert main(["classify", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_unknown_atlas_id(capsys):
    assert main(["classify", "atlas:nope"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("atlas_id", ["cyclic(a)", "direct_product(3,4)", "elem_abelian(+,2)"])
def test_atlas_build_rejects_parameters_of_the_wrong_kind(atlas_id, capsys):
    assert main(["atlas", "build", atlas_id]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [{"atlas": ["x"]}, {"atlas": "cyclic", "params": ["a"]}, {"atlas": "sym", "params": [True]}],
    ids=str,
)
def test_classify_rejects_malformed_atlas_specs(tmp_path, capsys, spec):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    assert main(["classify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_theorems_tiny_corpus(tiny_corpus, capsys):
    assert main(["verify", "theorems", "--corpus", tiny_corpus]) == 0
    out = capsys.readouterr().out
    assert "3 group(s), 0 failure(s), 0 skip(s)" in out


def test_verify_theorems_structured(tiny_corpus, capsys):
    assert main(["--format", "structured", "verify", "theorems", "--corpus", tiny_corpus]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in payload["reports"]] == ["q8", "sym(4)", "alt(5)"]
    assert payload["failures"] == []


def test_verify_theorems_strict_cap(tiny_corpus, capsys):
    assert main(["--cap", "30", "verify", "theorems", "--corpus", tiny_corpus]) == 0
    assert "skip:" in capsys.readouterr().out
    assert main(["--cap", "30", "--strict", "verify", "theorems", "--corpus", tiny_corpus]) == 1
    assert "FAIL: strict:" in capsys.readouterr().out


def test_classify_strict_cap(capsys):
    assert main(["--cap", "10", "classify", "atlas:s4"]) == 0
    assert "skipped: too large (cap=10)" in capsys.readouterr().out
    assert main(["--cap", "10", "--strict", "classify", "atlas:s4"]) == 1


def test_classify_beyond_the_group_cap(capsys):
    assert main(["classify", "atlas:sym(9)"]) == 0
    out = capsys.readouterr().out
    assert "radical_order: skipped: too large (cap=200000)" in out
    assert "derived_radical_order: skipped: too large (cap=200000)" in out
    # G'' comes from chain orders alone, so it is exact past the cap
    assert "second_derived_equals_derived: True" in out
    assert "theorem2: not_applicable" in out
    assert main(["--strict", "classify", "atlas:sym(9)"]) == 1


# 63 classes, more than the normal-subgroup lattice takes, yet well within
# the enumeration cap; simplicity is read off class closures, so it classifies
PSL29_X_PSL28 = {"atlas": "direct_product", "params": ["psl2(9)", "psl2(8)"]}


def test_classify_past_the_class_lattice_cap(capsys):
    assert main(["classify", "atlas:direct_product(psl2(9),psl2(8))"]) == 0
    assert "simple_quotient: NotSimple" in capsys.readouterr().out


def test_verify_theorems_past_the_class_lattice_cap(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus_file(corpus, [PSL29_X_PSL28, {"atlas": "s4"}])
    assert main(["verify", "theorems", "--corpus", str(corpus)]) == 0
    assert "2 group(s), 0 failure(s), 0 skip(s)" in capsys.readouterr().out


def test_classify_enumerates_within_the_cap_option(monkeypatch, capsys):
    enumerated = []
    raw_elements = FiniteGroup._raw_elements

    def recording(self):
        elems = raw_elements(self)
        enumerated.append(len(elems))
        return elems

    monkeypatch.setattr(FiniteGroup, "_raw_elements", recording)
    assert main(["--cap", "100", "classify", "atlas:psl2(7)"]) == 0
    assert "radical_order: skipped: too large (cap=100)" in capsys.readouterr().out
    assert main(["--cap", "100", "--strict", "classify", "atlas:psl2(7)"]) == 1
    assert max(enumerated, default=0) <= 100


def test_verify_theorems_enumerates_within_the_cap_option(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.json"
    write_corpus_file(corpus, [{"atlas": "psl2", "params": [7]}])
    enumerated = []
    raw_elements = FiniteGroup._raw_elements

    def recording(self):
        elems = raw_elements(self)
        enumerated.append(len(elems))
        return elems

    monkeypatch.setattr(FiniteGroup, "_raw_elements", recording)
    argv = ["verify", "theorems", "--corpus", str(corpus)]
    assert main(["--cap", "100"] + argv) == 0
    assert "radical_order skipped: too large (cap=100)" in capsys.readouterr().out
    assert main(["--cap", "100", "--strict"] + argv) == 1
    assert max(enumerated, default=0) <= 100


# an insoluble group, two soluble groups whose reports carry a tower witness,
# and one whose report carries a commutator witness
@pytest.mark.parametrize(
    "group", ["atlas:psl2(7)", "atlas:sl2_3", "atlas:s4", "atlas:dihedral(12)"]
)
def test_structured_report_does_not_depend_on_the_hash_seed(group):
    # bytes hashes are salted per process and int tuples are not, so a set
    # iteration order leaking into a report would show up here
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        run = subprocess.run(
            [sys.executable, "-m", "cppo.cli", "--format", "structured", "classify", group],
            env=env,
            capture_output=True,
            check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_verify_lemmas_subset(capsys):
    assert main(["verify", "lemmas", "--ids", "cc_iii"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("check(s), 0 failed\n")


def test_verify_lemmas_unknown_id(capsys):
    assert main(["verify", "lemmas", "--ids", "made_up"]) == 2
    assert "unknown lemma id" in capsys.readouterr().err


def test_tower_find(capsys):
    assert main(["tower", "find", "atlas:s4"]) == 0
    out = capsys.readouterr().out
    assert "height: 3" in out
    assert out.count("p=") == 3


def test_tower_find_insoluble(capsys):
    assert main(["tower", "find", "atlas:alt(5)"]) == 2
    assert "soluble" in capsys.readouterr().err


def test_commutators_orders_only(capsys):
    assert main(["commutators", "atlas:q8", "--orders-only"]) == 0
    out = capsys.readouterr().out
    assert "order 1: 1 commutator(s)" in out
    assert "order 2: 1 commutator(s)" in out
    assert "2 commutator(s) in a group of order 8" in out


def test_out_flag_redirects_everything(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["--out", str(target), "classify", "atlas:q8"]) == 0
    assert capsys.readouterr().out == ""
    assert "order: 8" in target.read_text()
