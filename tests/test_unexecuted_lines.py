"""tools/unexecuted_lines.py reports never-run lines from the package's text
as it was before the traced run.  A stub stands in for the traced pytest
run, which takes minutes, and edits a file while it "runs"."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "unexecuted_lines", ROOT / "tools" / "unexecuted_lines.py"
)
unexecuted_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(unexecuted_lines)


def test_a_file_edited_during_the_run_is_reported_as_it_was_traced(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "cppo"
    package.mkdir(parents=True)
    arith = package / "arith.py"
    shutil.copy(ROOT / "src" / "cppo" / "arith.py", arith)
    original = arith.read_text()
    executable = sorted(unexecuted_lines.executable_lines(arith, original))
    missed = executable[-2:]

    def edit_during_the_run(pytest_args):
        # the edit moves every line three down
        arith.write_text("\n\n\n" + original)
        return 5, {(str(arith), n) for n in executable if n not in missed}

    monkeypatch.setattr(unexecuted_lines, "ROOT", tmp_path)
    monkeypatch.setattr(unexecuted_lines, "PACKAGE", package)
    monkeypatch.setattr(unexecuted_lines, "trace_run", edit_during_the_run)
    assert unexecuted_lines.main([]) == 5
    source = original.splitlines()
    want = ["src/cppo/arith.py:%d: %s" % (n, source[n - 1].strip()) for n in missed]
    assert capsys.readouterr().out.splitlines() == want + ["2 line(s) of src/cppo never ran"]
    assert arith.read_text() != original
