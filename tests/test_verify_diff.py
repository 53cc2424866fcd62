import verify_diff
from verify_diff import SRC, main

SMOKE = ("--suite", "babai", "--corpus", "smoke", "--seed", "1", "--budget", "2")


def test_verify_diff_prints_same_for_one_tree_and_diff_for_another(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify_diff, "RUNS", (SMOKE,))
    other = tmp_path / "src" / "cyclemeet"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("import sys\nprint('other')\nsys.exit(3)\n")
    assert main([str(SRC)]) == 0
    assert main([str(other.parent)]) == 0
    code = verify_diff.run(SRC, SMOKE)[0]
    command = "verify " + " ".join(SMOKE)
    assert capsys.readouterr().out.splitlines() == [
        f"SAME {code:2} {code:2}  {command}", f"DIFF  3 {code:2}  {command}"]
