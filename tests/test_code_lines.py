from code_lines import PACKAGE, code_lines, main


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    source = '"""Module.\n\nMore."""\n\n# a comment\ndef f():\n    """One line."""\n    return 1  # kept\n'
    assert code_lines(source) == 2


def test_code_lines_against_a_base_package_print_each_change(tmp_path, capsys):
    base = tmp_path / "cyclemeet"
    base.mkdir()
    (base / "cli.py").write_text("x = 1\n" * 300)
    (base / "gone.py").write_text("y = 2\n")
    assert main([str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    here = {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in PACKAGE.glob("*.py")}
    rows = {line.split()[0]: [int(cell) for cell in line.split()[1:]] for line in lines[1:]}
    assert lines[0].split() == ["module", "base", "here", "delta"]
    assert rows["cli"] == [300, here["cli"], here["cli"] - 300]
    assert rows["gone"] == [1, 0, -1]
    assert rows["cycles"] == [0, here["cycles"], here["cycles"]]
    assert rows["total"] == [301, sum(here.values()), sum(here.values()) - 301]
