import importlib.util

from line_coverage import executable_lines, traced


def test_a_line_that_never_ran_is_listed(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("traced_module", src)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.f(True)

    result, ran = traced(run, tmp_path)
    assert result == 1
    assert executable_lines(src) - ran[str(src)] == {4}
