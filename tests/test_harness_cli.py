"""The two report-writing harnesses parse their command line first.

``python benchmarks/wire_harness.py`` and ``benchmarks/scale_harness.py``
overwrite a committed ``BENCH_*.json`` when they run.  ``--help`` and a
misspelt flag must stop before that: usage, and exit 0 or 2.
"""

import importlib

import pytest

HARNESSES = {
    "benchmarks.wire_harness": ("--stages", "print_stages", ("run_all",)),
    "benchmarks.scale_harness": ("--profile", "profile_quiescent", ("run_grid",)),
}


@pytest.fixture(params=sorted(HARNESSES))
def harness(request, monkeypatch):
    """The harness module with everything that measures or writes
    replaced by a recorder."""
    module = importlib.import_module(request.param)
    flag, printer, runners = HARNESSES[request.param]
    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")

        return record

    for name in (printer, *runners, "write_report"):
        monkeypatch.setattr(module, name, recorder(name))
    return module, flag, printer, calls


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--stagse"], 2), (["extra"], 2)])
def test_help_and_unknown_arguments_exit_before_any_run(harness, argv, code, capsys):
    module, _flag, _printer, calls = harness
    with pytest.raises(SystemExit) as exited:
        module.main(argv)
    assert exited.value.code == code
    assert calls == []
    out, err = capsys.readouterr()
    assert "usage:" in (out if code == 0 else err)


def test_the_print_only_flag_runs_only_its_printer(harness):
    module, flag, printer, calls = harness
    with pytest.raises(AssertionError, match=f"{printer} ran"):
        module.main([flag])
    assert calls == [printer]
