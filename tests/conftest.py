"""Fixtures: ``battery``, one run of the published battery that every
battery check reads, so that its grids live in the script alone, and
``work``, the framed work of one test."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridstore import experiments, model

from helpers import framed_work


@pytest.fixture
def work():
    """``helpers.framed_work`` over this package, counting until the test ends."""
    with framed_work() as counted:
        yield counted


@pytest.fixture(scope="session")
def battery(tmp_path_factory) -> SimpleNamespace:
    """What ``scripts/run_experiments.py --experiment all`` did, run once:
    each CSV's bytes by file name (``csv``), and by family (the script's
    experiment name) what its runner made: the ``rows`` it writes,
    ``(scenario, result)`` of its ``solves``, the scenarios ``model._valid``
    passed (``validated``), each ``model.Check`` built (``checks``) and its
    ``helpers.framed_work`` (``work``).  Every patch is gone on return."""
    out = tmp_path_factory.mktemp("battery")
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lists = {field: defaultdict(list) for field in ("rows", "solves", "validated", "checks")}
    record, family = SimpleNamespace(csv={}, work={}, **lists), None

    def spy(mp, module, name, field, entries):  # ``entries(args, result)`` go to ``field``
        f = getattr(module, name)

        def call(*args):
            result = f(*args)
            getattr(record, field)[family].extend(entries(args, result))
            return result

        mp.setattr(module, name, call)

    def as_family(name, runner):
        def run(out_dir):
            nonlocal family
            family = name
            with framed_work() as record.work[name]:
                runner(out_dir)

        return run

    argv = ["run_experiments.py", "--experiment", "all", "--out-dir", str(out)]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(sys, "argv", argv)
        spy(mp, experiments, "iterate_best_response", "solves", lambda a, result: [(*a, result)])
        spy(mp, model, "_valid", "validated", lambda a, ok: a)
        spy(mp, model, "Check", "checks", lambda a, check: [check])
        for name in ("write_sweep_csv", "write_required_price_csv"):
            spy(mp, script, name, "rows", lambda a, path: a[0])
        # ``main`` reads its runners from the module when it is called.
        for name in script.EXPERIMENTS[:-1]:  # the families: the last is "all"
            runner = name.replace("-", "_")
            mp.setattr(script, runner, as_family(name, getattr(script, runner)))
        script.main()
    record.csv.update((csv.name, csv.read_bytes()) for csv in out.glob("*.csv"))
    return record
