"""What each entry point imports, checked in fresh interpreters.

In-process tests run after other tests have imported every etaq module,
so they cannot see a command that loads too much or a handler that is
missing its import; a new interpreter per check can."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etaq
from etaq.cli import main

SRC = str(Path(etaq.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# prints the sorted etaq modules loaded after each statement, and
# whether the eta expansion loaded dataclasses (with inspect, about a
# fifth of the CLI's import time)
PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "etaq" or m.startswith("etaq."))

import etaq
steps = [loaded()]
import etaq.cli
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = etaq.cli.main(["expand", "--eta", "eta(1)^24", "--prec", "30", "--json"])
steps.append(loaded())
print(json.dumps([code, steps, "dataclasses" in sys.modules]))
"""

CLI_MODULES = ["etaq", "etaq.arith", "etaq.cli", "etaq.eta", "etaq.kernels", "etaq.series"]


def test_each_import_loads_only_what_it_runs():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=ENV,
                          check=False)
    assert (done.returncode, done.stderr) == (0, "")
    code, (package, cli, expand), dataclasses = json.loads(done.stdout)
    assert package == ["etaq"]
    assert cli == CLI_MODULES
    assert (code, expand, dataclasses) == (0, CLI_MODULES, False)


# prints a command's exit code and the sorted etaq modules loaded after it
COMMAND_PROBE = """
import contextlib, io, json, sys
import etaq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = etaq.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m == "etaq" or m.startswith("etaq."))]))
"""

# (argv, modules loaded besides CLI_MODULES): only the commands that
# compute at a cusp load the cusp code and the cyclotomic layer
COMMAND_MODULES = [
    (["search", "--weight", "2", "--level", "9"], ["etaq.eisenstein", "etaq.search"]),
    (["cusp-expand", "--element", "8*E2(1)-32*E2(4)", "--level", "4", "--cusp", "1/2", "--prec", "5"],
     ["etaq.cusps", "etaq.cyclotomic", "etaq.eisenstein"]),
    (["verify", "--suite", "maingen", "--samples", "1", "--levels", "4,9", "--weights", "2,4"],
     ["etaq.cusps", "etaq.cyclotomic", "etaq.eisenstein"]),
]


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_command_loads_only_what_it_runs(argv, extra):
    done = subprocess.run([sys.executable, "-c", COMMAND_PROBE, json.dumps(argv)], capture_output=True,
                          text=True, env=ENV, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [0, sorted(CLI_MODULES + extra)]


# (argv, exit code): the second-derivative suite exits 1 because the
# published uniqueness claim fails (see test_acceptance.py, criterion 8b)
COMMANDS = [
    (["expand", "--element", "8*E2(1)-32*E2(4)", "--level", "4", "--prec", "5"], 0),
    (["eta-order", "--eta", "eta(3)^10*eta(1)^-3*eta(9)^-3"], 0),
    (["cusp-expand", "--element", "8*E2(1)-32*E2(4)", "--level", "4", "--cusp", "1/2",
      "--prec", "5"], 0),
    (["search", "--weight", "2", "--level", "9"], 0),
    (["dual-pairs"], 0),
    (["second-derivative"], 0),
    (["verify", "--suite", "identities", "--prec", "4"], 0),
    (["verify", "--suite", "corollaries"], 0),
    (["verify", "--suite", "maingen", "--samples", "1", "--levels", "4,9", "--weights", "2,4"], 0),
    (["verify", "--suite", "second-derivative"], 1),
]


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_every_command_runs_from_a_fresh_interpreter(capsys, argv, code):
    """Each command, as the first thing a new process runs, exits with its
    verdict, prints nothing on stderr and prints what it prints in-process."""
    done = subprocess.run([sys.executable, "-m", "etaq", *argv, "--json"], capture_output=True,
                          text=True, env=ENV, check=False)
    assert (done.returncode, done.stderr) == (code, "")
    assert main([*argv, "--json"]) == code
    assert done.stdout == capsys.readouterr().out
