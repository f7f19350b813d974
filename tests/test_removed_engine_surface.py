"""One simulation engine: the removed engine-mode surface fails closed.

``--engine`` (``nachos-repro``, ``nachos-serve``), ``--engines``
(``nachos-repro verify``) and the serve request's ``engine`` field once
chose between alternative engines.  They are gone, and each must be
rejected loudly, not ignored.  The numpy dependency left with the
vectorized engine, so the experiment and serve layers must not import
it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.serve import NachosServeDaemon, ServeClient, ServeError
from repro.serve import daemon as serve_daemon

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_usage_error(main, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code, capsys.readouterr().err


def _serve_request_error():
    d = NachosServeDaemon(port=0, quiet=True, batch_window=0.005)
    thread = d.serve_in_thread()
    try:
        with pytest.raises(ServeError) as excinfo:
            ServeClient(port=d.port).submit("gather", engine="fast")
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    return excinfo.value.status, str(excinfo.value.payload.get("error"))


CASES = {
    "repro-fig11-engine": (
        lambda capsys: _cli_usage_error(
            cli.main, ["fig11", "--engine", "fast"], capsys
        ),
        2,
        "unrecognized arguments: --engine fast",
    ),
    "repro-verify-engines": (
        lambda capsys: _cli_usage_error(
            cli.main, ["verify", "--engines", "all"], capsys
        ),
        2,
        "unrecognized arguments: --engines all",
    ),
    "serve-engine-flag": (
        lambda capsys: _cli_usage_error(
            serve_daemon.main, ["--engine", "fast"], capsys
        ),
        2,
        "unrecognized arguments: --engine fast",
    ),
    "serve-request-field": (
        lambda capsys: _serve_request_error(),
        400,
        "unknown request field(s): engine",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_removed_engine_surface_fails_closed(case, capsys):
    run, want_code, want_message = CASES[case]
    code, message = run(capsys)
    assert code == want_code, f"{case}: exit/status {code}, message {message!r}"
    assert want_message in message, f"{case}: {message!r}"


def test_experiment_and_serve_layers_do_not_import_numpy():
    script = (
        "import sys\n"
        "import repro.experiments.common, repro.serve.daemon\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
