"""What a command holds in memory beside its own arrays.

simulate, profile and interference do their work in one call inside the
output set, so that none of their arrays is still live when the manifest is
hashed. They never import numpy.ma (~1 MB), which np.unique, np.median and
np.percentile import on first use, and importing the command line does not
load OpenSSL (~3.6 MB of resident memory), which only the manifest's
hashing needs.
"""

import tracemalloc

import pytest

from sattraffic import cli

from test_cpu_dispatch import COMMANDS, child, synth_s

DEMAND = ("pattern", "population", "aero", "maritime")
ARGS = {
    "simulate": ["--hour", "9"],
    "profile": [],
    "interference": ["--hour", "9", "--sizes", "1..7"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    synth_s(root)
    return root


@pytest.mark.parametrize("command", sorted(ARGS))
def test_stage_data_is_released_before_the_manifest_is_hashed(
        command, inputs, tmp_path, monkeypatch):
    argv = [command, *(f"--{kind}={inputs}/{kind}.csv" for kind in DEMAND),
            *ARGS[command], "--out-dir", str(tmp_path)]
    # a first run imports what the command imports, so the traced run's
    # memory is its data alone
    assert cli.main(argv) == 0
    live = []
    sha256_file = cli.sha256_file

    def digest(path):
        if not live:
            live.append(tracemalloc.get_traced_memory()[0])
        return sha256_file(path)

    monkeypatch.setattr(cli, "sha256_file", digest)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # on S, 0.05 MB of peaks of 2.8-4.3 MB; a command that still held its
    # matrices or profile at the first digest kept 0.8-1.9 MB
    assert live[0] < peak / 10


def test_commands_never_import_numpy_ma(inputs, tmp_path):
    script = COMMANDS + 'print("true" if "numpy.ma" in sys.modules else "false")\n'
    assert child(script, inputs, tmp_path) is False


def test_importing_the_command_line_leaves_openssl_unloaded():
    script = (
        "import json, sys\n"
        "bare = '_hashlib' in sys.modules\n"
        "import sattraffic.cli\n"
        "print(json.dumps([bare, '_hashlib' in sys.modules]))\n"
    )
    bare, loaded = child(script)
    if bare:
        pytest.skip("this interpreter loads _hashlib at start-up")
    assert not loaded
