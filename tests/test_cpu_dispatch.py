"""Output bytes do not depend on numpy's CPU dispatch.

numpy picks AVX-512 loops at run time where the CPU has them, and some of
them (np.log10, np.exp, np.power) round differently in the last bit from
the baseline loops. The 9-digit output formatting absorbs the difference.
This test pins that: it runs simulate, profile and interference on the S
inputs in two subprocesses, once as is and once with the AVX-512 targets
disabled through NPY_DISABLE_CPU_FEATURES, and requires the same bytes,
manifests included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sattraffic
from sattraffic import cli

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

# the dispatch targets that use AVX-512, as this numpy names them
AVX512 = [
    name for name in umath.__cpu_dispatch__
    if name.startswith("AVX512") or name == "X86_V4"
]
ENABLED = [name for name in AVX512 if umath.__cpu_features__.get(name)]

# runs simulate, profile and interference on the inputs into out/<command>
COMMANDS = """
import sys
from sattraffic.cli import main
inputs, out = sys.argv[1], sys.argv[2]
demand = [f"--{kind}={inputs}/{kind}.csv"
          for kind in ("pattern", "population", "aero", "maritime")]
for argv in (["simulate", *demand, "--hour", "9"], ["profile", *demand],
             ["interference", *demand, "--hour", "9", "--sizes", "1..7"]):
    if main([*argv, "--out-dir", f"{out}/{argv[0]}"]) != 0:
        sys.exit(1)
"""

# then prints which of the targets named on its command line this process's
# numpy has enabled
RUN = COMMANDS + """
import json
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
targets = sys.argv[3:]
print(json.dumps({name: bool(umath.__cpu_features__.get(name)) for name in targets}))
"""


def child(script, *argv, disabled=()):
    """The JSON of the last line script prints, run with argv in a fresh
    interpreter that imports this sattraffic, with the numpy CPU targets
    named in disabled turned off."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(Path(sattraffic.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def run(inputs, out, disabled):
    return child(RUN, inputs, out, *ENABLED, disabled=disabled)


def synth_s(inputs):
    """ROADMAP's S scenario in inputs: 7 beams, ~12k terminals."""
    for kind, seed, params in (
        ("pattern", 91, []),
        ("population", 92, ["--param", "cells=1000", "--param", "urban_fraction=0.15"]),
        ("aero", 93, ["--param", "flights=800"]),
        ("maritime", 94, ["--param", "ships=600"]),
    ):
        argv = ["synth", kind, "--seed", str(seed), "--out-dir", str(inputs), *params]
        assert cli.main(argv) == 0


def outputs(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.skipif(not ENABLED, reason="numpy dispatches no AVX-512 code on this host")
def test_outputs_do_not_depend_on_avx512_dispatch(tmp_path):
    inputs = tmp_path / "inputs"
    synth_s(inputs)
    assert all(run(inputs, tmp_path / "default", []).values())
    assert not any(run(inputs, tmp_path / "baseline", ENABLED).values())
    default, baseline = outputs(tmp_path / "default"), outputs(tmp_path / "baseline")
    assert len(default) == 9
    assert default.keys() == baseline.keys()
    for name in default:
        assert default[name] == baseline[name], name
