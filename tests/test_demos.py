"""Each script in demos/ runs to completion without a warning."""

import os
import pathlib
import subprocess
import sys

import pytest

import kltmbi

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    # import this kltmbi in the child, and keep its temporary files in tmp_path
    src = str(pathlib.Path(kltmbi.__file__).parent.parent)
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # warnings are errors in the child too: a demo that overflows, leaks a
    # file or truncates at a tied singular value fails. A -W filter naming
    # kltmbi's module is ignored at start-up, so DegenerateTruncationWarning
    # is caught as the UserWarning it is.
    flags = ["-X", "dev", "-W", "error::RuntimeWarning"]
    flags += ["-W", "error::UserWarning", "-W", "error::ResourceWarning"]
    proc = subprocess.run(
        [sys.executable, *flags, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
