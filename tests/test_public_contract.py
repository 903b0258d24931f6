"""The package's public surface is what the README's Public API list names,
and the tests, demos and README reach the solver only through its public
contract: ``mbi_solve`` solves from the model itself, and a bank is judged
by ``analytic_mse``, the recorded trace and the per-block KLT oracle of
``conftest``. The solver's set-up (H, the G_j, their SVDs, the benchmark's
hook that forms them, the residual and the block solve) can then change
without touching any of them."""

import inspect
import pathlib
import re

import numpy as np
import pytest

import kltmbi
from kltmbi import (
    ImageScenarioData,
    MbiConfig,
    SampleEnsemble,
    example1_model,
    factorize_wsn,
    init_bank,
    mbi_solve,
)
from kltmbi.linalg import svd

ROOT = pathlib.Path(__file__).parent.parent


def _readme_public_api() -> list[str]:
    """The names the README's Public API list holds, one stage a line."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return [
        name
        for line in section.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line)
    ]


def test_all_the_namespace_and_the_readme_list_are_one_set():
    listed = _readme_public_api()
    # the package's attributes less its submodules and private names;
    # __version__ is the one dunder it exports
    public = {
        name
        for name, value in vars(kltmbi).items()
        if (not name.startswith("_") or name == "__version__")
        and not inspect.ismodule(value)
    }
    assert len(listed) == len(set(listed)), listed
    assert len(kltmbi.__all__) == len(set(kltmbi.__all__)), kltmbi.__all__
    assert set(kltmbi.__all__) == public
    assert set(listed) == public


# Names of the solver's set-up. Each is written so that this pattern does
# not match its own text.
_INTERNALS = re.compile(
    r"r[p]\.[a-z_]+|e_yy_roo[t]|model\.[h]\b|\bobjectiv[e]\(|row_projecto[r]"
    r"|\b_residua[l]\(|_block_solv[e]\(|reduce_proble[m]"
)


def test_reduced_form_stays_inside_the_solver():
    paths = [
        *sorted((ROOT / "tests").rglob("*.py")),
        *sorted((ROOT / "demos").rglob("*.py")),
        ROOT / "README.md",
    ]
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _INTERNALS.search(line)
    ]
    assert not hits, "\n".join(hits)


def _two_of_each():
    """Two instances with equal arrays of each type that holds arrays."""
    model = example1_model()
    bank = init_bank(model)
    ens = SampleEnsemble(x=np.ones((2, 3)), y=np.ones((6, 3)))
    cfg = MbiConfig(epsilon=0.0, max_iterations=3)

    def image():
        return ImageScenarioData(
            x_full=np.ones((2, 3)), y_full=np.ones((6, 3)), ensemble=ens
        )

    return {
        "SecondMomentModel": (model, example1_model()),
        "SampleEnsemble": (ens, SampleEnsemble(x=np.ones((2, 3)), y=np.ones((6, 3)))),
        "CompressorBank": (bank, init_bank(model)),
        "FactorizedWsn": (factorize_wsn(bank), factorize_wsn(bank)),
        "ImageScenarioData": (image(), image()),
        "SvdFactors": (svd(np.eye(2)), svd(np.eye(2))),
        "MbiTrace": (mbi_solve(model, bank, cfg)[1], mbi_solve(model, bank, cfg)[1]),
    }


@pytest.mark.parametrize("kind", sorted(_two_of_each()))
def test_types_holding_arrays_compare_by_identity(kind):
    a, b = _two_of_each()[kind]
    assert type(a).__name__ == kind
    assert a != b and not a == b
    assert a == a
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert [b, a].index(a) == 1 and a in [b, a]


def test_a_recorded_bank_is_found_in_the_trace():
    model = example1_model()
    cfg = MbiConfig(epsilon=0.0, max_iterations=5)
    _, trace = mbi_solve(model, init_bank(model), cfg)
    bank = trace.banks[3]
    assert bank in trace.banks
    assert trace.banks.index(bank) == 3
