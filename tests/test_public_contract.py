"""The tests, demos and README reach the solver only through its public
contract: ``reduce_problem``'s result is a handle passed to ``mbi_solve``,
and a bank is judged by ``analytic_mse``, the recorded trace and the
per-block KLT oracle of ``conftest``. The solver's reduced form (H, the G_j,
their SVDs, the residual and the block solve) can then change without
touching any of them."""

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent

# Names of the reduced form. Each is written so that this pattern does not
# match its own text.
_INTERNALS = re.compile(
    r"r[p]\.[a-z_]+|e_yy_roo[t]|model\.[h]\b|\bobjectiv[e]\(|row_projecto[r]"
    r"|\b_residua[l]\(|_block_solv[e]\("
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
