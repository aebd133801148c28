"""One-site mutation testing of the verdict path.

A mutant changes one site of a named function: ``+``/``-`` swapped, ``*``/``/``
swapped, ``**`` made ``*``, ``<``/``<=`` and ``>``/``>=`` swapped, or a float
constant c made 1.5 c (0.0 made 1.0).  Its module is rewritten from the AST
(``ast.unparse``) inside a copy of the repository.  There the module's own
``tests/test_<module>.py`` runs with ``-x``, and only if it passes does the
whole tier-1 suite, which contains it, run with ``-x``.  A failing or
timed-out run kills the mutant.  Mutants in ``EQUIVALENT`` compute the same
results, so they are listed but not run.

    python tools/mutate.py --list                   # every site, no test run
    python tools/mutate.py metrics.adm_mass_fit     # the mutants of one function
    python tools/mutate.py --jobs 2                 # every function of TARGETS

Before any mutant, the unparsed unmutated modules must pass the suite.  The
exit status is 1 when a mutant survives that is not listed as equivalent.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import functools
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/imcflab")

# module.qualname of every function the default run mutates
TARGETS = (
    "metrics.unit_sphere_area", "metrics.RadialProfile.schwarzschild",
    "metrics.ManifoldSpec.schwarzschild",
    "metrics.StaticPotential.excess", "metrics.sqrt_potential",
    "metrics.constant_potential", "metrics.profile_weight",
    "metrics.scalar_curvature", "metrics.static_residual",
    "metrics.harmonicity_residual", "metrics.adm_mass_flux", "metrics.adm_mass_fit",
    "metrics.require_on_table",
    "surfaces.graph_frame", "surfaces.graph_geometry", "surfaces.sphere_geometry",
    "surfaces._first_derivative_o4",
    "quantities.limit_target", "quantities.slice_quantities",
    "quantities.monotonicity_verdict",
    "flow.area_residual", "flow._rate", "flow.flow_sphere", "flow._w_solver",
    "flow._doubling",
    "scenario.run_scenario", "scenario.static_diagnostics", "scenario.exit_code_for",
)

# (function, site before, site after): why the mutant cannot change a result
EQUIVALENT = {
    ("surfaces.sphere_geometry", "h * one", "h / one"):
        "one is np.ones(1), and h / 1 is h",
    ("surfaces.sphere_geometry", "h * h / (n - 1) * one", "h * h / (n - 1) / one"):
        "one is np.ones(1), and x / 1 is x",
    ("surfaces._first_derivative_o4", "0.0", "1.0"):
        "the pole entries of rho' meet sin(theta) = 0 (1.2e-16 at pi) in "
        "graph_geometry's area element, far below the area's rounding",
    ("flow._w_solver", "0.0", "1.0"):
        "p seeds the first pivot only through couple[0] * p, and couple[0] is 0",
    ("flow._w_solver", "f_r.min() < _FLOOR", "f_r.min() <= _FLOOR"):
        "a product exactly at _FLOOR keeps 1/r finite, so both paths solve it",
    ("flow._w_solver", "c_r.min() < _FLOOR", "c_r.min() <= _FLOOR"):
        "a product exactly at _FLOOR keeps 1/r finite, so both paths solve it",
    ("flow._doubling", "d < z.size", "d <= z.size"):
        "at d = z.size the slices z[d:] and m[d:] are empty: the extra round does nothing",
}

_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Pow: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
         ast.GtE: ast.Gt}

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def _mutate(node: ast.AST) -> list:
    """One callable per site of ``node`` that mutates it in place."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
        return [lambda: setattr(node, "op", _SWAP[type(node.op)]())]
    if isinstance(node, ast.Compare):
        return [lambda i=i, op=op: node.ops.__setitem__(i, _SWAP[type(op)]())
                for i, op in enumerate(node.ops) if type(op) in _SWAP]
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return [lambda: setattr(node, "value", node.value * 1.5 if node.value else 1.0)]
    return []


def _sites(tree: ast.Module, qualname: str) -> list:
    """(node, mutator) pairs of one function, in a fixed walk order."""
    return [(node, fn) for node in ast.walk(_function(tree, qualname))
            for fn in _mutate(node)]


@functools.lru_cache(maxsize=None)
def _source(module: str) -> str:
    """The module's text, read once, so editing the tree leaves a run as it began."""
    return (ROOT / PACKAGE / f"{module}.py").read_text()


def enumerate_mutants(targets) -> list:
    """Every mutant of ``targets``: (module, qualname, index, line, before, after)."""
    mutants = []
    for target in targets:
        module, qualname = target.split(".", 1)
        source = _source(module)
        sites = []
        for index in range(len(_sites(ast.parse(source), qualname))):
            node, mutate = _sites(ast.parse(source), qualname)[index]  # a fresh tree each
            before = ast.unparse(node)
            mutate()
            sites.append((module, qualname, index, node.lineno, before, ast.unparse(node)))
        mutants += sorted(sites, key=lambda m: m[3])  # by line; the index keeps walk order
    return mutants


def mutant_source(module: str, qualname: str, index: int) -> str:
    """The module unparsed, with site ``index`` of ``qualname`` mutated."""
    tree = ast.parse(_source(module))
    _sites(tree, qualname)[index][1]()
    return ast.unparse(tree)


def _copy_repo(dest: Path) -> Path:
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, files):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def _run_tier1(tree: Path, timeout: float, *paths: str) -> bool:
    """True when the suite, or only the test files ``paths``, passes in
    ``tree``; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(TIER1 + list(paths), cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def _key(mutant) -> tuple:
    """The mutant's key in ``EQUIVALENT``: function, site before, site after."""
    return (f"{mutant[0]}.{mutant[1]}", mutant[4], mutant[5])


def _label(mutant) -> str:
    module, qualname, _index, line, before, after = mutant
    return f"{module}.{qualname}:{line}: {before}  ->  {after}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", default=TARGETS,
                        help="module.qualname of each function (default: TARGETS)")
    parser.add_argument("--list", action="store_true", help="print the sites and exit")
    parser.add_argument("--jobs", type=int, default=1, help="suites run at once")
    args = parser.parse_args(argv)

    mutants = enumerate_mutants(args.targets)
    keys = {_key(m) for m in mutants}
    stale = [key for key in EQUIVALENT
             if key[0] in args.targets and key not in keys]
    if stale:
        print(f"EQUIVALENT names sites that no longer exist: {stale}", file=sys.stderr)
        return 2
    equivalent = [m for m in mutants if _key(m) in EQUIVALENT]
    live = [m for m in mutants if m not in equivalent]
    if args.list:
        for m in mutants:
            print(("equivalent  " if m in equivalent else "") + _label(m))
        print(f"{len(mutants)} mutants, {len(equivalent)} equivalent")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        trees = [_copy_repo(Path(scratch) / f"tree{j}") for j in range(max(1, args.jobs))]
        modules = sorted({m[0] for m in mutants})
        for module in modules:
            unparsed = ast.unparse(ast.parse(_source(module)))
            (trees[0] / PACKAGE / f"{module}.py").write_text(unparsed)
        start = time.perf_counter()
        if not _run_tier1(trees[0], timeout=3600.0):
            print("the unparsed, unmutated modules fail the suite", file=sys.stderr)
            return 2
        timeout = max(60.0, 5.0 * (time.perf_counter() - start))
        for module in modules:
            (trees[0] / PACKAGE / f"{module}.py").write_text(_source(module))

        free = queue.Queue()
        for tree in trees:
            free.put(tree)

        def run(mutant) -> bool:
            module, qualname, index = mutant[:3]
            tree = free.get()
            path = tree / PACKAGE / f"{module}.py"
            try:
                path.write_text(mutant_source(module, qualname, index))
                # the module's own tests kill most mutants in a fraction of the suite
                return not (_run_tier1(tree, timeout, f"tests/test_{module}.py")
                            and _run_tier1(tree, timeout))
            finally:
                path.write_text(_source(module))
                free.put(tree)

        with concurrent.futures.ThreadPoolExecutor(len(trees)) as pool:
            killed = list(pool.map(run, live))
    survivors = [m for m, k in zip(live, killed) if not k]
    for m in survivors:
        print("SURVIVED  " + _label(m))
    for m in equivalent:
        print(f"equivalent  {_label(m)}  ({EQUIVALENT[_key(m)]})")
    print(f"{len(mutants)} mutants: {sum(killed)} killed, {len(survivors)} survived, "
          f"{len(equivalent)} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
