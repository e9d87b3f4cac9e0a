"""What importing the package costs, numpy only and no test-oracle
dependencies, and what its modules may name of each other."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import relaycap, sys; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


#: How ``mimo`` splits draws into blocks and reduces them.
BLOCK_NAMES = {"BLOCK_SIZE", "_block_bounds", "_num_blocks"}

#: How ``mimo`` computes per-draw columns and where the pool keeps them.
COLUMN_NAMES = {"_logdet_column", "_columns"}

#: How a table marks its exact entries and reduces their standard errors.
TABLE_STATE_NAMES = {"_exact", "_errors", "_read_column"}


def _names_outside_mimo() -> dict[str, set[str]]:
    """Every name, attribute and imported alias in each package module but
    ``mimo``, by module."""
    names = {}
    for path in sorted((SRC / "relaycap").glob("*.py")):
        if path.stem == "mimo":
            continue
        named = names[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return names


def test_only_mimo_names_the_block_partition():
    # other modules pass whole per-draw columns; only the package's public
    # re-export of BLOCK_SIZE names a block-level name outside mimo
    allowed = {"__init__": {"BLOCK_SIZE"}}
    for stem, named in _names_outside_mimo().items():
        leaked = named & BLOCK_NAMES - allowed.get(stem, set())
        assert not leaked, (stem, sorted(leaked))


def test_only_mimo_names_the_column_store():
    # the pool is the one holder of per-draw columns: other modules read
    # them through SamplePool.column or CapacityTable.entry_draws
    for stem, named in _names_outside_mimo().items():
        assert not named & COLUMN_NAMES, (stem, sorted(named & COLUMN_NAMES))


def test_only_mimo_names_a_tables_exactness():
    # other modules ask a table to make entries exact (make_exact) and read
    # its errors through std_errors; the mask and the error store are mimo's
    for stem, named in _names_outside_mimo().items():
        assert not named & TABLE_STATE_NAMES, (stem, sorted(named & TABLE_STATE_NAMES))
