"""No state outlives a call.

No hhext module binds a cache: the resolution's generators are built
degree by degree inside each check that reads them.  No module-level
dict, list or set grows during a run either, so ranks, matrices, term
tables and products live only as long as the call that made them.
"""

import json
import subprocess
import sys
from functools import lru_cache

import hhext.cli  # noqa: F401  (loads every hhext module)
from hhext import resolution

# No module-level container may grow during a run.
GROWING_CONTAINERS = set()


def _caches():
    """The qualified names of the objects bound in an hhext module that
    have ``cache_info``, as an lru_cache-wrapped function does."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "hhext" or name.startswith("hhext.")]
    return {f"{fn.__module__}.{fn.__qualname__}"
            for mod in modules for fn in vars(mod).values()
            if hasattr(fn, "cache_info")}


def test_no_hhext_module_binds_a_cache():
    assert _caches() == set()


def test_a_planted_cache_is_caught(monkeypatch):
    """An lru_cache-wrapped function bound on an hhext module is found."""
    monkeypatch.setattr(resolution, "exponent_vectors",
                        lru_cache(maxsize=None)(resolution.exponent_vectors))
    assert _caches() == {"hhext.resolution.exponent_vectors"}


# Run in a fresh interpreter, so no earlier test has filled a container:
# prints {name: size} of every dict, list and set bound in an hhext module
# or on a class defined there, before and after one in-process run of the
# CLI arguments after the first.  A first argument "plant" binds a list
# hhext.exactla.planted_log that every rank call of the run appends to.
SIZES = """
import io, json, sys
from contextlib import redirect_stdout
import hhext.cli
from hhext import exactla, resolution

if sys.argv[1] == "plant":
    exactla.planted_log = []

    def rank(M, true_rank=resolution.rank):
        exactla.planted_log.append(M.rows)
        return true_rank(M)
    resolution.rank = rank

def sizes():
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "hhext" and not name.startswith("hhext."):
            continue
        for attr, value in vars(mod).items():
            holders = [(f"{name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == name:
                holders += [(f"{name}.{attr}.{a}", v)
                            for a, v in vars(value).items()]
            for key, v in holders:
                if "__" not in key and isinstance(v, (dict, list, set)):
                    out[key] = len(v)
    return out

before = sizes()
with redirect_stdout(io.StringIO()):
    code = hhext.cli.main(sys.argv[2:])
print(json.dumps([code, before, sizes()]))
"""


def _grown(first):
    """The module-level containers that grow in one dims run."""
    run = subprocess.run(
        [sys.executable, "-c", SIZES, first, "dims", "--n", "4", "--m-max",
         "3", "--char", "3", "--format", "json", "--no-timestamp"],
        capture_output=True, text=True, check=True)
    code, before, after = json.loads(run.stdout)
    assert code == 0
    return {key for key, size in after.items()
            if size > before.get(key, 0)}


def test_no_module_level_container_grows_in_a_run():
    """A dims run leaves every module-level dict, list and set as large as
    it was, apart from the listed ones: term tables, ranks and blocks live
    only as long as the call that made them."""
    assert _grown("clean") == GROWING_CONTAINERS


def test_a_planted_growing_container_is_caught():
    """A module-level list that the run appends to is seen to grow."""
    assert _grown("plant") == GROWING_CONTAINERS | {
        "hhext.exactla.planted_log"}
