"""Output correctness: digests of simulated statistics and their references.

Each operation (one cell, one replayed trace, one experiment) reduces its
simulated output to a short digest.  At :data:`DEFAULT_SEED` the digests
are compared with the committed ``reference.json``; at any other seed
they are printed so two commits can be compared by hand.  A digest covers
simulated quantities only, never host time, so a change that only speeds
the simulator up keeps every digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

from layers import demand_accesses, simulation_results

#: The seed the committed reference digests were recorded at.
DEFAULT_SEED = 1

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json"
)


def _digest(document: Any) -> str:
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=12).hexdigest()


def sim_summary(result: Any) -> List[Dict[str, Any]]:
    """The statistics a digest covers, per core of one simulation."""
    return [
        {
            "cycles": repr(sim.core.cycles),
            "instructions": sim.core.instructions,
            "issued": sim.issued_by_prefetcher,
            "useful": sim.useful_by_prefetcher,
            "table_lookups": sim.table_lookups,
            "table_misses": sim.table_misses,
            "dram_reads": sim.dram_reads,
        }
        for sim in simulation_results(result)
    ]


def sim_digest(result: Any) -> str:
    return _digest(sim_summary(result))


def rows_digest(rows: Any) -> str:
    """Digest of an experiment's rows (the suite's operation output)."""
    return _digest(rows)


def sim_invariants(result: Any, accesses: Optional[int] = None) -> List[str]:
    """Accounting that must hold for every simulation, at any seed."""
    problems = []
    for sim in simulation_results(result):
        if sim.core.cycles <= 0 or sim.core.instructions <= 0:
            problems.append("no cycles or instructions simulated")
        for name, issued in sim.issued_by_prefetcher.items():
            if sim.useful_by_prefetcher.get(name, 0) > issued:
                problems.append(f"{name}: more useful prefetches than issued")
        if sim.table_misses > sim.table_lookups:
            problems.append("more table misses than lookups")
    if accesses is not None:
        simulated = demand_accesses(result)
        if simulated != accesses:
            problems.append(f"simulated {simulated} of {accesses} accesses")
    return problems


def load_reference(
    workload: str, seed: int, path: str = REFERENCE_PATH
) -> Optional[Dict]:
    """The committed digests of ``workload``, or None at other seeds."""
    if seed != DEFAULT_SEED:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def mismatches(reference: Mapping[str, str], digests: Mapping[str, str]) -> List[str]:
    """Operations whose digest differs from, or is missing in, the reference."""
    names = sorted(set(reference) | set(digests))
    return [name for name in names if reference.get(name) != digests.get(name)]


def code_digest(roots: Sequence[str]) -> str:
    """Digest of the code under test: every ``.py`` file under ``roots``.

    A file's path relative to its root and its bytes both count, so any
    edit to the program or to the benchmark's own files changes it.
    """
    digest = hashlib.blake2b(digest_size=8)
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "tests"))
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def repeat_mismatches(path: str, record: Mapping[str, Any]) -> List[str]:
    """Compare ``record`` with what an earlier run of the same code recorded.

    ``path`` names the code under test (see :func:`code_digest`), the
    workload and the seed.  The first such run records ``record`` there;
    every later one must reproduce it exactly.  Returns the names that
    differ.
    """
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(record), fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    names = sorted(set(earlier) | set(record))
    return [name for name in names if earlier.get(name) != record.get(name)]
