"""On-disk cache for the project call graph.

Building the graph costs a two-pass AST walk over every module — cheap,
but it dominates a warm ``repro lint`` run.  The serialised graph is
keyed by :func:`flow_tree_token`, one SHA-256 over the path and bytes of
every ``.py`` file under the analysed root plus
:data:`FLOW_SCHEMA_VERSION`, so any source edit anywhere under the root
invalidates the cached graph.

Entries live under ``$REPRO_CACHE_DIR``-or-``~/.cache/repro-injectable``
``/flow`` as single JSON files; a corrupt or mismatched entry is treated
as a miss and rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.lintkit.flow.graph import FlowGraph

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump when the graph schema or builder semantics change — old cached
#: graphs must never feed new checkers.
FLOW_SCHEMA_VERSION = 1


def default_flow_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-injectable``, ``/flow``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser() / "flow"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-injectable" / "flow"


def flow_tree_token(root: Path) -> str:
    """Cache key for the analysed tree at ``root``.

    Files are walked in sorted order and keyed by relative POSIX path, so
    the token is identical across machines for the same source tree.
    """
    root = Path(root)
    digest = hashlib.sha256(f"flow:{FLOW_SCHEMA_VERSION}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_graph(cache_dir: Path, token: str) -> Optional[FlowGraph]:
    """Cached graph for ``token``, or ``None`` on any kind of miss."""
    path = Path(cache_dir) / f"graph-{token[:32]}.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("token") != token or \
            payload.get("schema") != FLOW_SCHEMA_VERSION:
        return None
    try:
        return FlowGraph.from_dict(payload.get("graph", {}))
    except (KeyError, IndexError, TypeError):
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store_graph(cache_dir: Path, token: str, graph: FlowGraph) -> None:
    """Persist ``graph`` under ``token`` (atomic rename, best-effort)."""
    cache_dir = Path(cache_dir)
    path = cache_dir / f"graph-{token[:32]}.json"
    payload = {
        "schema": FLOW_SCHEMA_VERSION,
        "token": token,
        "graph": graph.to_dict(),
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass  # caching is best-effort; never fail the lint run
