"""Content-addressed run identity for the persistent result store.

A stored result may only ever be replayed for a run the simulated tool is
*guaranteed* to answer bitwise-identically.  The key therefore covers the
full run identity:

- ``flow_version`` — bumped whenever anything that shapes QoR or runtime
  accounting changes (synthesis/implementation runtime models, the noise
  model, directive effects, boxing).  Results written under an older flow
  version simply never match again; no migration, no invalidation scans.
- ``source`` digest — the HDL text itself (two designs sharing a top
  name must not collide);
- ``top``, ``part``, ``step``, directives, target period, ``seed`` — the
  tool-session configuration;
- the requested metric set — the stored payload is the extracted metric
  vector, which depends on which metrics were requested;
- an explicit box clock port, only when one was given (so identities of
  evaluators that detect their clock are unchanged);
- the parameter binding (per-point component of the key).

Keys are hex SHA-256 digests over a canonical JSON form, so they are
stable across processes, platforms, and Python hash randomization.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

__all__ = [
    "FLOW_VERSION",
    "identity_key",
    "point_key",
    "run_identity",
    "source_digest",
]

#: Version tag of the simulated flow's QoR + runtime behaviour.  Bump on
#: ANY change to the synthesis/implementation/noise/directive models or
#: to boxing — see docs/performance.md ("cache-key versioning rules").
FLOW_VERSION = "veda-3"


def source_digest(text: str) -> str:
    """Short stable digest of an HDL source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_identity(
    *,
    source: str,
    top: str,
    part: str,
    step: str,
    synth_directive: str,
    impl_directive: str,
    target_period_ns: float,
    seed: int,
    metrics: tuple[tuple[str, str], ...],
    boxed: bool = True,
    language: str = "",
    clock_port: str | None = None,
    flow_version: str = FLOW_VERSION,
) -> dict[str, Any]:
    """The per-evaluator identity every point key is derived from."""
    identity: dict[str, Any] = {
        "flow_version": flow_version,
        "language": str(language),
        "source": source_digest(source),
        "top": top.lower(),
        "part": part,
        "step": str(step),
        "synth_directive": str(synth_directive),
        "impl_directive": str(impl_directive),
        "target_period_ns": round(float(target_period_ns), 6),
        "seed": int(seed),
        "metrics": [[name, sense] for name, sense in metrics],
        "boxed": bool(boxed),
    }
    if clock_port is not None:
        identity["clock_port"] = str(clock_port)
    return identity


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def identity_key(identity: Mapping[str, Any]) -> str:
    """Digest of the evaluator identity alone (the store's namespace)."""
    return hashlib.sha256(_canonical(dict(identity)).encode("utf-8")).hexdigest()


def point_key(identity: Mapping[str, Any], params: Mapping[str, int]) -> str:
    """The full content-addressed key of one run (identity + binding)."""
    binding = sorted((k.lower(), int(v)) for k, v in params.items())
    blob = _canonical({"identity": dict(identity), "params": binding})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
