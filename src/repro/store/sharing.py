"""Cross-session shared prefixes: content addressing.

Real fleets serve huge populations that share system prompts, few-shot
templates and RAG preambles.  The AttentionStore of the paper keeps every
session's KV private; sharing dedups the common prefix across sessions
with one segment model (DESIGN.md §15):

* a *content hash* deterministically identifies a prefix by its token
  identity and the model that produced the KV — two sessions whose
  conversations start with the same prefix under the same model map to the
  same hash;
* a session's KV is at most two segments, each an ordinary
  :class:`~repro.store.item.KVCacheItem`: its private *tail*, keyed by the
  session id, and the shared *prefix* it reads, keyed by the negative id
  the prefix got at registration and carrying its content hash and
  reference count.  Both obey every byte-conservation and
  tier-exclusivity invariant;
* a referenced prefix is exempt from eviction and TTL expiry; at zero
  references it is an ordinary victim again;
* copy-on-write: a session that *diverges* from its prefix (context-window
  truncation rewrites its history) forks the overlapping tokens into its
  tail and drops its reference; readers keep the prefix untouched.

The cluster invariant relaxes from "exactly one copy per session" to
"exactly one copy per content hash per store" — distinct replicas may
each hold a copy of the same prefix (that is the point of content
addressing: the bytes are reconstructible from the hash).
"""

from __future__ import annotations

import hashlib

__all__ = ["shared_prefix_hash"]


def shared_prefix_hash(prefix_id: int, n_tokens: int, model_name: str) -> str:
    """Deterministic content hash for a shared prefix.

    The simulator models token *counts*, not token values, so prefix
    identity is ``(prefix template id, prefix length, model)`` — the
    stand-in for hashing the actual prefix token ids plus the model spec.
    Sessions drawn with the same template under the same model collide by
    construction; anything else cannot.
    """
    if prefix_id < 0:
        raise ValueError(f"prefix_id must be >= 0, got {prefix_id}")
    if n_tokens <= 0:
        raise ValueError(f"n_tokens must be positive, got {n_tokens}")
    payload = f"{model_name}\x00{prefix_id}\x00{n_tokens}".encode()
    return hashlib.sha256(payload).hexdigest()
