"""Content-addressed cache keys: canonicalization, salting, memoization.

A cache key is the SHA-256 of the *canonical* serialized
:class:`~repro.engine.ExperimentSpec` (recursively sorted keys, fixed
separators) salted with a code-version tag, so two specs describing
the same experiment hash identically no matter how they were
constructed, and a release that changes simulated behaviour implicitly
invalidates every stored entry.

Key derivation walks the whole spec (``dataclasses.asdict`` deep copy
+ JSON dump + SHA-256), which at ~17k keys/s used to dominate every
probe of the store.  Because a spec is normalized in ``__post_init__``
and treated as immutable afterwards, the derived key is memoized on
the spec instance per salt — repeated probes of the same spec (the
service admission path, ``run`` followed by ``put``, warm sweeps) cost
one dict lookup instead of a re-hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..engine import REPORT_SCHEMA, ExperimentSpec

__all__ = ["cache_key", "canonical_spec_json", "code_salt"]

#: instance attribute holding the per-salt memoized keys of one spec
_MEMO_ATTR = "_repro_cache_keys"


def code_salt() -> str:
    """The code-version salt folded into every cache key.

    Combines the package version with the run-report schema tag: a
    release that changes simulated behaviour (version bump) or the
    report layout (schema bump) implicitly invalidates every existing
    entry instead of replaying results from the older model.
    """
    from .. import __version__

    return f"{__version__}+{REPORT_SCHEMA}"


def canonical_spec_json(spec) -> str:
    """Canonical JSON serialization of a spec (or its dict form).

    Key order is sorted recursively and separators are fixed, so the
    byte string — and therefore the cache key — is invariant under
    keyword-argument order and dict-field insertion order.
    """
    payload = spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(spec, salt: Optional[str] = None) -> str:
    """Content hash of one spec (plus the code-version salt).

    Keys of :class:`~repro.engine.ExperimentSpec` instances are
    memoized per salt on the instance itself (specs are normalized at
    construction and never mutated afterwards); dict-form specs are
    hashed fresh every call.
    """
    salt = code_salt() if salt is None else salt
    memo = None
    if isinstance(spec, ExperimentSpec):
        memo = getattr(spec, _MEMO_ATTR, None)
        if memo is not None:
            key = memo.get(salt)
            if key is not None:
                return key
    text = f"{salt}\n{canonical_spec_json(spec)}"
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if isinstance(spec, ExperimentSpec):
        if memo is None:
            memo = {}
            object.__setattr__(spec, _MEMO_ATTR, memo)
        memo[salt] = key
    return key
