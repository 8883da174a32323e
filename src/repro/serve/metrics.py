"""Prometheus-style text exposition of the serving stats.

:func:`render_metrics` flattens the nested ``stats.summary()`` dict from a
:class:`~repro.serve.BatchDispatcher` / :class:`~repro.serve.ClusterGateway`
into the Prometheus text format (version 0.0.4): one ``# HELP`` / ``# TYPE``
header per metric followed by its samples, so any Prometheus-compatible
scraper can watch a serving deployment without calling Python::

    # HELP repro_requests Cumulative counter from stats.summary().
    # TYPE repro_requests counter
    repro_requests 128
    # TYPE repro_overload_shed_by_priority gauge
    repro_overload_shed_by_priority{priority="0"} 7

Rendering rules (pure function of the dict — no registry, no deps):

* Nested dicts join their path with ``_`` (``recovery.retries`` →
  ``repro_recovery_retries``).
* A dict whose values are all scalars *and* whose parent key is a known
  per-key breakdown (``shed_by_priority``, ``entries``, ``by_kind``,
  ``by_site``) renders as one labeled metric
  family instead of one metric per key.
* Known cumulative counters are typed ``counter``, everything else
  ``gauge``; booleans render as 0/1; non-numeric leaves are skipped.

``examples/metrics_server.py`` serves this text over ``http.server`` —
the scrape endpoint is ~20 lines of stdlib.
"""

from __future__ import annotations

import math

__all__ = ["render_metrics"]

#: leaf names that are cumulative counters (everything else is a gauge)
_COUNTERS = frozenset({
    "requests", "batches", "batched_requests", "cache_hits", "cache_misses",
    "escalations", "retries", "breaker_trips", "deadline_misses", "rejected",
    "shed", "degraded", "prewarms", "opportunistic_warmups", "transitions",
    "observations", "expired", "degraded_batches",
    "hits", "misses", "evictions",
    # plan cache and artifact store
    "compiled", "stores", "errors",
    # remote shard / cluster tier
    "reconnects", "resends", "replays", "late_results", "heartbeat_misses",
    "stale_recoveries", "dedup_hits", "replayed_running", "stale_misses",
    "connections", "hedges", "hedge_wins", "failovers",
})

#: parent keys whose scalar-valued dict children render as one labeled
#: family: parent key -> label name
_LABELED = {
    "shed_by_priority": "priority",
    "entries": "state",
    "by_kind": "kind",
    "by_site": "site",
}

#: parent keys whose dict-of-dicts children render as per-leaf families
#: labeled by the child key (e.g. cluster.members.alpha.reconnects ->
#: repro_cluster_members_reconnects{member="alpha"}): parent -> label name
_LABELED_NESTED = {
    "members": "member",
}

#: path components dropped from metric names (pure presentation nesting)
_SKIPPED_KEYS = frozenset({"last_transitions"})


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and newline must be escaped inside ``"..."``.
    Fingerprints and shard addresses are arbitrary strings — without this,
    a hostile (or merely unlucky) label value corrupts the exposition."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _scalar(value) -> float | None:
    """Numeric sample value, or ``None`` for a non-numeric leaf."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return None


def _format(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _is_labeled_family(key: str, value) -> bool:
    return (key in _LABELED and isinstance(value, dict) and value
            and all(_scalar(v) is not None for v in value.values()))


def _walk(prefix: str, node: dict, samples: list) -> None:
    for key, value in node.items():
        if key in _SKIPPED_KEYS:
            continue
        name = f"{prefix}_{_sanitize(str(key))}"
        if _is_labeled_family(key, value):
            label = _LABELED[key]
            for lkey, lval in sorted(value.items(), key=lambda kv: str(kv[0])):
                samples.append((name, key,
                                f'{label}="{_escape_label(str(lkey))}"',
                                _scalar(lval)))
        elif (key in _LABELED_NESTED and isinstance(value, dict) and value
                and all(isinstance(v, dict) for v in value.values())):
            # one family per leaf, labeled by the member/worker name, so a
            # cluster's per-link series share a metric name across links
            label = _LABELED_NESTED[key]
            for mkey, mdict in sorted(value.items(),
                                      key=lambda kv: str(kv[0])):
                pair = f'{label}="{_escape_label(str(mkey))}"'
                for lkey, lval in mdict.items():
                    if lkey in _SKIPPED_KEYS or isinstance(lval, dict):
                        continue
                    scalar = _scalar(lval)
                    leaf_name = f"{name}_{_sanitize(str(lkey))}"
                    if scalar is not None:
                        samples.append((leaf_name, lkey, pair, scalar))
                    elif isinstance(lval, str):
                        samples.append(
                            (leaf_name, lkey,
                             f'{pair},state="{_escape_label(lval)}"', 1.0))
        elif isinstance(value, dict):
            _walk(name, value, samples)
        else:
            scalar = _scalar(value)
            if scalar is None and isinstance(value, str):
                # string states (e.g. overload.state) become labeled 1-samples
                samples.append((name, key,
                                f'state="{_escape_label(value)}"', 1.0))
            elif scalar is not None:
                samples.append((name, key, None, scalar))


def render_metrics(summary: dict, prefix: str = "repro",
                   help_text: bool = True) -> str:
    """Render a ``stats.summary()`` dict as Prometheus exposition text.

    ``prefix`` namespaces every metric; ``help_text=False`` drops the
    ``# HELP`` lines (some ingestion pipelines prefer the terse form).
    Returns a string ending in a newline, ready to serve as
    ``text/plain; version=0.0.4``.
    """
    samples: list = []
    _walk(_sanitize(prefix), summary, samples)
    lines: list[str] = []
    seen_headers: set[str] = set()
    for name, leaf, label, value in samples:
        if value is None:
            continue
        if name not in seen_headers:
            seen_headers.add(name)
            kind = "counter" if leaf in _COUNTERS else "gauge"
            if help_text:
                lines.append(f"# HELP {name} "
                             f"{'Cumulative counter' if kind == 'counter' else 'Gauge'}"
                             f" from stats.summary().")
            lines.append(f"# TYPE {name} {kind}")
        body = f"{name}{{{label}}}" if label else name
        lines.append(f"{body} {_format(value)}")
    return "\n".join(lines) + "\n"
