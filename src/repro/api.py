"""The one documented front door: :class:`Session`.

PRs 1–4 grew a fast, cached, fault-tolerant experiment stack, but its
public surface accreted into kwarg sprawl: ``Engine.run(cache=...)``,
``Engine.run_many(workers=..., cache=...)``, ``autotune.tune(...)``
each re-threading the same knobs.  A :class:`Session` binds those
cross-cutting resources — the engine, the result cache, the worker
width — **once**, and every verb (``run`` / ``sweep`` / ``tune`` /
``serve``) reuses them::

    from repro.api import Session

    s = Session(cache="~/.cache/repro", workers=4)
    report = s.run(mode="cb", steps=200)        # one experiment
    sweep = s.sweep(specs)                      # parallel sweep
    tuned = s.tune(steps=200)                   # partition autotune
    with s.serve() as svc:                      # long-running service
        svc.submit(spec).result()

Every verb returns the same report objects the lower layers produce
(bit-identical to calling :class:`~repro.engine.Engine` directly), so
dropping down a layer is always possible — the facade adds no
behaviour, only a stable surface.  The CLI, claims validation, and the
figure runners all route through a Session.
"""

from __future__ import annotations

from typing import List, Optional

from .engine import Engine, ExperimentSpec, RunReport, SweepReport, _coerce_cache

__all__ = ["Session"]


class Session:
    """Bound engine + cache + worker width; the unified entry point.

    ``cache`` accepts a :class:`~repro.cache.ResultCache` or a
    directory path (None disables memoization); ``workers`` is the
    process-pool width sweeps and tunes fan out over; ``engine``
    replaces the default :class:`~repro.engine.Engine` (tests inject
    recording stubs through it).

    ``fleet`` points :meth:`submit` at a sharded service fleet instead
    of a session-owned local service: an in-process
    :class:`~repro.fleet.FleetRouter`, a connected
    :class:`~repro.fleet.FleetClient`, or a ``"host:port"`` address (a
    client is built — and owned — on first use).
    """

    def __init__(
        self,
        cache=None,
        workers: int = 1,
        engine: Optional[Engine] = None,
        fleet=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        self.engine = engine or Engine()
        self.cache = _coerce_cache(cache)
        self.workers = workers
        self.fleet = fleet
        self._service = None  # lazily-owned service behind submit()
        self._owned_fleet_client = None  # built from a "host:port" fleet=

    # -- verbs ---------------------------------------------------------------
    def run(self, spec: Optional[ExperimentSpec] = None, /, **fields) -> RunReport:
        """Run one experiment; returns its :class:`~repro.engine.RunReport`.

        Accepts a ready :class:`~repro.engine.ExperimentSpec` *or* the
        spec fields directly (``s.run(mode="cb", steps=100)``).  The
        session cache memoizes the run when attached.
        """
        spec = self._spec(spec, fields)
        return self.engine.run(spec, cache=self.cache)

    def sweep(self, specs, workers: Optional[int] = None) -> SweepReport:
        """Run independent specs as one sweep over the session's pool.

        ``workers`` overrides the session width for this sweep only.
        Results are bit-identical to serial execution regardless of
        worker count.
        """
        return self.engine.run_many(
            list(specs),
            workers=self.workers if workers is None else workers,
            cache=self.cache,
        )

    def tune(self, space=None, nested: bool = False, **kwargs):
        """Autotune the Cluster/Booster partition; returns a TuneReport.

        Forwards to :func:`repro.autotune.tune` with the session's
        engine, cache, and worker width pre-bound (each still
        overridable by keyword).  ``nested=True`` widens the search to
        hierarchical partitions — homogeneous pools sub-split into
        co-scheduled fields/particles arms — either by flipping the
        flag on the default space or on the ``space`` you pass in.
        """
        import dataclasses as _dc

        from .autotune import TuneSpace, tune

        if nested:
            space = _dc.replace(space or TuneSpace(), nested=True)
        kwargs.setdefault("engine", self.engine)
        kwargs.setdefault("cache", self.cache)
        kwargs.setdefault("workers", self.workers)
        return tune(space=space, **kwargs)

    def serve(self, **kwargs):
        """A new :class:`~repro.serve.ExperimentService` on this
        session's engine, cache, and worker width (each overridable by
        keyword; see the service for queue/batch/retry/durability
        knobs)."""
        from .serve import ExperimentService

        kwargs.setdefault("engine", self.engine)
        kwargs.setdefault("cache", self.cache)
        kwargs.setdefault("workers", self.workers)
        return ExperimentService(**kwargs)

    def submit(
        self,
        spec: Optional[ExperimentSpec] = None,
        /,
        priority: int = 0,
        client: str = "api",
        deadline_s: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        **fields,
    ):
        """Submit one experiment to this session's service; returns the
        :class:`~repro.serve.queue.Job` handle.

        Accepts a ready spec or spec fields (like :meth:`run`).  With
        ``fleet=`` set, the spec goes to the fleet instead — a router
        returns its :class:`~repro.fleet.FleetJob`, a client/address a
        resolved :class:`~repro.fleet.RemoteJob` — otherwise the
        session lazily owns one service (created on first use with the
        session's engine/cache/workers; :meth:`close` shuts it down).
        Backpressure is absorbed client-side: a full queue is retried
        with decorrelated-jitter backoff honoring the service's
        retry-after hint, for at most ``wait_timeout`` seconds of
        waiting (None = keep retrying through the default attempt
        budget), before the typed
        :class:`~repro.serve.queue.QueueFull` escapes to the caller.
        """
        spec = self._spec(spec, fields)
        if self.fleet is not None:
            return self._fleet_target().submit(
                spec, priority=priority, client=client, deadline_s=deadline_s
            )
        if self._service is None or not self._service.started:
            self._service = self.serve()
        return self._service.submit_with_retry(
            spec,
            priority=priority,
            client=client,
            deadline_s=deadline_s,
            wait_timeout_s=wait_timeout,
        )

    def _fleet_target(self):
        """The object :meth:`submit` dispatches to when ``fleet`` is set.

        Routers and clients are used as passed (caller-owned); a
        ``"host:port"`` string becomes one session-owned
        :class:`~repro.fleet.FleetClient`, closed by :meth:`close`.
        """
        if hasattr(self.fleet, "submit"):
            return self.fleet
        if self._owned_fleet_client is None:
            from .fleet import FleetClient

            self._owned_fleet_client = FleetClient(self.fleet)
        return self._owned_fleet_client

    def close(self) -> None:
        """Drain and shut down the session-owned service (if any) and
        close the session-owned fleet client (if any)."""
        if self._service is not None:
            self._service.shutdown(drain=True)
            self._service = None
        if self._owned_fleet_client is not None:
            self._owned_fleet_client.close()
            self._owned_fleet_client = None

    def __enter__(self) -> "Session":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- helpers -------------------------------------------------------------
    def machine(self, preset: str = "deep-er", **overrides):
        """Build (unrun) the machine a preset describes."""
        return self.engine.build_machine(
            ExperimentSpec(preset=preset, machine_overrides=overrides)
        )

    def specs(self, base: Optional[dict] = None, **axes) -> List[ExperimentSpec]:
        """Cross-product spec builder for sweeps.

        Every keyword is either a scalar (fixed field) or a
        list/tuple (swept axis)::

            s.specs(steps=100, mode=["cluster", "cb"], nodes_per_solver=[1, 2])

        returns the 4 specs of the 2x2 product, in deterministic
        (sorted-axis, input-order) order.
        """
        fixed = dict(base or {})
        sweep_axes = []
        for name, value in axes.items():
            if isinstance(value, (list, tuple)):
                sweep_axes.append((name, list(value)))
            else:
                fixed[name] = value
        specs = [ExperimentSpec(**fixed)] if not sweep_axes else []
        if sweep_axes:
            import itertools

            names = [n for n, _ in sweep_axes]
            for combo in itertools.product(*(v for _, v in sweep_axes)):
                specs.append(
                    ExperimentSpec(**fixed, **dict(zip(names, combo)))
                )
        return specs

    def cache_stats(self) -> dict:
        """The session cache's store + counter stats ({} when none)."""
        return {} if self.cache is None else self.cache.stats()

    def query(self, where=None, fields=None, limit=None):
        """Filter stored runs from the session cache's columnar index.

        ``where`` takes ``COLUMN OP VALUE`` predicate strings (or a
        dict of equalities) over index columns — spec fields and
        headline metrics — so the rows come back without loading any
        report blob::

            s.query(where=["mode=C+B", "nodes_per_solver=8"])

        ``fields`` adds columns (dotted report paths load only the
        matched blobs); ``limit`` caps the rows, newest first.
        Requires a cache; raises ``ValueError`` without one.
        """
        return self._store().query(where=where, fields=fields, limit=limit)

    def aggregate(
        self, field: str, where=None, group_by: Optional[str] = None
    ) -> dict:
        """count/sum/mean/min/max/p50/p90/p99 of one column over the
        filtered stored runs (index-only for index columns)::

            s.aggregate("total_runtime", where=["mode=C+B",
                        "nodes_per_solver=8"])["p99"]

        ``group_by`` splits the matched rows by another column and adds
        ``groups`` — one stats dict per distinct value, ordered::

            s.aggregate("total_runtime", group_by="mode")["groups"]

        Requires a cache; raises ``ValueError`` without one.
        """
        return self._store().aggregate(field, where=where, group_by=group_by)

    def _store(self):
        if self.cache is None:
            raise ValueError(
                "this Session has no result cache attached; construct it "
                "with Session(cache=DIR) to query stored runs"
            )
        return self.cache

    def _spec(self, spec, fields):
        if spec is None:
            return ExperimentSpec(**fields)
        if fields:
            raise TypeError(
                "pass either a ready ExperimentSpec or spec fields, not both"
            )
        return spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        root = None if self.cache is None else str(self.cache.root)
        return f"<Session workers={self.workers} cache={root!r}>"
