"""Per-layer tracing of redcrawl from outside the package.

`Tracer.install()` replaces public functions of each package module with
timing wrappers, in the namespace that looks each name up (a function
imported with `from .x import f` is called through the importer's copy).
Each wrapper is a span. A span's self time is its duration minus the
durations of the spans it encloses, so the self times of all spans add
up to the time of the outermost one, `harness.run_experiment`.

Spans are aggregated as they close (self time and call count per name)
rather than kept one by one: `redlearn` opens tens of thousands of
`observer.features` spans per run. Helpers called once per claim or per
candidate (`lie_probability`, the single-count accessors) are not
wrapped, because a wrapper would cost about as much as their bodies;
their time lands in the span that calls them. `classifier.gradient` and
`classifier.loss` are counted, not timed, to measure iterations per fit.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_s = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span called `name`.

        `before(*args, **kwargs)` and `after(result, token, *args, **kwargs)`
        feed counters; `token` is what `before` returned. They run outside
        the span, so their cost is charged to the enclosing span.
        """
        child_s, self_s, calls, clock = self._child_s, self.self_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - child_s.pop()
                child_s[-1] += dt
                calls[name] += 1
            if after is not None:
                after(result, token, *args, **kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from redcrawl import classifier, harness, observer, oracle, strategies

        c = self.counts
        span, patch = self.span, self._patch

        def count_fit_before(data, params=classifier.DEFAULT_PARAMS):
            return c["classifier.gradient"], c["classifier.loss"], params.max_iter

        def count_fit(model, token, data, *_, **__):
            grads0, losses0, max_iter = token
            iters = c["classifier.gradient"] - grads0
            c["fits"] += 1
            c["train_rows"] += len(data.rows)
            if iters:
                c["fits_descended"] += 1
                c["fit_iters"] += iters
                c["fit_loss_evals"] += c["classifier.loss"] - losses0
                c["fits_at_max_iter"] += iters >= max_iter

        def count_pick(decision, _, strategy, state, rng, model=None):
            c["scored"] += len(decision.scores)
            c["fallback_picks"] += strategy == "redlearn" and model is not None and model.fallback

        def count_claims(report, issued_before, oracle_, target):
            c["claims"] += len(report.statements)
            c["cache_misses"] += len(oracle_.issued) - issued_before

        def count_frontier(cands, _, state):
            c["frontier"] += len(cands)

        def count_ingested(result, _, state, report):
            c["claims_ingested"] += len(report.statements)

        def count_predicted(probs, _, model, xs):
            c["rows_predicted"] += len(xs)

        patch(classifier, "gradient", self.counter("classifier.gradient", classifier.gradient))
        patch(classifier, "loss", self.counter("classifier.loss", classifier.loss))
        patch(harness, "run_experiment", span("harness.run_experiment", harness.run_experiment))
        patch(harness, "run_single", span("harness.run_single", harness.run_single))
        for name in ("generate_synthetic", "load_graph", "remove_red_red_edges"):
            patch(harness, name, span("graph.build", getattr(harness, name)))
        patch(harness, "assign_honesty", span("oracle.assign_honesty", harness.assign_honesty))
        patch(harness, "fit", span("classifier.fit", harness.fit, count_fit_before, count_fit))
        patch(harness, "build_training_set",
              span("classifier.build_training_set", harness.build_training_set))
        patch(harness, "pick", span("strategies.pick", harness.pick, after=count_pick))
        patch(strategies, "predict_many",
              span("classifier.predict", strategies.predict_many, after=count_predicted))
        patch(oracle.Oracle, "place_monitor",
              span("oracle.place_monitor", oracle.Oracle.place_monitor,
                   lambda oracle_, target: len(oracle_.issued), count_claims))
        patch(observer.ObserverState, "ingest",
              span("observer.ingest", observer.ObserverState.ingest, after=count_ingested))
        patch(observer.ObserverState, "candidates",
              span("observer.candidates", observer.ObserverState.candidates, after=count_frontier))
        patch(observer.ObserverState, "features",
              span("observer.features", observer.ObserverState.features))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, batches: int, wall_s: float) -> dict[str, float]:
        """Per-batch layer metrics over `batches` traced `run_experiment` calls
        whose wall times sum to `wall_s`."""
        s, n, c = self.self_s, self.calls, self.counts

        def per_batch(x):
            return x / batches

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            f"{name}_s": per_batch(s[name])
            for name in (
                "graph.build", "oracle.assign_honesty", "oracle.place_monitor", "observer.ingest",
                "observer.features", "observer.candidates", "strategies.pick", "classifier.fit",
                "classifier.build_training_set", "classifier.predict", "harness.run_single",
            )
        }
        metrics.update({
            "harness.output_s": per_batch(s["harness.run_experiment"]),
            "oracle.claims": per_batch(c["claims"]),
            "oracle.ns_per_claim": 1e9 * ratio(s["oracle.place_monitor"], c["claims"]),
            "oracle.cache_hit_frac": ratio(c["claims"] - c["cache_misses"], c["claims"]),
            "observer.ingest_ns_per_claim": 1e9 * ratio(s["observer.ingest"], c["claims_ingested"]),
            "observer.features_calls": per_batch(n["observer.features"]),
            "observer.frontier_mean": ratio(c["frontier"], n["observer.candidates"]),
            "strategies.picks": per_batch(n["strategies.pick"]),
            "strategies.scored_per_pick": ratio(c["scored"], n["strategies.pick"]),
            "strategies.fallback_picks": per_batch(c["fallback_picks"]),
            "classifier.fits": per_batch(c["fits"]),
            "classifier.fit_iters_mean": ratio(c["fit_iters"], c["fits_descended"]),
            "classifier.fits_at_max_iter": per_batch(c["fits_at_max_iter"]),
            "classifier.loss_evals_per_iter": ratio(c["fit_loss_evals"], c["fit_iters"]),
            "classifier.train_rows_mean": ratio(c["train_rows"], c["fits"]),
            "classifier.rows_predicted": per_batch(c["rows_predicted"]),
            "traced_wall_s": per_batch(wall_s),
            "unattributed_s": per_batch(wall_s - sum(s.values())),
        })
        return metrics
