"""In-memory spans recorded around calls into vmk's layers.

A span has a name, a start, an end and the id of the span that was open
when it began (its parent).  Spans are kept in a list and written out once
the traced process ends; self times are computed afterwards from the list.
"""

import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a function that records a span per call.

        ``on_result(rec, result)`` may attach counts to the span.  A missing
        attribute raises, so a renamed layer function fails the traced run
        instead of silently reading zero.
        """
        func = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result

        setattr(module, attr, traced)


def self_times(spans):
    """Map span id to its duration minus the part covered by its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def staged_run_mc(tracer, evaluator, paths, seed, x0, xi_star_val,
                  antithetic=False, chunk=4096, keep_paths=0):
    """``vmk.montecarlo.run_mc`` called stage by stage, one span per stage.

    Same arguments, same loop and same return value as ``run_mc``; the
    benchmark checks that its samples equal run_mc's bit for bit.
    """
    import numpy as np
    from vmk.montecarlo import gamma_factors, mc_stats, simulate_drivers, simulate_wealth

    premium_span = type(evaluator).__module__.rsplit(".", 1)[-1] + ".premium_paths"
    grid = evaluator.grid
    rate = evaluator.model.rate
    with tracer.span("montecarlo.run_mc"):
        terminal = np.empty(paths)
        gamma = np.empty(paths)
        kept = None
        done = 0
        while done < paths:
            m = min(chunk, paths - done)
            with tracer.span("montecarlo.simulate_drivers") as rec:
                z = simulate_drivers(grid, evaluator.n_factors, m, seed,
                                     antithetic=antithetic, start=done)
                rec["mb"] = z.nbytes / 2**20
            with tracer.span(premium_span):
                db, lam, prem, state = evaluator.premium_paths(z)
            with tracer.span("montecarlo.simulate_wealth"):
                w = simulate_wealth(grid, rate, x0, xi_star_val, db, lam, prem)
            terminal[done : done + m] = w.terminal
            with tracer.span("montecarlo.gamma_factors"):
                gamma[done : done + m] = gamma_factors(grid, rate, prem)
            if keep_paths > done:
                take = min(keep_paths, done + m) - done
                piece = SimpleNamespace(x=w.x[:take], alpha=w.alpha[:take], state=state[:take])
                kept = piece if kept is None else SimpleNamespace(
                    x=np.concatenate([kept.x, piece.x]),
                    alpha=np.concatenate([kept.alpha, piece.alpha]),
                    state=np.concatenate([kept.state, piece.state]),
                )
            done += m
        with tracer.span("montecarlo.mc_stats"):
            wealth_stats = mc_stats(terminal)
            gamma_stats = mc_stats(gamma)
    return SimpleNamespace(wealth=wealth_stats, gamma=gamma_stats, terminal=terminal,
                           gamma_samples=gamma, kept=kept)
