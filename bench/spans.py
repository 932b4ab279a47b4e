"""Span tracing of popflow's layers, applied from outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
popflow module that holds it, so calls made through any import path are
seen. Spans live in memory (id, parent id, name, start, end, phase, round,
attributes) and are written out once, when the run ends. Counts come from
the public return values only.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# layer -> functions traced in it
TRACED = {
    "grid": ("load_case",),
    "sampling": ("sample_operating_conditions",),
    "solver": ("oracle_opf", "dc_opf", "ac_power_flow"),
    "pipeline": ("generate_training_data", "save_dataset", "load_dataset",
                 "operating_features", "infer", "run_popf", "compute_statistics",
                 "compare_methods", "train_popf_model"),
    "sdae": ("pretrain_stack", "corrupt", "finetune", "forward", "backward",
             "rmsprop_momentum_step", "save_model", "load_model"),
}


def _attrs(name, parent, args, kwargs, result):
    """What a span records from its call's arguments and return value."""
    if name == "solver.ac_power_flow":
        return {"iterations": result.iterations}
    if name == "solver.dc_opf":
        return {"binding": result.binding}
    if name == "pipeline.generate_training_data":
        return {"dropped": result.provenance["dropped"]}
    if name == "pipeline.train_popf_model":
        return {"epochs": len(result[1])}
    if name == "pipeline.compare_methods":
        return {"timings": dict(result.timings)}
    if name == "pipeline.run_popf":
        return {"converge": bool(kwargs.get("converge")), "rows": result.n_samples}
    if name == "pipeline.infer":
        return {"rows": len(args[1])}
    if name == "sdae.forward":
        return {"train": bool(kwargs.get("train", args[2] if len(args) > 2 else False))}
    if name == "sampling.sample_operating_conditions" and parent == "pipeline.compare_methods":
        return {"values": result.values}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.phase = "setup"
        self.round = None

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name; returns (result, span)."""
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "phase": self.phase, "round": self.round, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record["attrs"] = {"error": type(exc).__name__}
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        parent_name = self.spans[parent]["name"] if parent is not None else None
        record["attrs"] = _attrs(name, parent_name, args, kwargs, result)
        return result, record

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)[0]
        return traced

    def install(self):
        modules = {m: sys.modules[f"popflow.{m}"]
                   for m in ("grid", "sampling", "solver", "pipeline", "sdae", "cli")}
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, traced)

    def uninstall(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def write(self, path, metrics):
        selfs = self.self_times()
        rows = [[s["id"], s["parent"], s["name"], s["phase"], s["round"], s["start"],
                 s["end"], round(t, 9),
                 {k: v for k, v in s["attrs"].items() if k != "values"}]
                for s, t in zip(self.spans, selfs)]
        doc = {"columns": ["id", "parent", "name", "phase", "round", "start", "end",
                           "self_s", "attrs"],
               "spans": rows, "metrics": metrics}
        path.write_text(json.dumps(doc, default=list) + "\n", encoding="utf-8")


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int, training_samples, overhead_s: float) -> dict:
    """Per-layer figures of the traced rounds.

    `_s` figures are seconds per round, `_p50` figures medians over calls,
    counts are per round; `grid.load_case_ms` also covers set-up.
    """
    body = [s for s in tracer.spans if s["phase"] == "traced"]
    selfs = tracer.self_times()

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in body if s["name"] == name]

    def returned(name):
        return [s for s in named(name) if "error" not in s["attrs"]]

    def per_round(name):
        return sum(dur(s) for s in named(name)) / rounds

    oracle = named("solver.oracle_opf")
    newton = returned("solver.ac_power_flow")
    popf = returned("pipeline.run_popf")
    infer = returned("pipeline.infer")
    compares = returned("pipeline.compare_methods")

    # a fine-tuning epoch ends when its clean validation forward pass returns
    epoch_ms = []
    for ft in named("sdae.finetune"):
        last = ft["start"]
        for s in body:
            if (s["parent"] == ft["id"] and s["name"] == "sdae.forward"
                    and s["attrs"].get("train") is False):
                epoch_ms.append(1e3 * (s["end"] - last))
                last = s["end"]

    train_rows = {tuple(r) for r in training_samples} if training_samples is not None else set()
    overlap = sum(
        sum(tuple(r) in train_rows for r in s["attrs"]["values"])
        for s in named("sampling.sample_operating_conditions")
        if "values" in s["attrs"])

    def cli(sub, converge=None):
        return [dur(s) for s in named(f"cli.{sub}")
                if converge is None or s["attrs"].get("converge") == converge]

    m = {
        "grid.load_case_ms": 1e3 * _p50([dur(s) for s in tracer.spans
                                         if s["name"] == "grid.load_case"]),
        "sampling.draw_s": per_round("sampling.sample_operating_conditions"),
        "solver.oracle_ms_p50": 1e3 * _p50([dur(s) for s in oracle]),
        "solver.oracle_self_ms_p50": 1e3 * _p50([selfs[s["id"]] for s in oracle]),
        "solver.dispatch_ms_p50": 1e3 * _p50([dur(s) for s in named("solver.dc_opf")]),
        "solver.newton_ms_p50": 1e3 * _p50([dur(s) for s in newton]),
        "solver.oracle_calls": len(oracle) / rounds,
        "solver.newton_iters_per_solve": (
            statistics.fmean(s["attrs"]["iterations"] for s in newton) if newton else 0.0),
        "solver.binding_sets": len({s["attrs"]["binding"] for s in returned("solver.dc_opf")}),
        "pipeline.generate_s": per_round("pipeline.generate_training_data"),
        "pipeline.label_dropped": sum(s["attrs"]["dropped"] for s in
                                      returned("pipeline.generate_training_data")) / rounds,
        "pipeline.save_dataset_s": per_round("pipeline.save_dataset"),
        "pipeline.load_dataset_s": per_round("pipeline.load_dataset"),
        "pipeline.features_s": per_round("pipeline.operating_features"),
        "pipeline.infer_rows_per_s": (
            sum(s["attrs"]["rows"] for s in infer) / sum(dur(s) for s in infer)
            if infer else 0.0),
        "pipeline.popf_s_p50": _p50([dur(s) for s in popf if not s["attrs"]["converge"]]),
        "pipeline.statistics_s": per_round("pipeline.compute_statistics"),
        "pipeline.converge_s": sum(dur(s) for s in popf if s["attrs"]["converge"]) / rounds,
        "pipeline.converge_rows": sum(s["attrs"]["rows"] for s in popf
                                      if s["attrs"]["converge"]) / rounds,
        "pipeline.compare_oracle_s": sum(s["attrs"]["timings"]["oracle"]
                                         for s in compares) / rounds,
        "pipeline.compare_dc_only_s": sum(s["attrs"]["timings"]["dc_only"]
                                          for s in compares) / rounds,
        "pipeline.compare_surrogate_s": sum(s["attrs"]["timings"]["surrogate"]
                                            for s in compares) / rounds,
        "pipeline.compare_overlap_rows": overlap / rounds,
        "sdae.pretrain_s": per_round("sdae.pretrain_stack"),
        "sdae.corrupt_s": per_round("sdae.corrupt"),
        "sdae.finetune_s": per_round("sdae.finetune"),
        "sdae.finetune_epoch_ms_p50": _p50(epoch_ms),
        "sdae.forward_ms_p50": 1e3 * _p50([dur(s) for s in named("sdae.forward")]),
        "sdae.backward_ms_p50": 1e3 * _p50([dur(s) for s in named("sdae.backward")]),
        "sdae.step_ms_p50": 1e3 * _p50([dur(s) for s in named("sdae.rmsprop_momentum_step")]),
        "sdae.save_model_ms": 1e3 * _p50([dur(s) for s in named("sdae.save_model")]),
        "sdae.load_model_ms": 1e3 * _p50([dur(s) for s in named("sdae.load_model")]),
        "cli.gen_data_s": sum(cli("gen-data")) / rounds,
        "cli.train_s": sum(cli("train")) / rounds,
        "cli.popf_s_p50": _p50(cli("popf", converge=False)),
        "cli.popf_converge_s": sum(cli("popf", converge=True)) / rounds,
        "cli.compare_s": sum(cli("compare")) / rounds,
        "trace.overhead_s": overhead_s,
    }
    return m
