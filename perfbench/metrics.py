"""Metric definitions: the end-to-end metrics of every run and the per-layer
metrics of a traced run, computed from its spans.

A per-layer metric is taken from the spans of the timed phase; when the
timed phase made no such call, from the set-up, and failing that from the
checks. A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    # datagen: cold staged Newton solves and dataset files
    ("simulator.solve_equilibrium.cold_ms", "ms"),
    ("simulator.newton.cold_iters", "count"),
    ("simulator.newton.cold_ms_per_iter", "ms"),
    ("simulator.solve_equilibrium.cold_stages", "count"),
    ("simulator.solve_equilibrium.minflt", "count"),
    ("simulator.solve_equilibrium.sys_ms", "ms"),
    ("datafiles.save_ms_per_frame", "ms"),
    ("datafiles.load_ms_per_frame", "ms"),
    # servo: warm solves and the control step
    ("simulator.solve_hand.warm_ms", "ms"),
    ("simulator.newton.warm_iters", "count"),
    ("simulator.newton.warm_ms_per_iter", "ms"),
    ("simulator.solve_hand.warm_minflt", "count"),
    ("estimator.predict_displacements.b1_ms", "ms"),
    ("controller.shape_step_us", "us"),
    ("geometry.mean_nn_distance_ms", "ms"),
    ("controller.step_ms_p90", "ms"),
    ("controller.fit_actuation_directions_ms", "ms"),
    # calib: the alignment objective and CMA-ES
    ("calibration.alignment_loss_ms", "ms"),
    ("geometry.chamfer_ucd_ms", "ms"),
    ("estimator.predict_displacements.batch_ms", "ms"),
    ("sensors.strain_array_from_resistance_us", "us"),
    ("calibration.cma_ms_per_generation", "ms"),
    ("calibration.evals_per_generation", "count"),
    # learn: decoder training through nn
    ("nn.forward_ms.decoder", "ms"),
    ("nn.backward_ms.decoder", "ms"),
    ("nn.adam_step_ms.decoder", "ms"),
    ("estimator.predict_displacements.b64_ms", "ms"),
    ("estimator.evaluate_ms_per_frame", "ms"),
    ("estimator.samples_from_frames_ms", "ms"),
    # every workload
    ("process.minflt_per_op", "count"),
    ("process.sys_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.op_ms_p50", "ms"),
)

PHASE_ORDER = ("timed", "setup", "check")


def op_ms_p50(calls):
    """Median over the timed calls of call time per op, in ms."""
    per_op = [1000.0 * t / n for t, n in calls if n > 0]
    return statistics.median(per_op) if per_op else 0.0


def end_to_end(setup_times, calls, timed_wall_s, peak_rss_kb):
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(n for _, n in calls) / timed_wall_s,
        "op_ms_p50": op_ms_p50(calls),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _pick(spans, name, keep=lambda s: True):
    """The spans of `name` that pass `keep`, from the first phase that has any."""
    for phase in PHASE_ORDER:
        found = [s for s in spans if s.name == name and s.phase == phase and keep(s)]
        if found:
            return found
    return []


def _median_ms(spans, scale=1000.0):
    return statistics.median(s.seconds for s in spans) * scale if spans else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _p90(values):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer(tracer, calls, timed_wall_s, timed_rusage, decoder_params):
    spans = tracer.spans
    out = {}

    cold = _pick(spans, "simulator.solve_equilibrium", lambda s: not s.attrs["warm"])
    cold_iters = sum(s.attrs["iters"] for s in cold)
    out["simulator.solve_equilibrium.cold_ms"] = _median_ms(cold)
    out["simulator.newton.cold_iters"] = _ratio(cold_iters, len(cold))
    out["simulator.newton.cold_ms_per_iter"] = _ratio(
        1000.0 * sum(s.seconds for s in cold), cold_iters)
    out["simulator.solve_equilibrium.cold_stages"] = _ratio(
        sum(s.attrs["stages"] for s in cold), len(cold))
    out["simulator.solve_equilibrium.minflt"] = _ratio(sum(s.minflt for s in cold), len(cold))
    out["simulator.solve_equilibrium.sys_ms"] = _ratio(
        1000.0 * sum(s.sys_s for s in cold), len(cold))

    for kind in ("save", "load"):
        found = _pick(spans, f"datafiles.{kind}_dataset")
        out[f"datafiles.{kind}_ms_per_frame"] = _ratio(
            1000.0 * sum(s.seconds for s in found), sum(s.attrs["frames"] for s in found))

    warm_hand = _pick(spans, "simulator.solve_hand", lambda s: s.attrs["warm"])
    out["simulator.solve_hand.warm_ms"] = _median_ms(warm_hand)
    out["simulator.solve_hand.warm_minflt"] = _ratio(
        sum(s.minflt for s in warm_hand), len(warm_hand))
    warm = _pick(spans, "simulator.solve_equilibrium", lambda s: s.attrs["warm"])
    warm_iters = sum(s.attrs["iters"] for s in warm)
    out["simulator.newton.warm_iters"] = _ratio(warm_iters, len(warm))
    out["simulator.newton.warm_ms_per_iter"] = _ratio(
        1000.0 * sum(s.seconds for s in warm), warm_iters)

    predict = "estimator.predict_displacements"
    out[f"{predict}.b1_ms"] = _median_ms(_pick(spans, predict, lambda s: s.attrs["batch"] == 1))
    out[f"{predict}.batch_ms"] = _median_ms(
        _pick(spans, predict, lambda s: 1 < s.attrs["batch"] < 64))
    out[f"{predict}.b64_ms"] = _median_ms(_pick(spans, predict, lambda s: s.attrs["batch"] == 64))
    out["controller.shape_step_us"] = _median_ms(_pick(spans, "controller.shape_step"), 1e6)
    out["geometry.mean_nn_distance_ms"] = _median_ms(_pick(spans, "geometry.mean_nn_distance"))
    track = _pick(spans, "controller.track_trajectory")
    out["controller.step_ms_p90"] = _p90(
        [1000.0 * s.seconds / s.attrs["steps"] for s in track if s.attrs["steps"]])
    out["controller.fit_actuation_directions_ms"] = _median_ms(
        _pick(spans, "controller.fit_actuation_directions"))

    out["calibration.alignment_loss_ms"] = _median_ms(_pick(spans, "calibration.alignment_loss"))
    out["geometry.chamfer_ucd_ms"] = _median_ms(_pick(spans, "geometry.chamfer_ucd"))
    out["sensors.strain_array_from_resistance_us"] = _median_ms(
        _pick(spans, "sensors.strain_array_from_resistance"), 1e6)
    cma = _pick(spans, "calibration.cma_es_minimize")
    cma_ids = {s.id for s in cma}
    objective_s = sum(s.seconds for s in spans
                      if s.name == "calibration.alignment_loss" and s.parent in cma_ids)
    generations = sum(s.attrs["generations"] for s in cma)
    out["calibration.cma_ms_per_generation"] = _ratio(
        1000.0 * (sum(s.seconds for s in cma) - objective_s), generations)
    out["calibration.evals_per_generation"] = _ratio(
        sum(s.attrs["evals"] - 1 for s in cma), generations)

    def decoder_spans(name):
        found = _pick(spans, name, lambda s: s.attrs["net"] == "decoder")
        widest = max((s.attrs["rows"] for s in found), default=0)
        return [s for s in found if s.attrs["rows"] == widest]

    out["nn.forward_ms.decoder"] = _median_ms(decoder_spans("nn.forward_cache"))
    out["nn.backward_ms.decoder"] = _median_ms(decoder_spans("nn.backward"))
    out["nn.adam_step_ms.decoder"] = _median_ms(
        _pick(spans, "nn.adam_step", lambda s: s.attrs["n_params"] == decoder_params))
    evaluate = _pick(spans, "estimator.evaluate")
    out["estimator.evaluate_ms_per_frame"] = _ratio(
        1000.0 * sum(s.seconds for s in evaluate), sum(s.attrs["frames"] for s in evaluate))
    out["estimator.samples_from_frames_ms"] = _median_ms(
        _pick(spans, "estimator.samples_from_frames"))

    ops = sum(n for _, n in calls)
    minflt, user_s, sys_s = timed_rusage
    out["process.minflt_per_op"] = _ratio(minflt, ops)
    out["process.sys_share"] = _ratio(sys_s, user_s + sys_s)
    out["trace.overhead_share"] = _ratio(tracer.bookkeeping_s["timed"], timed_wall_s)
    out["trace.spans"] = float(len(spans))
    out["trace.op_ms_p50"] = op_ms_p50(calls)
    return out


def newton_iterations(tracer):
    """Total Newton iterations of the timed phase, for the work fingerprint."""
    return sum(s.attrs["iters"] for s in tracer.spans
               if s.name == "simulator.solve_equilibrium" and s.phase == "timed")
