"""What each benchmark metric is for.

``BENCHMARK.json`` holds the metric names, units and bounds; this module
holds, for every per-layer metric, the library module it measures and the
end-to-end metric and workload it should move, plus the predictions for the
roadmap's performance items.

All per-layer values are per work unit of the traced operations: per epoch on
train-ref, per ``estimate_logZ`` call on logz-tv, and per (rk4-exact,
rk4-hutchinson) call pair on logz-rk4.  ``*.ms`` is inclusive time,
``*.self_ms`` excludes traced children.  ``training.bwd_over_fwd`` is
``training.bwd_ms_p50`` (``grad_flat``) over its base ``training.fwd_ms_p50``
(the taped ``nll_batch``, tape recording included).

The process-pool path of ``importance.log_weights`` (``workers=2``) runs once
per logz-tv run as a correctness gate, outside the timed loop, and is not
timed: a workload timing it spread by up to a quarter between runs on a
two-core box, because it needs both cores, and its worker spans would live in
other processes anyway.

End-to-end metrics.  Every run reports every end-to-end metric, and each is
compared workload by workload, so they are common to all three:
``work_per_s`` (epochs per second on train-ref, importance samples per second
on logz-tv, samples per second through rk4-exact plus rk4-hutchinson on
logz-rk4), ``peak_rss_mb`` and ``setup_s``.  The workload-specific names are printed in the details line of
every untraced run: ``train_epochs_per_s``, ``train_epoch_ms_p50`` and
``train_epoch_ms_tail`` (with its percentile and sample count) on train-ref,
``logz_samples_per_s`` on logz-tv, ``rk4_exact_samples_per_s`` and
``rk4_hutch_samples_per_s`` on logz-rk4, and ``fail_frac`` everywhere (0 on
a healthy run, so it is carried by the result's ``attempted``/``failed``).

Not measured.  ``couplings``, ``svg``, ``checks`` and ``cli`` are on no hot
path of these workloads and are not traced (the benchmark drives the library
API, not the CLI).  The reference traffic never runs order >= 2 operators
(``apply_step.k2``...) or the dense k=1 form (``operators.expm``): the
reference flow is order 1, diagonal.  That gap is recorded, not benchmarked.
"""

# metric -> (module, end-to-end metric it should move, workload where it does)
PER_LAYER_TARGETS = {
    "mlp_fwd.calls": ("autodiff", "logz_samples_per_s", "logz-tv"),
    "mlp_fwd.rows": ("autodiff", "logz_samples_per_s", "logz-tv"),
    "mlp_fwd.ms": ("autodiff", "logz_samples_per_s", "logz-tv"),
    "mlp_fwd.ns_per_row": ("autodiff", "logz_samples_per_s", "logz-tv"),
    "mlp_taped_fwd.calls": ("autodiff", "train_epoch_ms_p50", "train-ref"),
    "mlp_taped_fwd.ms": ("autodiff", "train_epoch_ms_p50", "train-ref"),
    "grad.calls": ("autodiff", "rk4_exact_samples_per_s", "logz-rk4"),
    "grad.ms": ("autodiff", "train_epochs_per_s", "train-ref"),
    "tape_nodes": ("autodiff", "peak_rss_mb", "train-ref"),
    "tape_mb": ("autodiff", "peak_rss_mb", "train-ref"),
    "coeff.calls": ("flow", "work_per_s", "all"),
    "coeff.ms": ("flow", "work_per_s", "all"),
    "eval_field.calls": ("flow", "rk4_exact_samples_per_s", "logz-rk4"),
    "eval_field.ms": ("flow", "rk4_exact_samples_per_s", "logz-rk4"),
    "eval_field_taped.ms": ("flow", "rk4_hutch_samples_per_s", "logz-rk4"),
    "apply_step.k0.calls": ("operators", "logz_samples_per_s", "logz-tv"),
    "apply_step.k0.ms": ("operators", "logz_samples_per_s", "logz-tv"),
    "apply_step.k1.calls": ("operators", "logz_samples_per_s", "logz-tv"),
    "apply_step.k1.ms": ("operators", "logz_samples_per_s", "logz-tv"),
    "invert_step.k0.calls": ("operators", "train_epochs_per_s", "train-ref"),
    "invert_step.k0.ms": ("operators", "train_epochs_per_s", "train-ref"),
    "invert_step.k1.calls": ("operators", "train_epochs_per_s", "train-ref"),
    "invert_step.k1.ms": ("operators", "train_epochs_per_s", "train-ref"),
    "verlet.self_ms": ("integrators", "logz_samples_per_s", "logz-tv"),
    "rk4.self_ms": ("integrators", "rk4_exact_samples_per_s", "logz-rk4"),
    "field_evals_per_sample": ("integrators", "work_per_s", "all"),
    "log_weights.ms": ("importance", "logz_samples_per_s", "logz-tv"),
    "log_weights.self_ms": ("importance", "logz_samples_per_s", "logz-tv"),
    "estimate.self_ms": ("importance", "logz_samples_per_s", "logz-tv"),
    "fallback_chunks": ("importance", "fail_frac", "logz-rk4"),
    "invalid": ("importance", "fail_frac", "logz-tv"),
    "log_density.rows": ("densities", "logz_samples_per_s", "logz-tv"),
    "log_density.ms": ("densities", "logz_samples_per_s", "logz-tv"),
    "training.fwd_ms_p50": ("training", "train_epochs_per_s", "train-ref"),
    "training.bwd_ms_p50": ("training", "train_epochs_per_s", "train-ref"),
    "training.adam_ms_p50": ("training", "train_epochs_per_s", "train-ref"),
    "training.sample_ms_p50": ("training", "train_epochs_per_s", "train-ref"),
    "training.bwd_over_fwd": ("training", "train_epochs_per_s", "train-ref"),
    "training.skipped_batches": ("training", "fail_frac", "train-ref"),
    "persist.load_ms": ("persist", "setup_s", "all"),
    "trace.spans": ("benchmark", "none: tracing cost", "all"),
    "trace.overhead_pct": ("benchmark", "none: tracing cost", "all"),
}

# Roadmap performance items: mechanism, the workload that exercises it, the
# workload that bypasses it (predicted: no change there), and the span names
# whose inclusive time over the traced wall on the exercising workload caps
# the end-to-end saving (the share of blocking time the layer holds).
ROADMAP = {
    "2-chunk-streamed-inference": {
        "mechanism": "stream row blocks through all steps so (n, 64) activations stay in L2;"
                     " lowers mlp_fwd.ns_per_row (the pool-vs-threads choice is not timed here)",
        "wins_on": ["logz-tv"],
        "bypass": "train-ref",
        "ceiling_spans": {"logz-tv": ["mlp_fwd"]},
    },
    "2b-vectorised-seeding": {
        "mechanism": "counter-based per-sample draws instead of SeedSequence.spawn",
        "wins_on": ["logz-tv"],
        "bypass": "train-ref",
        "ceiling_self": {"logz-tv": ["log_weights"]},
    },
    "3-reversible-backward": {
        "mechanism": "rebuild states by exact inverse substeps; explicit VJPs; no tape",
        "wins_on": ["train-ref"],
        "bypass": "logz-tv",
        "guard": "logz-rk4 keeps the autodiff trace and must not slow",
        "ceiling_spans": {"train-ref": ["nll_batch", "grad_flat"],
                          "logz-rk4": ["grad", "eval_field_taped"]},
    },
    "4-trust-diagnostics": {
        "mechanism": "k-hat, ESS and max-weight share in estimate_logZ; metrics stream off by default",
        "wins_on": [],
        "bypass": "train-ref",
        "guard": "estimate.self_ms on logz-tv may grow; end-to-end within bounds everywhere",
        "ceiling_self": {"logz-tv": ["estimate"]},
    },
    "5-robustness-and-pruning": {
        "mechanism": "one substep schedule, shared seeding, scipy expm; deletes code",
        "wins_on": [],
        "bypass": "logz-rk4",
        "guard": "no end-to-end change beyond bounds on any workload",
        "ceiling_self": {"logz-tv": ["verlet"], "train-ref": ["verlet"]},
    },
}
