"""Experiment harness: one module per paper figure/analysis.

Every module exposes ``run(scale="ci", seed=0) -> list[ExperimentResult]``
and a module-level ``_SCALES`` table naming the scales it defines:
``"paper"`` uses the paper's dataset sizes and trial counts (slow),
``"ci"`` a reduced grid with identical structure.  The
:mod:`repro.experiments.runner` CLI drives them all and renders text
tables mirroring the paper's plots.  What the modules share — the
x × seeded-trial ``sweep``, the typed ``scale_params`` lookup, the
measured cells also used by ``devtools.benchgate`` — lives in
:mod:`repro.experiments.common`; the aggregation helpers in
:mod:`repro.experiments.stats`.

Experiment IDs (see DESIGN.md §4):

=========  =====================  ==========================================
ID         Paper artefact         Module
=========  =====================  ==========================================
E1-2       Fig. 6a-b              :mod:`repro.experiments.fig6_alpha`
E3-4       Fig. 7a-b              :mod:`repro.experiments.fig7_maintenance`
E5-6       Fig. 8a-b              :mod:`repro.experiments.fig8_lookup`
E7-10      Figs. 9a-b, 10a-b      :mod:`repro.experiments.range_perf`
E11        Eq. 3 (§8.2)           :mod:`repro.experiments.eq3_saving`
E12        Theorem 3 (§7)         :mod:`repro.experiments.minmax_cost`
E14        churn resilience       :mod:`repro.experiments.churn_study`
E15        storage load balance   :mod:`repro.experiments.load_balance`
E16        lookup ablation        :mod:`repro.experiments.ablation_lookup`
E19        simulated wall latency :mod:`repro.experiments.latency_study`
E20        mixed-workload upkeep  :mod:`repro.experiments.churn_workload`
E21        query hot spots        :mod:`repro.experiments.hotspots`
E22, E22b  retry availability     :mod:`repro.experiments.availability`
E23, E23b  leaf-cache skew sweep  :mod:`repro.experiments.cached_lookup`
E25, b, c  substrate independence :mod:`repro.experiments.routing_diversity`
E26-*, b   replica availability   :mod:`repro.experiments.availability`
=========  =====================  ==========================================
"""

from repro.experiments.common import ExperimentResult, Series

__all__ = ["ExperimentResult", "Series"]
