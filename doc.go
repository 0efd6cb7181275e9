// Package cosched is a Go reproduction of "Resilient application
// co-scheduling with processor redistribution" (Benoit, Pottier, Robert;
// Inria RR-8795 / ICPP 2016).
//
// The library schedules a pack of malleable HPC applications on a
// failure-prone platform: tasks are protected by double (buddy)
// checkpointing with Young's period, and processors are redistributed
// between applications when one terminates or when a fail-stop failure
// delays the critical task.
//
// Layout:
//
//   - internal/core        — the paper's Algorithms 1–5, the reusable
//     zero-allocation simulation engine (Simulator), the closed
//     policy tables, and the online kernel (dynamic job arrivals
//     with arrival-aware redistribution, DESIGN.md §10)
//   - internal/model       — execution-time and resilience formulas
//     (Eq. 1–10)
//   - internal/failure     — fault simulator (exponential/Weibull
//     renewal processes, trace record/replay)
//   - internal/platform    — processor-pair allocator
//   - internal/npc         — Theorem 2 reduction from 3-Partition
//   - internal/scenario    — declarative, JSON-encodable experiment
//     specs: workload, failure law, policy list, parameter grids,
//     optional arrivals block (online regime)
//   - internal/campaign    — sharded Monte-Carlo campaign runner over
//     scenario specs (worker pool, per-unit RNG streams, JSONL/CSV
//     sinks, resumable manifests)
//   - internal/experiments — reproduction of Figures 5–14, expressed as
//     scenario specs executed by the campaign runner
//   - cmd/...              — coschedsim, campaign, experiments,
//     campaignd, campaignw, faultgen, npcheck, bench (perf ledger)
//   - examples/...         — runnable walkthroughs
//
// See README.md for a tour, DESIGN.md for the architecture and the
// paper-faithfulness decisions, and the EXPERIMENTS.md that
// cmd/experiments writes for measured results versus the paper's
// figures. The benchmarks in bench_test.go regenerate
// every figure of the evaluation at a reduced scale.
package cosched
