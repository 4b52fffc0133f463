// Package rhythm is a reproduction of "Rhythm: Harnessing Data Parallel
// Hardware for Server Workloads" (Agrawal et al., ASPLOS 2014): a
// cohort-scheduled web server architecture that batches similar requests
// and executes them as data-parallel kernels.
//
// Because this reproduction is pure Go, the NVIDIA GTX Titan the paper
// uses is replaced by a software SIMT device model (warps, lockstep
// issue, divergence serialization, coalesced memory transactions,
// streams and HyperQ work queues) that executes the real workload —
// kernels produce byte-exact HTTP responses — while a calibrated cost
// model prices them in virtual time and energy. See DESIGN.md for the
// full substitution table and EXPERIMENTS.md for the paper-vs-measured
// results.
//
// The package exposes three ways in:
//
//   - SimServer: the Rhythm pipeline (Reader → Parser → Dispatch →
//     Process stages → Response) on a simulated device, serving the
//     SPECWeb2009 Banking workload and reporting throughput/latency/energy.
//   - New: a live Server behind a real TCP listener. One frontend does
//     the network I/O, parsing and control plane; an executor runs the
//     requests, either on the host (TCPServer) or batched into cohorts
//     on modeled devices (CohortServer). Every registered workload —
//     banking, e-commerce, telemetry, or your own — is a
//     service.PageWorkload: one page-kernel library supplies the host
//     path and the stage kernels, so both executors return the same
//     bytes.
//   - The cmd/rhythm-bench binary and the benchmarks in bench_test.go,
//     which regenerate every table and figure of the paper's evaluation.
package rhythm
