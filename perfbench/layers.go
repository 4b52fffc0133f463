package main

import (
	"math"
	"strings"
)

// perLayer lists every per-layer metric a traced run reports, in the
// order BENCHMARK.json names them. README.md maps each one to its layer,
// the end-to-end metric it should move and the workload it is measured
// on.
var perLayer = []struct{ name, unit string }{
	{"rhythm.classify_us", "us"},
	{"rhythm.write_us", "us"},
	{"rhythm.cpu_share", "ratio"},
	{"httpx.parse_ns", "ns"},
	{"httpx.cpu_share", "ratio"},
	{"service.classify_ns", "ns"},
	{"service.execute_host_us.banking", "us"},
	{"service.execute_host_us.ecom", "us"},
	{"service.execute_host_us.telemetry", "us"},
	{"service.cpu_share", "ratio"},
	{"banking.cpu_share", "ratio"},
	{"ecom.cpu_share", "ratio"},
	{"telemetry.cpu_share", "ratio"},
	{"backend.cpu_share", "ratio"},
	{"cohort.admit_queue_us", "us"},
	{"cohort.formation_wait_ms_mean", "ms"},
	{"cohort.formation_wait_ms_p99", "ms"},
	{"cohort.occupancy_mean", "count"},
	{"cohort.fill_ratio", "ratio"},
	{"cohort.timeout_share", "ratio"},
	{"cohort.shed_ratio", "ratio"},
	{"cohort.cpu_share", "ratio"},
	{"fabric.dispatch_us", "us"},
	{"fabric.wire_us", "us"},
	{"fabric.node_retries", "count"},
	{"fabric.link_sheds", "count"},
	{"fabric.cpu_share", "ratio"},
	{"cluster.queue_wait_us", "us"},
	{"cluster.render_us", "us"},
	{"cluster.kernel_errors", "count"},
	{"cluster.device_retries", "count"},
	{"cluster.cpu_share", "ratio"},
	{"simt.stage_wall_us", "us"},
	{"simt.launches_per_req", "launches/req"},
	{"simt.device_us_per_req", "us"},
	{"simt.coalescing_ratio", "ratio"},
	{"simt.cpu_share", "ratio"},
	{"mem.cpu_share", "ratio"},
	{"pipeline.occupancy_mean", "count"},
	{"pipeline.device_utilization", "ratio"},
	{"pipeline.cpu_share", "ratio"},
	{"flight.cpu_share", "ratio"},
	{"obs.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.sched_cpu_share", "ratio"},
	{"runtime.allocs_per_req", "allocs/req"},
	{"trace.overhead_ratio", "ratio"},
	{"unattributed_us", "us"},
	{"virt_throughput_rps", "1/s"},
	{"virt_latency_p99_ms", "ms"},
}

// unmeasuredWhy explains why a workload has no measurement of a metric.
func unmeasuredWhy(workload, name string) string {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case strings.HasPrefix(name, "virt_"):
		return "modelled numbers come from the offline rhythm.SimServer (paper-batch only)"
	case layer == "pipeline":
		return "only rhythm.SimServer runs internal/pipeline (paper-batch only)"
	case workload == "host-mix" && (layer == "cohort" || layer == "fabric" || layer == "cluster" || layer == "simt"):
		return "host mode forms no cohorts and launches no kernels (cohort-mix measures it)"
	case workload == "paper-batch" && layer == "simt":
		return "rhythm.SimServer exposes no device counters or per-launch timings; simt.cpu_share is measured"
	case workload == "paper-batch" && (layer == "cohort" || layer == "fabric" || layer == "cluster"):
		return "rhythm.SimServer runs internal/pipeline with no cohort server, fabric or cluster (cohort-mix measures it)"
	case workload == "paper-batch":
		return "rhythm.SimServer has no network frontend (host-mix and cohort-mix measure it)"
	}
	return "not measured on this workload"
}

// finishLayers gives every per-layer metric a value: a metric the
// workload did not measure (or measured as not-a-number) is reported as
// 0 and named with its reason.
func finishLayers(rep *report) {
	have := map[string]metric{}
	for _, m := range rep.layers {
		have[m.name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, pl := range perLayer {
		m, ok := have[pl.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			if _, named := rep.unmeasured[pl.name]; !named {
				rep.unmeasured[pl.name] = unmeasuredWhy(rep.workload, pl.name)
			}
			out = append(out, metric{name: pl.name, value: 0, unit: pl.unit})
			continue
		}
		m.unit = pl.unit
		out = append(out, m)
	}
	rep.layers = out
}
