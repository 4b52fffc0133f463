package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// Gated metric names: the end-to-end metrics BENCHMARK.json bounds. A
// run with --trace 0 puts exactly these in its result line.
var gatedEndToEnd = []string{"throughput_rps", "latency_p50_ms", "cpu_us_per_req", "rss_peak_mb", "setup_s"}

// metric is one reported number. base says what it was computed from
// (sample counts, numerator and denominator of a ratio, the method).
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

// report collects one run's outcome and prints it: a human-readable
// block first, then the one-line JSON result the run is judged by.
type report struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	env      map[string]any

	problems  []string // each one makes the run incorrect
	attempted int64
	failed    int64

	endToEnd []metric
	layers   []metric
	// unmeasured names per-layer metrics this workload cannot measure,
	// with the reason; they are reported as 0.
	unmeasured map[string]string
	// notes are extra lines for the human-readable block.
	notes []string
}

func newReport(workload string, seed int64, seconds int, traced bool) *report {
	return &report{
		workload:   workload,
		seed:       seed,
		seconds:    seconds,
		traced:     traced,
		env:        envBlock(),
		unmeasured: map[string]string{},
	}
}

// envBlock records the machine and toolchain every result was taken on.
// gomaxprocs is the load generator's; the servers inherit the
// environment, so theirs is GOMAXPROCS when set and nproc otherwise.
func envBlock() map[string]any {
	server := os.Getenv("GOMAXPROCS")
	if server == "" {
		server = fmt.Sprint(runtime.NumCPU())
	}
	return map[string]any{
		"host_cores":        runtime.NumCPU(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"server_gomaxprocs": server,
		"go_version":        runtime.Version(),
		"goos":              runtime.GOOS,
		"goarch":            runtime.GOARCH,
	}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) e2e(name string, value float64, unit, base string) {
	r.endToEnd = append(r.endToEnd, metric{name, value, unit, base})
}

func (r *report) layer(name string, value float64, unit, base string) {
	r.layers = append(r.layers, metric{name, value, unit, base})
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// print writes the human-readable block and the JSON result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", env)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	errRatio := ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(w, "e2e  %-34s %14.6g %-8s (%d failed of %d attempted)\n", "error_ratio", errRatio, "ratio", r.failed, r.attempted)
	for _, m := range r.endToEnd {
		fmt.Fprintf(w, "e2e  %-34s %14.6g %-8s (%s)\n", m.name, m.value, m.unit, m.base)
	}
	for _, m := range r.layers {
		if _, skip := r.unmeasured[m.name]; skip {
			continue
		}
		fmt.Fprintf(w, "layer %-33s %14.6g %-8s (%s)\n", m.name, m.value, m.unit, m.base)
	}
	names := make([]string, 0, len(r.unmeasured))
	for n := range r.unmeasured {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "unmeasured %-28s reported as 0: %s\n", n, r.unmeasured[n])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	src := r.endToEnd
	if r.traced {
		src = r.layers
	}
	for _, m := range src {
		if !r.traced && !isGated(m.name) {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

func isGated(name string) bool {
	for _, g := range gatedEndToEnd {
		if g == name {
			return true
		}
	}
	return false
}
