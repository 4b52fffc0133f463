// Command perfbench is Rhythm's wall-clock serving benchmark. It runs
// one workload per invocation and prints a human-readable block followed
// by a one-line JSON result:
//
//	perfbench --workload host-mix --seed 1 --seconds 10 --trace 0 -rhythmd .bench_build/bin/rhythmd
//
// Workloads: host-mix (rhythmd in host mode), cohort-mix (rhythmd -cohort
// in front of two rhythmd -worker processes over the tcp fabric) and
// paper-batch (rhythm.SimServer at saturation). --trace 0 measures the
// end-to-end metrics; --trace 1 measures the per-layer ones. run.py
// builds the binaries and calls this command; README.md documents the
// metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-batch-child" {
		if err := runBatchChild(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench batch child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "host-mix, cohort-mix or paper-batch")
		seed     = flag.Int64("seed", 1, "workload seed: every request the servers receive derives from it")
		seconds  = flag.Int("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		rhythmd  = flag.String("rhythmd", "", "rhythmd binary built from this checkout")
		outDir   = flag.String("out", "", "directory for span files and profiles of traced runs")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *rhythmd == "" || *outDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seed, --seconds >= 1, --trace 0|1, -rhythmd and -out")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// Load comes from one process using no more OS threads or
	// connections than the host has cores, capped at two.
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	runtime.GOMAXPROCS(conns)
	cfg := runConfig{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		rhythmd: *rhythmd, self: self, outDir: filepath.Clean(*outDir), conns: conns,
	}

	total0, steal0, tickErr := cpuTicks()
	var rep *report
	switch *workload {
	case "host-mix":
		rep = runLive(cfg, *workload, modeHost)
	case "cohort-mix":
		rep = runLive(cfg, *workload, modeCohort)
	case "paper-batch":
		rep = runBatch(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if total1, steal1, err := cpuTicks(); err == nil && tickErr == nil {
		rep.env["steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	if cfg.traced {
		finishLayers(rep)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}
