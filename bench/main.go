// Command bench is the repository's benchmark: statement latency and
// throughput of the EXTRA/EXCESS engine on the generated company
// database, across four closed-loop workloads, with a traced run that
// splits statement time by layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

// run is the whole command. Its exit code is 0 when every result was
// correct (and, with -check, the sets agree), 1 when not; an error means
// the benchmark itself could not run.
func run() (int, error) {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (the driver's mode); empty runs all and prints a report")
		seed     = flag.Int64("seed", 1, "seed the database and every statement stream are generated from")
		seconds  = flag.Float64("seconds", 0, "measured window per workload; 0 takes run_seconds of BENCHMARK.json")
		traced   = flag.Int("trace", 0, "1: traced run (per-layer metrics, span files under bench/out); 0: end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "1/50-scale database and counts, sub-second windows")
		repeat   = flag.Int("repeat", 1, "report mode: run the whole set this many times, alternating workload order")
		check    = flag.Bool("check", false, "report mode: exit non-zero if two sets differ by more than a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return 0, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	decl, root, err := loadDeclaration()
	if err != nil {
		return 0, err
	}
	cfg := &config{
		decl:        decl,
		sc:          fullScale,
		seed:        *seed,
		seconds:     *seconds,
		sessions:    min(streams, runtime.NumCPU()),
		setups:      3,
		tailAppends: 200,
		blockDiv:    1,
		outDir:      filepath.Join(root, "bench", "out"),
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(decl.RunSeconds)
	}
	if *smoke {
		cfg.sc = smokeScale
		cfg.seconds = min(cfg.seconds, 0.3)
		cfg.setups = 1
		cfg.tailAppends = 10
		cfg.blockDiv = 50
	}
	var spec *workloadSpec
	if *workload != "" {
		if spec = findWorkload(*workload); spec == nil {
			return 0, fmt.Errorf("unknown workload %q", *workload)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 0, err
	}
	if cfg.workDir, err = os.MkdirTemp(cfg.outDir, "run-"); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cfg.workDir)
	if spec != nil {
		return runOne(cfg, spec, *traced == 1)
	}
	return report(cfg, *traced == 1, *repeat, *check)
}

// driverResult is the one line the driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's mode: one workload, one JSON line.
func runOne(cfg *config, spec *workloadSpec, traced bool) (int, error) {
	res := driverResult{Metrics: map[string]driverMetric{}}
	var verdict tally
	if traced {
		tr, err := runTraced(cfg, spec)
		if err != nil {
			return 0, err
		}
		verdict = tr.tally
		for _, d := range cfg.decl.PerLayer {
			res.Metrics[d.Name] = driverMetric{tr.metrics[d.Name].v, d.Unit}
		}
	} else {
		out, err := runWorkload(cfg, spec)
		if err != nil {
			return 0, err
		}
		verdict = out.tally
		e2e, _ := endToEndMetrics(out)
		for _, d := range cfg.decl.EndToEnd {
			res.Metrics[d.Name] = driverMetric{e2e[d.Name].v, d.Unit}
		}
	}
	for _, e := range verdict.errs {
		fmt.Fprintln(os.Stderr, "bench: wrong result:", e)
	}
	res.Attempted, res.Failed, res.Correct = verdict.attempted, verdict.failed, verdict.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}
