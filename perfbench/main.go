// Command perfbench is Quaestor's end-to-end benchmark. It assembles the
// real stack in one process from exported APIs — client.Dial sessions, an
// invalidation-based cache.HTTPTier CDN wired to Server.AddPurger, and
// server.New or server.NewSharded over store or cluster, all over loopback
// TCP — runs one seeded workload through it, checks every output against
// its own oracle, and prints the metrics as the last line of standard
// output:
//
//	perfbench --workload paper-readheavy --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans at every layer boundary and reports the per-layer metrics.
// See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	buildDir string
	scale    float64
}

// timedProcs is GOMAXPROCS for the timed phase. One processor ran faster
// and far steadier than two on a 2-vCPU virtual machine: the hand-offs
// between the load goroutine and the server's goroutines then never wake
// another vCPU (paper-readheavy, same seed, three alternating pairs:
// 3929–4273 ops/s against 2240–3554). Set-up keeps every processor: on
// one, durable-writeheavy's set-up took 15 s instead of 8.
const timedProcs = 1

// untracedSetups is how many set-ups an untraced run makes; setup_s is
// their median. A traced run sets up once.
const untracedSetups = 3

// runBudget bounds a whole run; no new round starts after it.
const runBudget = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for data and traces")
	fs.Float64Var(&cfg.scale, "scale", 1, "dataset size relative to the documented one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	def := findWorkload(cfg.workload)
	if def == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", cfg.workload, names)
		return 2
	}
	res, err := runWorkload(def, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the detail line printed before the result: counts per
// operation kind and latency samples per class, p99 included.
type report struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Rounds   int                   `json:"rounds"`
	Ops      map[string]*kindCount `json:"ops"`
	Latency  map[string]classStats `json:"latency_us"`
	Setups   []float64             `json:"setup_s"`
	// RoundOpsPerSec is every round's throughput; ops_per_s is their median.
	RoundOpsPerSec []float64 `json:"round_ops_per_s"`
	Errors         []string  `json:"errors,omitempty"`
}

type classStats struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

func runWorkload(def *workloadDef, cfg config, stdout, stderr io.Writer) (*result, error) {
	deadline := time.Now().Add(runBudget)
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	setups := untracedSetups
	if cfg.trace {
		setups = 1
	}
	var r *runner
	var warm *worker
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.st.close()
		}
		start := time.Now()
		var err error
		r, warm, err = setUp(def, cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer func() { r.st.close() }()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(timedProcs))
	p, err := r.timedPhase(cfg.seconds, deadline)
	if err != nil {
		return nil, err
	}
	all := newWorker()
	all.merge(warm)
	all.merge(p.timed)
	all.merge(p.side)
	var checkErrs []error
	if v := r.st.srv.InvaliDB().OrderViolations(); v != 0 {
		checkErrs = append(checkErrs, fmt.Errorf("InvaliDB saw %d order violations", v))
	}
	var recovery time.Duration
	if def.durable {
		recovery, err = r.durabilityCheck()
		if err != nil {
			checkErrs = append(checkErrs, err)
		}
	}

	// Warm-up operations are checked but not counted.
	res := &result{Correct: all.unexpected == 0 && len(checkErrs) == 0, Metrics: map[string]metricValue{}}
	rep := report{Workload: def.name, Seed: cfg.seed, Ops: map[string]*kindCount{}, Latency: map[string]classStats{}, Setups: setupTimes}
	for _, w := range []*worker{p.timed, p.side} {
		for k, c := range w.counts {
			res.Attempted += c.Attempted
			res.Failed += c.Failed
			if rep.Ops[k] == nil {
				rep.Ops[k] = &kindCount{}
			}
			rep.Ops[k].Attempted += c.Attempted
			rep.Ops[k].Failed += c.Failed
		}
	}
	rep.Rounds = p.rounds
	rep.RoundOpsPerSec = p.meter.segOpsPerSec()
	rep.Errors = all.errs
	for _, e := range checkErrs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	for i := range p.timed.lat {
		rep.Latency[classNames[i]] = statsOf(&p.timed.lat[i])
	}
	for k, l := range p.timed.kindLat {
		if _, isClass := rep.Latency[k]; !isClass {
			rep.Latency[k] = statsOf(l)
		}
	}
	detail, _ := json.Marshal(rep)
	fmt.Fprintln(stdout, string(detail))
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "perfbench: check:", e)
	}

	if !cfg.trace {
		set := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
		set("setup_s", "s", median(setupTimes))
		set("ops_per_s", "1/s", p.meter.opsPerSec())
		for _, name := range classNames {
			set(name+"_p50_us", "us", rep.Latency[name].P50)
		}
		// Query p90 is left out: on paper-readheavy it falls on the edge
		// between the cache hits and the origin answers, whose share grows
		// during a run: its per-round value ranged 517–2170 µs over three
		// runs. The detail line still gives it.
		set("read_p90_us", "us", rep.Latency["read"].P90)
		set("write_p90_us", "us", rep.Latency["write"].P90)
		set("cpu_us_per_op", "us", p.meter.cpuPerOpUs())
		e := p.early
		set("alloc_kb_per_op", "KiB", float64(e.alloc)/1024/float64(e.ops))
		set("heap_live_mb", "MiB", e.heapMiB)
		set("origin_requests_per_op", "1", e.originRequests/float64(e.ops))
		return res, nil
	}
	for _, m := range perLayer(r.st.ins, p, recovery) {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	dir := filepath.Join(cfg.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", def.name, cfg.seed)), p.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func statsOf(l *latencies) classStats {
	return classStats{Samples: len(l.ns), P50: l.quantileUs(0.5), P90: l.quantileUs(0.9), P99: l.quantileUs(0.99)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
