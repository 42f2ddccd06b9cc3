// Command perfbench is the repository's benchmark: the host cost of
// simulating a NOW, end to end and per layer, on three workloads it
// generates from a seed. See README.md in this directory.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload storage-drill --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// Every iteration of a workload runs in its own child process, so its
// peak RSS, CPU time and heap figures are its own.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed whose digests are pinned in digests.go.
const defaultSeed = 1

// Run-shape limits: every run makes at least minIters timed
// iterations, and starts no iteration that could end past runCap.
const (
	minIters = 3
	runCap   = 150 * time.Second
)

// result is the benchmark's output line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: storage-drill, fleet-4096 or wan-federation")
	seed := fl.Int64("seed", defaultSeed, "seed the workload's input is generated from")
	seconds := fl.Int("seconds", 30, "how long one run measures")
	traceMode := fl.Int("trace", 0, "1: add a traced iteration and report the per-layer metrics")
	out := fl.String("out", ".bench_build/perfbench", "directory for the traced run's spans and CPU profile")
	child := fl.Bool("child", false, "run one iteration in this process and print its sample")
	workers := fl.Int("workers", 2, "sharded-engine workers (child only)")
	traced := fl.Bool("traced", false, "trace this iteration (child only)")
	print := fl.Bool("print", false, "print the generated input and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	in, err := generate(*workload, *seed, defaultSize)
	if err != nil {
		return err
	}
	if *print {
		if in.Fed != nil {
			fmt.Print(in.Fed.String())
		} else {
			fmt.Print(in.Scn)
		}
		return nil
	}
	if *child {
		return runChild(in, *workers, *traced, *out)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traceMode)
	}
	res := orchestrate(in, time.Duration(*seconds)*time.Second, *traceMode == 1, *out)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one iteration and prints its sample as JSON.
func runChild(in input, workers int, traced bool, out string) error {
	var tr *tracer
	if traced {
		var err error
		if tr, err = startTracer(); err != nil {
			return err
		}
	}
	sp := tr.begin("iteration", "bench")
	s := runIteration(in, workers, tr)
	tr.end(sp)
	if tr != nil {
		if err := tr.stop(&s, out); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// spawn runs one iteration in a child process of this binary.
func spawn(in input, workers int, traced bool, out string) (sample, error) {
	args := []string{"-child", "-workload", in.Name, "-seed", strconv.FormatInt(in.Seed, 10),
		"-workers", strconv.Itoa(workers), "-out", out}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(os.Args[0], args...)
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("%s iteration: %w", in.Name, err)
	}
	var s sample
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &s); err != nil {
		return sample{}, fmt.Errorf("%s iteration: bad sample: %w", in.Name, err)
	}
	return s, nil
}

// orchestrate makes one run: for sharded workloads an untimed
// Workers=1 iteration whose digest must match, then timed Workers=2
// iterations for the run's length (at least minIters), then with trace
// one traced iteration. Every iteration is verified; the end-to-end
// metrics are medians over the timed ones.
func orchestrate(in input, length time.Duration, traced bool, out string) result {
	start := time.Now()
	var all, timed []sample
	var slowest time.Duration
	// iterate runs one iteration. A child that dies is a failed
	// iteration of the program under test, not an error of the bench.
	iterate := func(workers int, tr bool) {
		t := time.Now()
		s, err := spawn(in, workers, tr, out)
		if d := time.Since(t); d > slowest {
			slowest = d
		}
		if err != nil {
			s = sample{Workload: in.Name, Seed: in.Seed, Workers: workers, Traced: tr, Problems: []string{err.Error()}}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d workers=%d traced=%v wall=%.3fs setup=%.4fs rss=%.0fMB digest=%.12s problems=%d\n",
			s.Workload, s.Seed, s.Workers, s.Traced, s.WallS, s.SetupS, s.PeakRSSMB, s.Digest, len(s.Problems))
		all = append(all, s)
		if workers == 2 && !tr && err == nil {
			timed = append(timed, s)
		}
	}
	if in.Name != wDrill {
		iterate(1, false)
	}
	first := len(all)
	for {
		iterate(2, false)
		el := time.Since(start)
		if len(all)-first >= minIters && el >= length {
			break
		}
		// Leave room for one more iteration, and for the traced one.
		left := 2 * slowest
		if traced {
			left += slowest
		}
		if el+left > runCap {
			break
		}
	}
	if traced {
		iterate(2, true)
	}

	want := ""
	if in.Seed == defaultSeed {
		want = pinned[in.Name]
	}
	failed := verifyRun(want, all)
	res := result{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]valueOut{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = valueOut{Value: median(e2eValues(timed, m.Name)), Unit: m.Unit}
		}
		return res
	}
	tr := all[len(all)-1]
	for _, m := range perLayer {
		res.Metrics[m.Name] = valueOut{Value: tr.Layers[m.Name], Unit: m.Unit}
	}
	if w := median(e2eValues(timed, "wall_s")); w > 0 {
		res.Metrics["trace.overhead_ratio"] = valueOut{Value: tr.WallS / w, Unit: "ratio"}
	}
	return res
}

// verifyRun counts the run's failed iterations: any that reported a
// problem, and any whose digest differs from want (the pinned digest)
// or, when want is empty, from the run's first iteration.
func verifyRun(want string, all []sample) int {
	if want == "" {
		want = all[0].Digest
	}
	failed := 0
	for _, s := range all {
		bad := len(s.Problems) > 0
		for _, p := range s.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s seed=%d workers=%d: %s\n", s.Workload, s.Seed, s.Workers, p)
		}
		if s.Digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s seed=%d workers=%d: digest %s, want %s\n", s.Workload, s.Seed, s.Workers, s.Digest, want)
			bad = true
		}
		if bad {
			failed++
		}
	}
	return failed
}

// e2eValues extracts one end-to-end metric from each timed sample.
func e2eValues(ss []sample, name string) []float64 {
	var v []float64
	for _, s := range ss {
		switch name {
		case "wall_s":
			v = append(v, s.WallS)
		case "setup_s":
			v = append(v, s.SetupS)
		case "cpu_s":
			v = append(v, s.CPUS)
		case "peak_rss_mb":
			v = append(v, s.PeakRSSMB)
		case "alloc_mb":
			v = append(v, s.AllocMB)
		case "events_per_s":
			if run := s.WallS - s.SetupS; run > 0 {
				v = append(v, float64(s.Events)/run)
			}
		}
	}
	return v
}

// median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
