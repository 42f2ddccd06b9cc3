// Command nowbench regenerates every table and figure of "A Case for
// NOW (Networks of Workstations)" and prints them as paper-vs-measured
// tables.
//
// Usage:
//
//	nowbench              # run everything (several minutes: F3 dominates)
//	nowbench -quick       # reduced scales, under a minute
//	nowbench -only T2,F4  # a comma-separated subset of experiment ids
//	nowbench -json        # machine-readable reports (scripts/bench.sh)
//	nowbench -only AV1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment ids follow DESIGN.md §3: T1 T2 T3 T4 F1 F2 F3 F4, the
// prose claims E5 E6 E7 E8 E9 E10, the fault-injection availability
// study AV1 (docs/FAULTS.md), the collective scale study SC1, the
// sharded-engine throughput study SC2 (DESIGN.md §10; -shards pins its
// worker count), the topology study SC3 (crossbar vs fat-tree vs torus,
// software tree vs in-network combining; DESIGN.md §13), the xFS
// sequential-scan pipelining study ST2, and the wide-area federation
// study WA1 (cross-cluster caching vs home re-fetch; DESIGN.md §14).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	now "github.com/nowproject/now"
	"github.com/nowproject/now/internal/experiments"
	"github.com/nowproject/now/internal/obs"
)

// jsonReport is the machine-readable form of one regenerated artifact,
// emitted by -json for tooling (scripts/bench.sh, trend dashboards).
type jsonReport struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
	// Shards is the largest worker count a sharded experiment (SC2) ran
	// with; omitted for single-threaded experiments.
	Shards int `json:"shards,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nowbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("nowbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced experiment scales (finishes in well under a minute)")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablations (A1-A4)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array instead of text tables")
	metricsPath := fs.String("metrics", "", "write the instrumented experiments' metrics registries to this JSON file")
	shards := fs.Int("shards", 0, "pin the SC2 worker sweep to this single worker count (0 = full 1/2/4/8 sweep)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProfile := fs.String("memprofile", "", "write a host heap profile (pprof) to this file at the end of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	type exp struct {
		id  string
		run func() (experiments.Report, error)
	}
	exps := []exp{
		{"T1", func() (experiments.Report, error) { r, _ := experiments.Table1(); return r, nil }},
		{"F1", func() (experiments.Report, error) { r, _ := experiments.Figure1(); return r, nil }},
		{"T2", func() (experiments.Report, error) { r, _, err := experiments.Table2(); return r, err }},
		{"F2", func() (experiments.Report, error) {
			sizes := []int64{2, 4, 6, 8, 12, 16}
			if *quick {
				sizes = []int64{4, 8}
			}
			r, _, err := experiments.Figure2(sizes)
			return r, err
		}},
		{"T3", func() (experiments.Report, error) {
			cfg := experiments.DefaultTable3Config()
			if *quick {
				cfg.Accesses = 40_000
				cfg.Policies = []now.CachePolicy{now.ClientServer, now.NChance}
			}
			r, _, err := experiments.Table3(cfg)
			return r, err
		}},
		{"T4", func() (experiments.Report, error) { r, _ := experiments.Table4(); return r, nil }},
		{"F3", func() (experiments.Report, error) {
			cfg := experiments.DefaultFigure3Config()
			if *quick {
				cfg.Days = 1
				cfg.Sizes = []int{48, 96}
			}
			r, _, err := experiments.Figure3(cfg)
			return r, err
		}},
		{"F4", func() (experiments.Report, error) {
			jobs := 3
			if *quick {
				jobs = 2
			}
			r, _, err := experiments.Figure4(jobs, 1)
			return r, err
		}},
		{"E5", func() (experiments.Report, error) { r, _, err := experiments.NFSStudy(); return r, err }},
		{"E6", func() (experiments.Report, error) { r, _, err := experiments.AMMicro(); return r, err }},
		{"E7", func() (experiments.Report, error) { r, _, err := experiments.MemoryRestore(); return r, err }},
		{"E8", func() (experiments.Report, error) { r, _, err := experiments.SFIOverhead(); return r, err }},
		{"E9", func() (experiments.Report, error) {
			days := 10
			if *quick {
				days = 3
			}
			r, _, err := experiments.Availability(53, days, 1)
			return r, err
		}},
		{"E10", func() (experiments.Report, error) { r, _, err := experiments.SWRAID(); return r, err }},
		{"AV1", func() (experiments.Report, error) {
			cfg := experiments.DefaultFaultStudyConfig()
			if *quick {
				cfg.Workstations = 8
				cfg.ReadStreams = 2
			}
			r, _, err := experiments.FaultStudy(cfg)
			return r, err
		}},
		{"AV2", func() (experiments.Report, error) {
			cfg := experiments.DefaultRemediationStudyConfig()
			if *quick {
				cfg.Workstations = 8
				cfg.ReadStreams = 2
			}
			r, _, err := experiments.RemediationStudy(cfg)
			return r, err
		}},
		{"SC1", func() (experiments.Report, error) {
			cfg := experiments.DefaultScaleConfig()
			if *quick {
				cfg.Sizes = []int{32, 64, 128}
				cfg.Barriers = 2
			}
			r, _, err := experiments.ScaleCollectives(cfg)
			return r, err
		}},
		{"SC2", func() (experiments.Report, error) {
			cfg := experiments.DefaultShardScaleConfig()
			if *quick {
				cfg = experiments.QuickShardScaleConfig()
			}
			if *shards > 0 {
				cfg.Workers = []int{*shards}
			}
			r, _, err := experiments.ShardScale(cfg)
			return r, err
		}},
		{"SC3", func() (experiments.Report, error) {
			cfg := experiments.DefaultTopoStudyConfig()
			if *quick {
				cfg = experiments.QuickTopoStudyConfig()
			}
			r, _, err := experiments.TopologyStudy(cfg)
			return r, err
		}},
		{"ST2", func() (experiments.Report, error) {
			cfg := experiments.DefaultSeqScanConfig()
			if *quick {
				cfg.Sizes = []int{8, 32}
			}
			r, _, err := experiments.SeqScan(cfg)
			return r, err
		}},
		{"WA1", func() (experiments.Report, error) {
			cfg := experiments.DefaultWideAreaConfig()
			if *quick {
				cfg = experiments.QuickWideAreaConfig()
			}
			r, _, _, err := experiments.WideAreaStudy(cfg)
			return r, err
		}},
	}
	ablationSelected := *ablations
	for _, id := range []string{"A1", "A2", "A3", "A4"} {
		if want[id] {
			ablationSelected = true
		}
	}
	if ablationSelected {
		exps = append(exps,
			exp{"A1", func() (experiments.Report, error) {
				// 48 workstations: tight enough that users actually come
				// back to recruited machines, separating the policies.
				r, _, err := experiments.RecruitmentPolicyAblation(48, 1, 1)
				return r, err
			}},
			exp{"A2", func() (experiments.Report, error) {
				acc := 120_000
				if *quick {
					acc = 60_000
				}
				r, _, err := experiments.NChanceAblation(acc)
				return r, err
			}},
			exp{"A3", func() (experiments.Report, error) { r, _, err := experiments.ColumnBufferAblation(1); return r, err }},
			exp{"A4", func() (experiments.Report, error) {
				r, _, err := experiments.OverheadVsBandwidthAblation()
				return r, err
			}},
		)
	}

	// Instrumented experiments carry metrics registries on their
	// reports; -metrics snapshots each into one stable-ordered file.
	collected := map[string][]obs.Metric{}
	collect := func(rep experiments.Report) {
		if *metricsPath == "" {
			return
		}
		keys := make([]string, 0, len(rep.Obs))
		for k := range rep.Obs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			collected[rep.ID+"/"+k] = rep.Obs[k].Snapshot()
		}
	}
	writeMetrics := func() error {
		if *metricsPath == "" {
			return nil
		}
		doc := struct {
			Format      string                  `json:"format"`
			Experiments map[string][]obs.Metric `json:"experiments"`
		}{Format: "now-metrics-set/1", Experiments: collected}
		return obs.WriteFileStable(*metricsPath, doc)
	}

	if *asJSON {
		out := []jsonReport{} // non-nil so an empty selection encodes as [], not null
		for _, x := range exps {
			if !selected(x.id) {
				continue
			}
			rep, err := x.run()
			if err != nil {
				return fmt.Errorf("%s: %w", x.id, err)
			}
			collect(rep)
			out = append(out, jsonReport{
				ID:      rep.ID,
				Title:   rep.Title,
				Headers: rep.Table.Headers(),
				Rows:    rep.Table.Rows(),
				Notes:   rep.Notes,
				Shards:  rep.Shards,
			})
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		// The same stable encoder the metrics exporters use, so tooling
		// sees one JSON shape discipline everywhere.
		return obs.WriteStable(os.Stdout, out)
	}
	fmt.Println("Regenerating the evaluation of 'A Case for NOW' (IEEE Micro, Feb 1995)")
	fmt.Println(strings.Repeat("=", 72))
	for _, x := range exps {
		if !selected(x.id) {
			continue
		}
		start := time.Now()
		rep, err := x.run()
		if err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		collect(rep)
		fmt.Println()
		fmt.Print(rep.String())
		fmt.Printf("(%s regenerated in %v)\n", x.id, time.Since(start).Round(time.Millisecond))
	}
	return writeMetrics()
}
