package scenario

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/xfs"
)

// tinyScenario is a fast cluster story: a crash window, a job batch,
// and assertions spanning all three outcomes.
const tinyScenario = `scenario tiny
seed 3
horizon 600s
fleet ws 4
at 10s jobs 2 nodes=2 work=60s every=5s
at 120s crash 3 for 60s
expect faults.injected == 0 at 60s
expect faults.injected >= 1 at 300s
expect glunix.restarts >= 0 at end
expect no.such.metric == 0 at end
expect faults.injected == 99 at end
`

func mustParse(t *testing.T, in string) *Scenario {
	t.Helper()
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunOutcomes drives the tiny scenario end to end and checks each
// assertion lands in the right bucket: timed checks see the state at
// their instant, a typo'd metric is Unknown (not a silent pass), and a
// wrong expectation fails.
func TestRunOutcomes(t *testing.T) {
	res, err := Run(mustParse(t, tinyScenario), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 5 {
		t.Fatalf("got %d checks: %+v", len(res.Checks), res.Checks)
	}
	wantOutcome := func(i int, o Outcome) {
		t.Helper()
		if res.Checks[i].Outcome != o {
			t.Fatalf("check %d (%s): got %s want %s [%s]",
				i, res.Checks[i].Expect.String(), res.Checks[i].Outcome, o, res.Checks[i].Detail)
		}
	}
	wantOutcome(0, Pass) // before the crash: 0 faults injected
	wantOutcome(1, Pass) // after: at least 1
	wantOutcome(2, Pass)
	wantOutcome(3, Unknown)
	wantOutcome(4, Fail)
	if res.Pass != 3 || res.Fail != 1 || res.Unknown != 1 {
		t.Fatalf("tally %d/%d/%d", res.Pass, res.Fail, res.Unknown)
	}
	if res.Ok() {
		t.Fatal("a failing run must not be Ok")
	}
	if res.JobsTotal != 2 {
		t.Fatalf("jobs total %d", res.JobsTotal)
	}
	if res.FaultsApplied < 1 || res.FaultsTot != 1 {
		t.Fatalf("faults %d/%d", res.FaultsApplied, res.FaultsTot)
	}
	// The registry carries the scenario.* counters for export.
	if v, ok := res.Registry.CounterValue("scenario.asserts.unknown"); !ok || v != 1 {
		t.Fatalf("scenario.asserts.unknown = %d, %v", v, ok)
	}
	if v, ok := res.Registry.CounterValue("scenario.checkpoints"); !ok || v != 3 {
		t.Fatalf("scenario.checkpoints = %d, %v", v, ok)
	}
}

// twoOpMixes runs two op mixes with different files= values over one
// xFS fleet: their streams' private data files must not collide, and
// the run must stay deterministic.
const twoOpMixes = `scenario t
seed 1
horizon 60s
fleet xfs 12
at 2s opmix 2 meta=0.0 think=237ms files=20 blocks=4
at 3s opmix 2 meta=0.0 think=281ms files=17 blocks=4
`

// TestRunDeterminism runs each scenario twice: report, metrics export
// and span trace must be byte-identical — the property verify.sh
// golden-gates.
func TestRunDeterminism(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"tiny", tinyScenario},
		{"two-opmix", twoOpMixes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (string, []byte, []byte) {
				res, err := Run(mustParse(t, tc.in), Options{})
				if err != nil {
					t.Fatal(err)
				}
				var metrics, spans bytes.Buffer
				if err := res.Registry.WriteMetricsJSON(&metrics); err != nil {
					t.Fatal(err)
				}
				if err := res.Registry.WriteTraceJSON(&spans); err != nil {
					t.Fatal(err)
				}
				return res.Report(), metrics.Bytes(), spans.Bytes()
			}
			r1, m1, s1 := run()
			r2, m2, s2 := run()
			if r1 != r2 {
				t.Fatalf("reports differ:\n--- 1 ---\n%s--- 2 ---\n%s", r1, r2)
			}
			if !bytes.Equal(m1, m2) {
				t.Fatal("metrics exports differ")
			}
			if !bytes.Equal(s1, s2) {
				t.Fatal("span traces differ")
			}
		})
	}
}

// TestOpMixPrivateFilesDisjoint: every stream's private data file lies
// above the hot files of every mix, and no two streams share one.
func TestOpMixPrivateFilesDisjoint(t *testing.T) {
	s := mustParse(t, twoOpMixes)
	m := newOpMix(s, nil, nil, 0, newScenarioMetrics(obs.NewRegistry()))
	seen := map[xfs.FileID]bool{}
	for stream := 0; stream < 4; stream++ {
		f := m.privateFile(stream)
		if f <= 20 {
			t.Fatalf("stream %d private file %d inside a mix's hot files [1, 20]", stream, f)
		}
		if seen[f] {
			t.Fatalf("stream %d private file %d shared with another stream", stream, f)
		}
		seen[f] = true
	}
}

// TestRunCheckpointsSeeSameInstantEvents: a checkpoint at the instant
// of a fault and an operator verb observes both.
func TestRunCheckpointsSeeSameInstantEvents(t *testing.T) {
	in := `scenario same-instant
seed 1
horizon 120s
fleet ws 8
at 60s cordon 3
at 60s crash 5 for 10s
expect cp.cordons == 1 at 60s
expect faults.injected == 1 at 60s
`
	res, err := Run(mustParse(t, in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("same-instant checkpoint missed its events:\n%s", res.Report())
	}
}

// TestRunOpMix drives the NFS-style op mix on a small xFS-only fleet:
// the metadata fraction must dominate as declared, the latency
// histogram must populate (so p-quantile assertions have data), and a
// load event must not break determinism.
func TestRunOpMix(t *testing.T) {
	in := `scenario mix
seed 11
horizon 120s
fleet xfs 4
at 0s opmix 6 meta=0.9 think=1s files=8 blocks=4
at 60s load 2
expect scenario.opmix.ops > 50 at end
expect scenario.opmix.latency.ns p95 <= 1s at end
expect net.drops.injected == 0 at end
`
	res, err := Run(mustParse(t, in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("op-mix run not green:\n%s", res.Report())
	}
	if res.MetaOps <= res.DataOps {
		t.Fatalf("meta=%d data=%d: metadata ops should dominate at meta=0.9", res.MetaOps, res.DataOps)
	}
	if res.XFSNet == nil || res.XFSNet.Delivered == 0 {
		t.Fatal("xfs fabric saw no traffic")
	}
}

// TestRunControlVerbs drives the operator verbs end to end: a cordon
// an operator placed, a drain (with its cp.drain span), a remediator
// toggled on mid-run that rebuilds an unscripted disk failure, and the
// span assertions — both the count and the duration-quantile form —
// evaluating against the trace.
func TestRunControlVerbs(t *testing.T) {
	in := `scenario ops
seed 1
horizon 600s
fleet ws 6
fleet xfs 6 spares=1 managers=2 cache=8
at 0s remediate on
at 10s jobs 2 nodes=2 work=60s every=5s
at 30s cordon 5
at 60s drain 4
at 120s diskfail 1
at 400s uncordon 5
expect cp.cordons == 1 at end
expect cp.drains == 1 at end
expect cp.uncordons == 1 at end
expect remediate.rebuilds == 1 at end
expect span cp.drain count == 1 at end
expect span cp.drain p100 <= 10m at end
expect span no.such.span p50 <= 1s at end
expect span no.such.span count == 0 at end
`
	res, err := Run(mustParse(t, in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		switch {
		case c.Expect.Span && c.Expect.Metric == "no.such.span" && c.Expect.Quantile > 0:
			if c.Outcome != Unknown {
				t.Fatalf("quantile of a missing span = %s, want UNKNOWN", c.Outcome)
			}
		default:
			if c.Outcome != Pass {
				t.Fatalf("check %q = %s (got %d) [%s]", c.Expect.String(), c.Outcome, c.Got, c.Detail)
			}
		}
	}
	if res.Pass != 7 || res.Unknown != 1 || res.Fail != 0 {
		t.Fatalf("tally %d/%d/%d", res.Pass, res.Fail, res.Unknown)
	}
}

// TestRunSharded checks the sharded path: end assertions evaluate on
// the merged registry, and the report is identical across worker
// counts (Workers is execution, not identity).
func TestRunSharded(t *testing.T) {
	in := `scenario shardy
seed 5
fleet ws 16
fleet shards 4 rounds=2 barriers=2
expect net.drops == 0 at end
expect net.cross.sent > 0 at end
`
	s := mustParse(t, in)
	run := func(workers int) string {
		res, err := Run(s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharded == nil {
			t.Fatal("no sharded result")
		}
		return res.Report()
	}
	r1 := run(1)
	r4 := run(4)
	if r1 != r4 {
		t.Fatalf("report depends on worker count:\n--- w1 ---\n%s--- w4 ---\n%s", r1, r4)
	}
}

// TestRunTopologyFleet runs the tiny story on a fat-tree Myrinet
// fabric: the topo= option must thread through to the fabric (the
// net.topo.* histograms only exist on topology fabrics) and keep the
// run deterministic.
func TestRunTopologyFleet(t *testing.T) {
	in := strings.Replace(tinyScenario, "fleet ws 4", "fleet ws 4 fabric=myrinet topo=fattree", 1)
	run := func() (string, []byte) {
		res, err := Run(mustParse(t, in), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Registry.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Report(), buf.Bytes()
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 {
		t.Fatalf("reports differ:\n--- 1 ---\n%s--- 2 ---\n%s", r1, r2)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics exports differ")
	}
	if !bytes.Contains(m1, []byte(`"net.topo.hops"`)) {
		t.Fatal("topology fleet did not register net.topo.hops")
	}
	// The same story on the flat default must NOT grow topology rows —
	// that is what keeps pre-topology goldens byte-identical.
	flat, err := Run(mustParse(t, tinyScenario), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	if err := flat.Registry.WriteMetricsJSON(&fb); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(fb.Bytes(), []byte(`"net.topo.hops"`)) {
		t.Fatal("flat fleet registered net.topo.hops")
	}
}

// fedRunScenario is a small two-building federation: the annex takes a
// burst of gangs it cannot hold, spills on, and the library absorbs
// part of the backlog over the WAN.
const fedRunScenario = `scenario fed-run
seed 9
horizon 90s
fleet cluster library ws=8
fleet cluster annex ws=4
wan lat=10ms bw=100
at 0s spill on
at 1s jobs 4 nodes=4 work=15s every=1s grain=1s cluster=annex
expect fed.spill.jobs >= 1 at end
expect wan.sent > 0 at end
expect scenario.events == 2 at end
`

// TestRunFederated drives a federated scenario end to end: the spill
// assertions must pass, the summary must tally per-member jobs, and —
// the property verify.sh golden-gates — report and metrics export must
// be byte-identical at any worker count.
func TestRunFederated(t *testing.T) {
	run := func(workers int) (*Result, string, []byte) {
		res, err := Run(mustParse(t, fedRunScenario), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Registry.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, res.Report(), buf.Bytes()
	}
	res, r1, m1 := run(1)
	if !res.Ok() {
		t.Fatalf("federated run not green:\n%s", r1)
	}
	if res.Federated == nil || len(res.Federated.Clusters) != 2 {
		t.Fatalf("missing federated summary: %+v", res.Federated)
	}
	if res.Federated.Spilled < 1 {
		t.Fatalf("no jobs spilled:\n%s", r1)
	}
	if res.JobsTotal != 4 || res.JobsCompleted != 4 {
		t.Fatalf("jobs %d/%d, want 4/4:\n%s", res.JobsCompleted, res.JobsTotal, r1)
	}
	lib := res.Federated.Clusters[0]
	if lib.Name != "library" || lib.SpillReceived != res.Federated.Spilled {
		t.Fatalf("library should have received every spill: %+v", res.Federated)
	}
	for _, workers := range []int{2, 4} {
		_, r, m := run(workers)
		if r != r1 {
			t.Fatalf("report differs at %d workers:\n--- 1 ---\n%s--- %d ---\n%s", workers, r1, workers, r)
		}
		if !bytes.Equal(m, m1) {
			t.Fatalf("metrics export differs at %d workers", workers)
		}
	}
}
