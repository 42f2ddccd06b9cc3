package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	now "github.com/nowproject/now"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, defaultSize)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, defaultSize)
		c, _ := generate(name, 8, defaultSize)
		if render(a) != render(b) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if render(a) == render(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
	if _, err := generate("no-such-workload", 1, defaultSize); err == nil {
		t.Error("unknown workload accepted")
	}
}

func render(in input) string {
	if in.Fed != nil {
		return in.Fed.String()
	}
	return in.Scn
}

func TestGeneratedScenariosSurviveParsePrint(t *testing.T) {
	for _, name := range []string{wDrill, wFleet} {
		for _, seed := range []int64{1, 2, 99} {
			in, err := generate(name, seed, defaultSize)
			if err != nil {
				t.Fatal(err)
			}
			s, err := now.ParseScenario(strings.NewReader(in.Scn))
			if err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, seed, err, in.Scn)
			}
			printed := s.String()
			again, err := now.ParseScenario(strings.NewReader(printed))
			if err != nil {
				t.Fatalf("%s seed %d: reparse: %v\n%s", name, seed, err, printed)
			}
			if again.String() != printed {
				t.Errorf("%s seed %d: parse∘print is not the identity:\n%s\nvs\n%s", name, seed, printed, again.String())
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadNames {
		check(w)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range doc.Workloads {
		ws = append(ws, w.Name)
	}
	if strings.Join(ws, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", ws, workloadNames)
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, bench reports %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, bench %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// smoke runs one in-process iteration of a workload at smoke size.
func smoke(t *testing.T, name string, seed int64, workers int) sample {
	t.Helper()
	in, err := generate(name, seed, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	s := runIteration(in, workers, nil)
	if len(s.Problems) > 0 {
		t.Fatalf("%s seed %d workers %d: %v", name, seed, workers, s.Problems)
	}
	if s.Events <= 0 || s.WallS <= 0 || s.SetupS <= 0 || s.Digest == "" {
		t.Fatalf("%s seed %d: empty sample %+v", name, seed, s)
	}
	return s
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		a := smoke(t, name, defaultSeed, 2)
		if b := smoke(t, name, defaultSeed, 2); a.Digest != b.Digest {
			t.Errorf("%s: two runs disagree: %s vs %s", name, a.Digest, b.Digest)
		}
		if name == wDrill {
			continue
		}
		if b := smoke(t, name, defaultSeed, 1); a.Digest != b.Digest {
			t.Errorf("%s: Workers 1 and 2 disagree: %s vs %s", name, b.Digest, a.Digest)
		}
	}
}

func TestSecondSeedRunsGreen(t *testing.T) {
	for _, name := range workloadNames {
		a := smoke(t, name, defaultSeed, 2)
		if b := smoke(t, name, 2, 2); a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same output", name)
		}
	}
}

func TestDigestTripsOnOneByte(t *testing.T) {
	in, err := generate(wFleet, defaultSeed, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := now.ParseScenario(strings.NewReader(in.Scn))
	if err != nil {
		t.Fatal(err)
	}
	res, err := now.RunScenario(s, now.ScenarioOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := res.Registry.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	report := []byte(res.Report())
	good := digest(report, metrics.Bytes())
	for _, pos := range []int{0, len(report) / 2, len(report) - 1} {
		bad := append([]byte(nil), report...)
		bad[pos] ^= 1
		if digest(bad, metrics.Bytes()) == good {
			t.Errorf("flipping report byte %d kept the digest", pos)
		}
	}
	m := append([]byte(nil), metrics.Bytes()...)
	m[len(m)/2] ^= 1
	if digest(report, m) == good {
		t.Error("flipping a metrics byte kept the digest")
	}
	// The digest check counts the perturbed iteration as failed.
	samples := []sample{{Digest: good}, {Digest: digest(report[1:], metrics.Bytes())}, {Digest: good}}
	if got := verifyRun("", samples); got != 1 {
		t.Errorf("verifyRun counted %d failures, want 1", got)
	}
	samples[2].Problems = []string{"net.offered 3 != net.delivered 1 + net.drops 1"}
	if got := verifyRun("", samples); got != 2 {
		t.Errorf("verifyRun counted %d failures, want 2", got)
	}
	// Against a pinned digest, the first iteration is checked too.
	if got := verifyRun(samples[1].Digest, samples[:2]); got != 1 {
		t.Errorf("verifyRun against the pin counted %d failures, want 1", got)
	}
}

func TestConservationChecks(t *testing.T) {
	m := func(v int64) now.Metric { return now.Metric{Value: v} }
	ok := map[string]now.Metric{
		"net.offered": m(10), "net.delivered": m(8), "net.drops": m(2),
		"glunix.jobs.completed": m(3), "glunix.jobs.submitted": m(4),
		"sim.procs.live": m(6), "sim.events.pending": m(0),
	}
	if p := checkConservation(ok, 2); len(p) != 0 {
		t.Errorf("good snapshot flagged: %v", p)
	}
	for key, v := range map[string]int64{
		"net.drops": 1, "glunix.jobs.completed": 5, "sim.procs.live": 7, "sim.events.pending": 1,
	} {
		bad := map[string]now.Metric{}
		for k, mt := range ok {
			bad[k] = mt
		}
		bad[key] = m(v)
		if p := checkConservation(bad, 2); len(p) == 0 {
			t.Errorf("%s=%d not flagged", key, v)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/nowproject/now/internal/sim.(*Engine).Run":                "sim",
		"github.com/nowproject/now/internal/proto/am.(*Endpoint).Call.func1":  "am",
		"github.com/nowproject/now/internal/proto/collective.(*Comm).Barrier": "collective",
		"github.com/nowproject/now/internal/stats.NewTable":                   "other",
		"github.com/nowproject/now.InstrumentAll":                             "other",
		"main.runIteration": "bench",
		"runtime.mallocgc":  "",
		"os.(*File).Write":  "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributionSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	smoke(t, wDrill, defaultSeed, 2)
	pprof.StopCPUProfile()
	shares, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["sim"] <= 0 {
		t.Errorf("no samples charged to sim: %v", shares)
	}
}
