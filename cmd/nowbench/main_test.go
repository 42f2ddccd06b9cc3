package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunJSONOutput(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-json", "-quick", "-only", "T1,E5"})
	w.Close()
	os.Stdout = old
	raw, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var reports []jsonReport
	if err := json.Unmarshal(raw, &reports); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, raw)
	}
	if len(reports) != 2 || reports[0].ID != "T1" || reports[1].ID != "E5" {
		t.Fatalf("reports = %+v", reports)
	}
	if len(reports[0].Rows) == 0 || len(reports[0].Headers) == 0 {
		t.Fatalf("T1 report empty: %+v", reports[0])
	}
}

func TestRunSubsetQuick(t *testing.T) {
	if err := run([]string{"-quick", "-only", "T1,T4,E5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblationSelection(t *testing.T) {
	if err := run([]string{"-quick", "-only", "A4"}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleStudyGoldenDeterminism is the SC1 golden: the collective
// scale study, run twice through the full CLI path with metrics
// export, must produce byte-identical report JSON and metrics files.
func TestScaleStudyGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		mpath := filepath.Join(dir, "sc"+n+".json")
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run([]string{"-json", "-quick", "-only", "SC1", "-metrics", mpath})
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return raw, mb
	}
	r1, m1 := runOnce("1")
	r2, m2 := runOnce("2")
	if !bytes.Equal(r1, r2) {
		t.Fatal("SC1 report JSON is not byte-deterministic")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("SC1 metrics export is not byte-deterministic")
	}
	for _, want := range []string{`"collective.barriers"`, `"net.offered"`, `"net.delivered"`} {
		if !bytes.Contains(m1, []byte(want)) {
			t.Fatalf("SC1 metrics missing %s:\n%.300s", want, m1)
		}
	}
}

// TestSeqScanGoldenDeterminism is the ST2 golden: the sequential-scan
// pipelining study, run twice through the full CLI path with metrics
// export, must produce byte-identical report JSON and metrics files —
// concurrent prefetch procs and vectored fan-outs included.
func TestSeqScanGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		mpath := filepath.Join(dir, "st"+n+".json")
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run([]string{"-json", "-quick", "-only", "ST2", "-metrics", mpath})
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return raw, mb
	}
	r1, m1 := runOnce("1")
	r2, m2 := runOnce("2")
	if !bytes.Equal(r1, r2) {
		t.Fatal("ST2 report JSON is not byte-deterministic")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("ST2 metrics export is not byte-deterministic")
	}
	for _, want := range []string{`"xfs.batch.tokens"`, `"xfs.prefetch.issued"`, `"xfs.batch.commits"`} {
		if !bytes.Contains(m1, []byte(want)) {
			t.Fatalf("ST2 metrics missing %s:\n%.300s", want, m1)
		}
	}
}

// TestRemediationGoldenDeterminism is the AV2 golden: the self-healing
// availability study, run twice through the full CLI path with metrics
// export, must produce byte-identical report JSON and metrics files —
// the remediator's sweep, cordons and spare rebuilds included.
func TestRemediationGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("AV2 runs minutes of virtual workload, twice")
	}
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		mpath := filepath.Join(dir, "av"+n+".json")
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run([]string{"-json", "-quick", "-only", "AV2", "-metrics", mpath})
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return raw, mb
	}
	r1, m1 := runOnce("1")
	r2, m2 := runOnce("2")
	if !bytes.Equal(r1, r2) {
		t.Fatal("AV2 report JSON is not byte-deterministic")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("AV2 metrics export is not byte-deterministic")
	}
	for _, want := range []string{`"remediate.rebuilds"`, `"remediate.cordons"`, `"cp.commands"`, `"faults.injected"`} {
		if !bytes.Contains(m1, []byte(want)) {
			t.Fatalf("AV2 metrics missing %s:\n%.300s", want, m1)
		}
	}
}

// TestWideAreaGoldenDeterminism is the WA1 golden: the wide-area
// federation study — two clusters over a sharded engine, lease warmups,
// WAN RPC and all — run twice through the full CLI path with metrics
// export, must produce byte-identical report JSON and metrics files.
func TestWideAreaGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		mpath := filepath.Join(dir, "wa"+n+".json")
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run([]string{"-json", "-quick", "-only", "WA1", "-metrics", mpath})
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return raw, mb
	}
	r1, m1 := runOnce("1")
	r2, m2 := runOnce("2")
	if !bytes.Equal(r1, r2) {
		t.Fatal("WA1 report JSON is not byte-deterministic")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("WA1 metrics export is not byte-deterministic")
	}
	for _, want := range []string{`"fed.lease.grants"`, `"fed.cache.hits"`, `"fed.fetch.remote"`, `"wan.sent"`, `"wan.bytes"`} {
		if !bytes.Contains(m1, []byte(want)) {
			t.Fatalf("WA1 metrics missing %s:\n%.300s", want, m1)
		}
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunUnknownIDIsNoop(t *testing.T) {
	// Selecting a nonexistent id runs nothing and errors nowhere.
	if err := run([]string{"-only", "ZZ"}); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyStudyGoldenDeterminism is the SC3 golden: the topology
// study — six phases per (topology, size) cell, in-network combine
// events and topology-fabric metrics included — run twice through the
// full CLI path, must produce byte-identical report JSON and metrics
// files. SC3 is single-engine by construction (sharded fabrics reject
// topologies), so the -shards flag cannot perturb it.
func TestTopologyStudyGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		mpath := filepath.Join(dir, "sc3-"+n+".json")
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run([]string{"-json", "-quick", "-only", "SC3", "-metrics", mpath})
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return raw, mb
	}
	r1, m1 := runOnce("1")
	r2, m2 := runOnce("2")
	if !bytes.Equal(r1, r2) {
		t.Fatal("SC3 report JSON is not byte-deterministic")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("SC3 metrics export is not byte-deterministic")
	}
	for _, want := range []string{`"collective.innet.ops"`, `"collective.innet.combines"`, `"net.topo.hops"`, `"net.topo.queue.ns"`} {
		if !bytes.Contains(m1, []byte(want)) {
			t.Fatalf("SC3 metrics missing %s:\n%.300s", want, m1)
		}
	}
}

// TestRunProfileFlags checks that -cpuprofile and -memprofile write
// non-empty pprof files (gzip-framed protobuf) and leave stdout
// unchanged.
func TestRunProfileFlags(t *testing.T) {
	capture := func(args ...string) []byte {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run(args)
		w.Close()
		os.Stdout = old
		raw, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatal(runErr)
		}
		return raw
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain := capture("-json", "-quick", "-only", "T1,E6")
	profiled := capture("-json", "-quick", "-only", "T1,E6", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plain, profiled) {
		t.Errorf("profiling changed stdout:\n%s\n----\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Fatalf("%s: %d bytes, not a gzip-framed profile", filepath.Base(path), len(raw))
		}
	}
}
