package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The rule under test: report the highest percentile that still has at
// least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {460, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("1..10: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{12, 3, 7}) // statistics.quantiles([12,3,7], n=4) == [3.0, 7.0, 12.0]
	if !near(q1, 3) || !near(q2, 7) || !near(q3, 12) {
		t.Errorf("3 values: got %v %v %v, want 3 7 12", q1, q2, q3)
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5) {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := iqr([]float64{4}); got != 0 {
		t.Errorf("iqr of one value = %v, want 0", got)
	}
}

func TestWindows(t *testing.T) {
	// Three windows; the middle one is slow. The windowed median of
	// medians ignores it where a pooled p99 would not.
	var ops []timed
	for w, d := range []int64{100, 900, 110} {
		for i := 0; i < 50; i++ {
			ops = append(ops, timed{win: w, dur: d})
		}
	}
	ops = append(ops, timed{win: 3, dur: 1}) // no such window: dropped
	wins := windows(ops, 3)
	med, spread := overWindows(wins, func(s []float64) float64 { return percentile(s, 0.5) })
	if len(wins) != 3 || med != 110 {
		t.Errorf("median over %d windows = %v, want 110 over 3", len(wins), med)
	}
	if spread != 800 {
		t.Errorf("IQR over windows = %v, want 800", spread)
	}
	// An empty window contributes nothing rather than a zero.
	if wins = windows(ops[:50], 3); len(wins) != 1 || len(wins[0]) != 50 {
		t.Errorf("one busy window: got %d windows", len(wins))
	}
}

// The reference kernel is fixed work that allocates nothing, and the
// scale it yields is the nominal time over the median burst.
func TestSpeedRef(t *testing.T) {
	k := newRefKernel()
	k.run()
	first := append([]uint64(nil), k.keys...)
	if n := testing.AllocsPerRun(3, func() { k.run() }); n != 0 {
		t.Errorf("kernel allocates %v times per run", n)
	}
	if !slices.Equal(first, k.keys) {
		t.Error("a second run of the kernel did different work")
	}
	s := newSpeedRef(time.Millisecond)
	s.burst()
	if len(s.us) != 1 || s.us[0] <= 0 {
		t.Fatalf("one burst recorded %v", s.us)
	}
	s.us = []float64{2 * refNominalUS, 4 * refNominalUS, 1 * refNominalUS}
	if got := s.scale(); !near(got, 0.5) {
		t.Errorf("scale = %v, want 0.5 (median burst twice the nominal)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	recs := []spanRec{
		{ID: 1, Name: "gen", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "build", StartNS: 0, EndNS: 30},
		{ID: 3, Parent: 1, Name: "fleet", StartNS: 30, EndNS: 90},
		{ID: 4, Parent: 3, Name: "probe", StartNS: 30, EndNS: 50},
		{ID: 5, Parent: 3, Name: "probe", StartNS: 50, EndNS: 60},
		{ID: 6, Parent: 3, Name: "alias", StartNS: 60, EndNS: 95}, // sticks out of its parent: clipped to 90
		{ID: 7, Name: "gen", StartNS: 200, EndNS: 220},            // a second root, no children
	}
	self, roots, rootSelf := selfTimes(recs)
	want := map[string]int64{"gen": 10 + 20, "build": 30, "fleet": 0, "probe": 30, "alias": 35}
	for n, w := range want {
		if self[n] != w {
			t.Errorf("self[%s] = %d, want %d", n, self[n], w)
		}
	}
	if roots != 120 || rootSelf != 30 {
		t.Errorf("roots = %d with %d unattributed, want 120 and 30", roots, rootSelf)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	sp := tr.begin(0, 0, "x")
	sp.end()
	if tr.add(0, 0, "y", 1, 2) != 0 || tr.now() != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr.graft(0, 0, 0, nil, 0)
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in metrics.go are one schema kept in two
// places; this is what keeps them one.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Command) == 0 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("command %v, run_seconds %d", m.Command, m.RunSeconds)
	}
	// 4 + 22 runs per workload, all inside 3420 s: leave a third spare.
	if runs := 4 + 22*len(m.Workloads); float64(runs*m.RunSeconds) > 0.67*3420 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds", runs, m.RunSeconds)
	}

	seen := map[string]bool{}
	once := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloadDefs", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		once(w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: %q/%q, table has %q/%q", i, w.Name, w.Why, d.Name, d.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end in BENCHMARK.json, %d in endToEnd", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range m.EndToEnd {
		once(e.Name)
		if d := endToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, table has %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q better %q bound %v", e.Name, e.Unit, e.Better, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", e.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("%d per_layer in BENCHMARK.json, %d in perLayer", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		once(e.Name)
		if d := perLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: %+v, table has %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q", e.Name, e.Unit, e.Better)
		}
	}
}

// tinyParams shrinks every workload to the tiny profile so all four run,
// both passes, in a few seconds.
var tinyParams = params{
	coldProfile: "tiny", worldSeed: 1,
	roundsProfile: "tiny", rounds: 6, verifyRounds: 3,
	harvest: 4, publishEvery: 10 * time.Millisecond,
	readClients: 2, windows: 2, setupReps: 2, lookupOps: 1 << 12,
	refBurst: 5 * time.Millisecond,
}

// TestSmokeAllWorkloads runs every workload, both passes, through the
// driver's code path and holds the result line to the contract: exactly
// the declared names, every end-to-end metric non-zero, nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		// Both passes share one scratch root, as they do in one invocation
		// of the command: the second must not find the first's stores.
		tmp := t.TempDir()
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			b := &bench{p: tinyParams, seed: 7, seconds: 300 * time.Millisecond,
				tmp: tmp, stdout: &stdout, stderr: &stderr}
			if traced {
				b.out = t.TempDir()
			}
			if code := b.one(w.Name, traced); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s", w.Name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int64                 `json:"attempted"`
				Failed    *int64                 `json:"failed"`
				Metrics   map[string]*metricJSON `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: last stdout line is not the result object: %v", w.Name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
				t.Errorf("%s traced=%v: correct/attempted/failed = %s\n%s", w.Name, traced, lines[len(lines)-1], stderr.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m := line.Metrics[d.Name]
				if m == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in the wrong unit", w.Name, traced, d.Name)
					continue
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(b.out + "/" + w.Name + ".spans.jsonl"); err != nil {
					t.Errorf("%s: -out kept no span file: %v", w.Name, err)
				}
			}
		}
	}
}

func TestUnknownWorkloadAndFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"-seconds", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("-seconds 0: exit %d", code)
	}
	if code := run([]string{"stray"}, &stdout, &stderr); code != 2 {
		t.Errorf("stray argument: exit %d", code)
	}
}

func TestWorse(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worse(lower, 100, 110); !near(got, 0.10) {
		t.Errorf("lower 100→110: %v", got)
	}
	if got := worse(higher, 100, 90); !near(got, 0.10) {
		t.Errorf("higher 100→90: %v", got)
	}
	if got := worse(lower, 100, 90); got >= 0 {
		t.Errorf("an improvement counted as worse: %v", got)
	}
}
