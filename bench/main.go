// Command bench is the one place this repository's performance is
// measured: four workloads over the five-layer machine (world build →
// measurement → inference → scheduling → serving), a fixed set of
// end-to-end metrics each with a regression bound, and a separate traced
// run that attributes time, allocations and work counts to the layers.
// BENCHMARK.json at the repository root declares the same names; README.md
// says why each workload and metric exists.
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1          # every workload, both passes
//	bash bench/run.sh -check           # end-to-end pass twice, compared
//
// With --workload the last line of stdout is the driver's result object;
// without it stdout is one JSON document covering every workload. The
// human-readable table always goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runCtx is what one workload run is given.
type runCtx struct {
	p       params
	seed    int64
	seconds time.Duration
	tr      *tracer // non-nil on the traced pass
	ref     *speedRef
	tmp     string // the pass's scratch directory, removed when it ends
}

func (c *runCtx) traced() bool { return c.tr != nil }

// window is the length of one window of a serving workload's timed part.
func (c *runCtx) window() time.Duration { return c.seconds / time.Duration(c.p.windows) }

// timeSetups sets up p.setupReps times, with a reference burst before
// each and after the last, and records their median at reference speed as
// setup_s. The traced pass does not report setup_s and sets up once.
func (c *runCtx) timeSetups(r *result, setup func(i int) error) error {
	reps := c.p.setupReps
	if c.traced() {
		reps = 1
	}
	ref := newSpeedRef(c.p.refBurst)
	var took []float64
	for i := 0; i < reps; i++ {
		ref.burst()
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	ref.burst()
	r.metrics["setup_s"] = median(took) * ref.scale()
	r.infof("set-up as measured: %d times, median %.3f s; reference kernel %.1f us, scaled by %.3f", len(took), median(took), ref.kernelUS(), ref.scale())
	return nil
}

// result is what one workload run measured.
type result struct {
	attempted, failed int64
	// problems are correctness failures beyond single failed operations
	// (a fingerprint that changed between repetitions, a follower that did
	// not converge); any problem makes the run incorrect.
	problems []string
	metrics  map[string]float64
	info     []string // sample counts, fingerprints, within-run spreads
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// metricJSON is one emitted metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects defs from a result; a metric the workload did not set is
// its zero.
func emit(r *result, defs []metricDef) map[string]metricJSON {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v := r.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricJSON{v, d.Unit}
	}
	return out
}

// driverLine is the object the driver reads from the last stdout line.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func lineFor(r *result, defs []metricDef) driverLine {
	return driverLine{r.correct(), r.attempted, r.failed, emit(r, defs)}
}

// workloadDoc is one workload's entry in the all-workloads document.
type workloadDoc struct {
	Why      string     `json:"why"`
	EndToEnd driverLine `json:"end_to_end"`
	PerLayer driverLine `json:"per_layer"`
	Info     []string   `json:"info,omitempty"`
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's result line (default: every workload, both passes, one JSON document)")
	seed := fs.Int64("seed", 1, "workload seed: request draws, publish-cycle offset, VP run order")
	seconds := fs.Float64("seconds", 20, "length of each run's timed part")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	check := fs.Bool("check", false, "run the end-to-end pass twice and fail unless every metric agrees within its bound")
	out := fs.String("out", "", "directory to keep the traced run's span JSONL in (default: not written)")
	worldSeed := fs.Int64("world-seed", fullParams.worldSeed, "topology seed of every world; worlds are pinned so runs measure equal work (see README)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	p := fullParams
	p.worldSeed = *worldSeed

	tmp, err := os.MkdirTemp("", "bdrmap-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{p: p, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		tmp: tmp, out: *out, stdout: stdout, stderr: stderr}
	fmt.Fprintln(stderr, "bench: all HTTP is in-process over TCP loopback, not a real link; durable stores write under", tmp)

	switch {
	case *check:
		return b.check(*workload)
	case *workload != "":
		return b.one(*workload, *trace == 1)
	default:
		return b.all()
	}
}

// bench is one command invocation.
type bench struct {
	p              params
	seed           int64
	seconds        time.Duration
	tmp, out       string
	stdout, stderr io.Writer
}

// pass runs one workload once, traced or not.
func (b *bench) pass(w workloadDef, traced bool) (*result, error) {
	// A pass has its own scratch directory: a durable store opened on a
	// directory an earlier pass used would recover that pass's generations.
	tmp, err := os.MkdirTemp(b.tmp, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{p: b.p, seed: b.seed, seconds: b.seconds, ref: newSpeedRef(b.p.refBurst), tmp: tmp}
	if traced {
		c.tr = newTracer(w.Name)
	}
	r, err := w.run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traced {
		recs := c.tr.snapshot()
		b.layerTable(w.Name, r, recs)
		if err := b.keepSpans(w.Name, recs); err != nil {
			return nil, err
		}
	}
	b.table(w.Name, traced, r)
	return r, nil
}

// keepSpans writes the traced run's spans under -out, when given.
func (b *bench) keepSpans(workload string, recs []spanRec) error {
	if b.out == "" {
		return nil
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(b.out, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	if err := writeSpansJSONL(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable prints per-span-name self time and records how much of the
// traced wall the spans below the roots account for.
func (b *bench) layerTable(workload string, r *result, recs []spanRec) {
	self, roots, rootSelf := selfTimes(recs)
	if roots == 0 {
		return
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(b.stderr, "%s: self time by span over %d spans, traced wall %.1f ms\n", workload, len(recs), float64(roots)/1e6)
	for _, n := range names {
		fmt.Fprintf(b.stderr, "  %-18s %10.2f ms  %5.1f%%\n", n, float64(self[n])/1e6, 100*float64(self[n])/float64(roots))
	}
	r.metrics["trace.attributed_pct"] = 100 * float64(roots-rootSelf) / float64(roots)
}

// table prints one pass's metrics for people.
func (b *bench) table(workload string, traced bool, r *result) {
	defs, pass := endToEnd, "end-to-end"
	if traced {
		defs, pass = perLayer, "per-layer (traced)"
	}
	fmt.Fprintf(b.stderr, "%s: %s — %d ops attempted, %d failed, correct=%v\n", workload, pass, r.attempted, r.failed, r.correct())
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if traced && (!ok || v == 0) {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(b.stderr, "  %-30s %16.4f %s\n", d.Name, v, d.Unit)
	}
	for _, s := range r.info {
		fmt.Fprintf(b.stderr, "  · %s\n", s)
	}
	for _, s := range r.problems {
		fmt.Fprintf(b.stderr, "  ! %s\n", s)
	}
}

// one is the driver's mode: one workload, one pass, result on the last
// stdout line.
func (b *bench) one(name string, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(b.stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	r, err := b.pass(w, traced)
	if err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line, _ := json.Marshal(lineFor(r, defs))
	fmt.Fprintln(b.stdout, string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

// all runs every workload, end-to-end then traced.
func (b *bench) all() int {
	doc := struct {
		Seed      int64                  `json:"seed"`
		WorldSeed int64                  `json:"world_seed"`
		Seconds   float64                `json:"seconds"`
		Transport string                 `json:"transport"`
		Workloads map[string]workloadDoc `json:"workloads"`
	}{b.seed, b.p.worldSeed, b.seconds.Seconds(), "in-process HTTP over TCP loopback", map[string]workloadDoc{}}
	code := 0
	for _, w := range workloadDefs {
		e2e, err := b.pass(w, false)
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
		lay, err := b.pass(w, true)
		if err != nil {
			fmt.Fprintln(b.stderr, "bench:", err)
			return 1
		}
		if !e2e.correct() || !lay.correct() {
			code = 1
		}
		doc.Workloads[w.Name] = workloadDoc{w.Why, lineFor(e2e, endToEnd), lineFor(lay, perLayer),
			append(append([]string(nil), e2e.info...), lay.info...)}
	}
	enc := json.NewEncoder(b.stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 1
	}
	return code
}

// worse returns by what share of a the second reading b is worse.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// check runs the end-to-end pass twice (one workload, or all) and fails
// unless the two agree within every metric's bound in both directions.
func (b *bench) check(only string) int {
	defs := workloadDefs
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			fmt.Fprintf(b.stderr, "bench: unknown workload %q\n", only)
			return 2
		}
		defs = []workloadDef{w}
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var rows []row
	code := 0
	for _, w := range defs {
		var rs [2]*result
		for i := range rs {
			r, err := b.pass(w, false)
			if err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				return 1
			}
			if !r.correct() {
				code = 1
			}
			rs[i] = r
		}
		for _, d := range endToEnd {
			a, c := rs[0].metrics[d.Name], rs[1].metrics[d.Name]
			rel := math.Max(worse(d, a, c), worse(d, c, a))
			ok := rel <= d.Bound
			if !ok {
				code = 1
			}
			rows = append(rows, row{w.Name, d.Name, a, c, rel, d.Bound, ok})
			fmt.Fprintf(b.stderr, "check %-13s %-16s %16.4f %16.4f  diff %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, d.Name, a, c, 100*rel, 100*d.Bound, strings.ToUpper(fmt.Sprint(ok)))
		}
	}
	enc := json.NewEncoder(b.stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rows)
	return code
}
