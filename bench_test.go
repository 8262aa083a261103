package bdrmap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with: go test -bench=. -benchmem). Each benchmark prints
// the reproduced rows/series once, then times the regeneration:
//
//	BenchmarkTable1*        – Table 1 (heuristic usage, BGP coverage)
//	BenchmarkValidation     – §5.6 ground-truth validation
//	BenchmarkFigure14       – per-prefix egress diversity CDFs
//	BenchmarkFigure15       – marginal utility of VPs
//	BenchmarkFigure16       – geographic spread of observed links
//	BenchmarkStopSet        – §5.3 doubletree efficiency
//	BenchmarkRemoteSession  – §5.8 resource-limited device split
//	BenchmarkAblation*      – DESIGN.md ablation suite
//
// Per-layer timing lives in bench/ (bash bench/run.sh), not here.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/eval"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// printOnce gates the one-time output of each benchmark's reproduction.
var printOnce sync.Map

func once(b *testing.B, key, out string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		b.Logf("\n%s", out)
	}
}

func benchTable1(b *testing.B, prof topo.Profile) {
	for i := 0; i < b.N; i++ {
		s := eval.Build(prof, 1)
		res := s.RunVP(0, scamper.Config{})
		tbl := eval.BuildTable1(s, res)
		once(b, "table1-"+prof.Name, tbl.Format())
	}
}

func BenchmarkTable1RE(b *testing.B)          { benchTable1(b, topo.REProfile()) }
func BenchmarkTable1LargeAccess(b *testing.B) { benchTable1(b, topo.LargeAccessProfile()) }
func BenchmarkTable1Tier1(b *testing.B)       { benchTable1(b, topo.Tier1Profile()) }

func BenchmarkValidation(b *testing.B) {
	profiles := []topo.Profile{
		topo.REProfile(), topo.LargeAccessProfile(),
		topo.Tier1Profile(), topo.SmallAccessProfile(),
	}
	for i := 0; i < b.N; i++ {
		for _, prof := range profiles {
			s := eval.Build(prof, 1)
			res := s.RunVP(0, scamper.Config{})
			v := s.Validate(res)
			found, total := s.Coverage(res)
			out := ""
			out += prof.Name + ": "
			out += percent(v.Correct, v.Total) + " links correct, "
			out += percent(found, total) + " BGP coverage"
			once(b, "validate-"+prof.Name, out)
		}
	}
}

func percent(a, b int) string {
	if b == 0 {
		return "n/a"
	}
	return fmtPct(100 * float64(a) / float64(b))
}

func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f) }

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// multiVPScenario is shared by the figure benchmarks (19 VPs of a reduced
// large-access network).
var (
	multiOnce sync.Once
	multiScen *eval.Scenario
)

func multiVP() *eval.Scenario {
	multiOnce.Do(func() {
		prof := topo.LargeAccessProfile()
		prof.NumCustomers = 60
		prof.DistantPerTransit = 12
		multiScen = eval.Build(prof, 1)
		multiScen.RunAll()
	})
	return multiScen
}

func BenchmarkFigure14(b *testing.B) {
	s := multiVP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := eval.BuildFigure14(s)
		once(b, "fig14", f.Format())
	}
}

func BenchmarkFigure15(b *testing.B) {
	s := multiVP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := eval.BuildFigure15(s)
		once(b, "fig15", f.Format())
	}
}

func BenchmarkFigure16(b *testing.B) {
	s := multiVP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := eval.BuildFigure16(s)
		once(b, "fig16", f.Format())
	}
}

func BenchmarkStopSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ss := eval.MeasureStopSet(topo.TinyProfile(), 1)
		once(b, "stopset", "stop set saved "+fmtPct(100*ss.SavedFrac())+
			" of probe packets ("+itoa(ss.TracesStopped)+" traces stopped)")
	}
}

func BenchmarkRemoteSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := eval.Build(topo.TinyProfile(), 1)
		vp := s.Net.VPs[0]
		rp, err := scamper.Listen("127.0.0.1:0", vp.Name, nil)
		if err != nil {
			b.Fatal(err)
		}
		agent := &scamper.Agent{E: s.Engine, VP: vp}
		go agent.DialRetry(rp.Addr(), func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
		if err := rp.Wait(5 * time.Second); err != nil {
			b.Fatal(err)
		}
		d := &scamper.Driver{View: s.View, Prober: rp, HostASNs: s.HostASNs}
		ds := d.Run()
		if ds.Stats.Traces == 0 {
			b.Fatal("no traces over remote session")
		}
		out, in := rp.BytesTransferred()
		once(b, "remote", "device peak state "+itoa(agent.StateBytes())+
			"B; protocol "+itoa(int(out))+"B out / "+itoa(int(in))+"B in")
		rp.Close()
	}
}

func BenchmarkAblationNoAlias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := eval.AblationNoAlias(topo.TinyProfile(), 1)
		once(b, "abl-noalias", a.Name+": accuracy "+fmtPct(100*a.BaseAcc)+" -> "+fmtPct(100*a.VariantAcc))
	}
}

func BenchmarkAblationNoThirdParty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := eval.AblationNoThirdParty(topo.TinyProfile(), 1)
		once(b, "abl-no3p", a.Name+": accuracy "+fmtPct(100*a.BaseAcc)+" -> "+fmtPct(100*a.VariantAcc))
	}
}

func BenchmarkAblationSingleAddr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := eval.AblationSingleAddr(topo.TinyProfile(), 1)
		once(b, "abl-1addr", a.Name+": links "+itoa(a.BaseLinks)+" -> "+itoa(a.VariantLinks))
	}
}
