package eval

import (
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

func TestTable1Tiny(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	res := s.RunVP(0, scamper.Config{Workers: 1})
	tbl := BuildTable1(s, res)
	if tbl.ObservedBGP[classCust] == 0 {
		t.Fatal("no BGP customers observed")
	}
	if tbl.CoveragePct() < 80 {
		t.Errorf("coverage %.1f%% too low", tbl.CoveragePct())
	}
	out := tbl.Format()
	if len(out) < 100 {
		t.Fatalf("format too short:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestTable1ShapeRE(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run in -short mode")
	}
	s := Build(topo.REProfile(), 1)
	res := s.RunVP(0, scamper.Config{})
	tbl := BuildTable1(s, res)
	t.Logf("\n%s", tbl.Format())

	// Paper shape: the firewall heuristic identifies at least half of
	// customer routers; coverage of BGP neighbors is >= 90%.
	if got := tbl.RowPct(core.HeurFirewall, int(classCust)); got < 40 {
		t.Errorf("firewall heuristic on customers = %.1f%%, want >= 40%%", got)
	}
	if tbl.CoveragePct() < 90 {
		t.Errorf("BGP coverage = %.1f%%, want >= 90%%", tbl.CoveragePct())
	}
	// Trace-only neighbors (hidden IXP peers) must exist.
	if tbl.TraceOnly == 0 {
		t.Error("no trace-only neighbors found")
	}
	if tbl.RouterTotals[classProv] == 0 {
		t.Error("no provider routers inferred")
	}
}

func TestTable1ShapeLargeAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run in -short mode")
	}
	s := Build(topo.LargeAccessProfile(), 1)
	res := s.RunVP(0, scamper.Config{})
	tbl := BuildTable1(s, res)
	t.Logf("\n%s", tbl.Format())
	// Paper shape (large access column): firewall dominates customers;
	// onenet dominates providers; coverage >= 90%.
	if got := tbl.RowPct(core.HeurFirewall, int(classCust)); got < 40 {
		t.Errorf("firewall on customers = %.1f%%, want >= 40%%", got)
	}
	if got := tbl.RowPct(core.HeurOnenet, int(classProv)); got < 50 {
		t.Errorf("onenet on providers = %.1f%%, want >= 50%%", got)
	}
	if tbl.CoveragePct() < 90 {
		t.Errorf("coverage = %.1f%%", tbl.CoveragePct())
	}
	// Silent neighbors appear (8.x rows).
	silent := tbl.RowPct(core.HeurSilent, int(classCust)) + tbl.RowPct(core.HeurOtherICMP, int(classCust))
	if silent == 0 {
		t.Error("no silent/other-ICMP customers inferred")
	}
}

func TestValidationBandsAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs in -short mode")
	}
	for _, prof := range []topo.Profile{topo.REProfile(), topo.SmallAccessProfile()} {
		s := Build(prof, 1)
		res := s.RunVP(0, scamper.Config{})
		v := s.Validate(res)
		t.Logf("%s: %d/%d = %.3f", prof.Name, v.Correct, v.Total, v.Accuracy())
		if v.Accuracy() < 0.955 {
			t.Errorf("%s accuracy %.3f below paper band", prof.Name, v.Accuracy())
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP run in -short mode")
	}
	// A reduced large-access network with several VPs: most prefixes
	// should have multiple possible egress routers across VPs.
	prof := topo.LargeAccessProfile()
	prof.NumCustomers = 60
	prof.DistantPerTransit = 15
	prof.NumVPs = 8
	s := Build(prof, 1)
	s.RunAll()
	f := BuildFigure14(s)
	if f.Prefixes == 0 {
		t.Fatal("no prefixes measured")
	}
	t.Logf("\n%s", f.Format())
	multi := 1 - f.BorderFrac(0, 1)
	if multi < 0.5 {
		t.Errorf("only %.2f of prefixes have >1 egress router; expected diversity", multi)
	}
	// Next-hop AS diversity is lower than router diversity (paper: most
	// prefixes use the same next hop AS from every VP).
	oneNext := f.NextASFrac(1, 1)
	oneBorder := f.BorderFrac(1, 1)
	if oneNext <= oneBorder {
		t.Errorf("expected AS-level density lower than router-level: sameNext=%.2f sameBorder=%.2f",
			oneNext, oneBorder)
	}
}

func TestFigure15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP run in -short mode")
	}
	prof := topo.LargeAccessProfile()
	prof.NumCustomers = 40
	prof.DistantPerTransit = 10
	s := Build(prof, 1)
	s.RunAll()
	f := BuildFigure15(s)
	t.Logf("\n%s", f.Format())

	series := make(map[string]Fig15Series)
	for _, sr := range f.Networks {
		series[sr.Name] = sr
	}
	akamai, ok1 := series["akamai-like"]
	level3, ok2 := series["bigpeer0"]
	if !ok1 || !ok2 {
		t.Fatalf("missing tagged networks: %v", f.Networks)
	}
	// Akamai-like pins each prefix to one interconnect: a single VP sees
	// every link the deployment will ever see.
	if akamai.VPsToSeeAll() > 2 {
		t.Errorf("akamai-like required %d VPs, want <= 2", akamai.VPsToSeeAll())
	}
	// The Level3-like peer announces everywhere: links are only visible
	// from nearby VPs, so discovery grows with deployment.
	if level3.VPsToSeeAll() < 5 {
		t.Errorf("bigpeer0 required %d VPs, want >= 5 (hot potato)", level3.VPsToSeeAll())
	}
	last := level3.Cumulative[len(level3.Cumulative)-1]
	first := level3.Cumulative[0]
	if last <= first {
		t.Errorf("bigpeer0 curve flat: %v", level3.Cumulative)
	}
}

func TestFigure16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP run in -short mode")
	}
	prof := topo.LargeAccessProfile()
	prof.NumCustomers = 40
	prof.DistantPerTransit = 10
	s := Build(prof, 1)
	s.RunAll()
	f := BuildFigure16(s)
	t.Logf("\n%s", f.Format())
	var level3 *Fig16Network
	for i := range f.Networks {
		if f.Networks[i].Name == "bigpeer0" {
			level3 = &f.Networks[i]
		}
	}
	if level3 == nil {
		t.Fatal("bigpeer0 missing")
	}
	// Hot potato: each VP mostly observes links near its own longitude.
	nearer := 0
	total := 0
	for _, row := range level3.Rows {
		for _, lon := range row.LinkLons {
			total++
			d := row.VPLon - lon
			if d < 0 {
				d = -d
			}
			if d < 15 {
				nearer++
			}
		}
	}
	if total == 0 {
		t.Fatal("no link observations")
	}
	if frac := float64(nearer) / float64(total); frac < 0.6 {
		t.Errorf("only %.2f of observed links near the VP; expected hot-potato locality", frac)
	}
}

func TestValidateIXPAgainstPublishedData(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run in -short mode")
	}
	// The R&E profile has three IXPs with route-server peers: the §5.6
	// IXP-data validation channel must find and confirm them.
	s := Build(topo.REProfile(), 1)
	res := s.RunVP(0, scamper.Config{})
	ok, total := s.ValidateIXP(res)
	t.Logf("ixp-published validation: %d/%d", ok, total)
	if total == 0 {
		t.Fatal("no IXP links validated (PCH dataset empty?)")
	}
	if float64(ok)/float64(total) < 0.9 {
		t.Errorf("IXP validation %d/%d below 90%%", ok, total)
	}
}

func TestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sw := Sweep([]topo.Profile{topo.TinyProfile(), topo.EnterpriseProfile()}, []int64{1, 2, 3})
	t.Logf("\n%s", sw.Format())
	if len(sw.Rows) != 6 {
		t.Fatalf("rows = %d", len(sw.Rows))
	}
	if sw.MeanAccuracy < 0.9 {
		t.Errorf("mean accuracy %.3f < 0.9", sw.MeanAccuracy)
	}
	if sw.MinAccuracy <= 0 || sw.MinCoverage <= 0 {
		t.Errorf("min stats not computed: %.3f %.3f", sw.MinAccuracy, sw.MinCoverage)
	}
}

func TestStopSetSavings(t *testing.T) {
	ss := MeasureStopSet(topo.TinyProfile(), 1)
	t.Logf("stop set: with=%d without=%d saved=%.2f stopped=%d",
		ss.PacketsWith, ss.PacketsWithout, ss.SavedFrac(), ss.TracesStopped)
	if ss.SavedFrac() <= 0 {
		t.Error("stop set saved nothing")
	}
	if ss.TracesStopped == 0 {
		t.Error("no traces stopped")
	}
}

func TestAblationNoAlias(t *testing.T) {
	a := AblationNoAlias(topo.TinyProfile(), 1)
	t.Logf("%+v", a)
	if a.BaseAcc == 0 || a.VariantAcc == 0 {
		t.Fatal("ablation produced no results")
	}
}

func TestAblationNoThirdParty(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run in -short mode")
	}
	// Use a profile rich in third-party archetypes.
	prof := topo.REProfile()
	a := AblationNoThirdParty(prof, 1)
	t.Logf("%+v", a)
	if a.VariantAcc > a.BaseAcc {
		t.Errorf("disabling third-party detection should not improve accuracy: %.3f -> %.3f",
			a.BaseAcc, a.VariantAcc)
	}
}

func TestAblationSingleAddr(t *testing.T) {
	a := AblationSingleAddr(topo.TinyProfile(), 1)
	t.Logf("%+v", a)
	if a.BaseLinks == 0 {
		t.Fatal("no links in baseline")
	}
}

func TestMeasureAllyRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline in -short mode")
	}
	a := MeasureAllyRounds(topo.TinyProfile(), 1)
	t.Logf("%+v", a)
	if a.RoundsFive.FalsePositives > a.RoundsOne.FalsePositives {
		t.Errorf("five rounds produced more false aliases than one: %+v", a)
	}
}

// TestRunVPRemoteRejectsBadFaultSpec pins the remote runner's error contract:
// a malformed fault spec is a configuration error, returned before any
// session forms.
func TestRunVPRemoteRejectsBadFaultSpec(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	if _, _, err := s.RunVPRemote(0, scamper.Config{}, "127.0.0.1:0", "drop"); err == nil {
		t.Fatalf("RunVPRemote accepted fault spec %q", "drop")
	}
	if runs := s.Obs.Counter("eval.vp_runs_remote").Load(); runs != 0 {
		t.Errorf("eval.vp_runs_remote = %d after a configuration error, want 0", runs)
	}
	if s.Results[0] != nil {
		t.Error("a rejected configuration still recorded a result")
	}
}

// TestRunVPRemoteRejectsState: cross-round replay is local-only, so a
// remote run given a RoundState is a configuration error, returned before
// any session forms.
func TestRunVPRemoteRejectsState(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	if _, _, err := s.RunVPRemote(0, scamper.Config{State: scamper.NewRoundState()}, "127.0.0.1:0", ""); err == nil {
		t.Fatal("RunVPRemote accepted a cross-round state")
	}
	if runs := s.Obs.Counter("eval.vp_runs_remote").Load(); runs != 0 {
		t.Errorf("eval.vp_runs_remote = %d after a configuration error, want 0", runs)
	}
	if s.Results[0] != nil {
		t.Error("a rejected configuration still recorded a result")
	}
}

// TestRunVPRemoteMemoized: a VP is measured again only when a run asks for
// something else. RunVPRemote after a local RunVP is another run and opens
// a session; a second RunVPRemote with the same fault spec returns the
// recorded result and opens none.
func TestRunVPRemoteMemoized(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	local := s.RunVP(0, scamper.Config{})
	remote, _, err := s.RunVPRemote(0, scamper.Config{}, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if remote == local {
		t.Error("RunVPRemote returned the local run it was not asked for")
	}
	again, _, err := s.RunVPRemote(0, scamper.Config{}, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if again != remote {
		t.Error("RunVPRemote re-measured a VP already mapped by the same remote run")
	}
	if n := s.Obs.Counter("eval.vp_runs_remote").Load(); n != 1 {
		t.Errorf("eval.vp_runs_remote = %d, want 1", n)
	}
}
