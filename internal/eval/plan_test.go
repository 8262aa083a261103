package eval

import (
	"reflect"
	"testing"

	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestVPsShareOnePlan: the scenario derives its probing plan once, it is
// the plan scamper.Targets derives from the view, and every VP's driver —
// a fleet's, in-process, and a §5.8 remote run's — probes that plan rather
// than one of its own. driver.targets still counts the plan once per VP.
func TestVPsShareOnePlan(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	plan := s.Plan()
	if want := scamper.Targets(s.View, s.HostASNs); !reflect.DeepEqual(plan, want) {
		t.Fatalf("scenario plan has %d targets, scamper.Targets %d, or they differ", len(plan), len(want))
	}
	if again := s.Plan(); len(plan) == 0 || &again[0] != &plan[0] {
		t.Fatal("the plan is derived again on a second use")
	}
	vps := len(s.Net.VPs)
	if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunVPRemote(0, scamper.Config{}, "127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Obs.Counter("driver.targets").Load(), int64((vps+1)*len(plan)); got != want {
		t.Fatalf("driver.targets = %d, want %d: the plan once per VP run", got, want)
	}

	// A driver deriving its own plan would probe every target; one handed
	// the scenario's probes only what the scenario holds.
	s = Build(topo.TinyProfile(), 1)
	short := plan[:2]
	s.SetPlan(short)
	if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i := range vps {
		checkPlanned(t, s.Datasets[i], short, "fleet")
	}
	if _, _, err := s.RunVPRemote(vps-1, scamper.Config{}, "127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	checkPlanned(t, s.Datasets[vps-1], short, "remote")
	if got, want := s.Obs.Counter("driver.targets").Load(), int64((vps+1)*len(short)); got != want {
		t.Fatalf("driver.targets = %d with a %d-target plan, want %d", got, want, (vps+1)*len(short))
	}
}

// checkPlanned fails unless every trace of ds went to a target of plan.
func checkPlanned(t *testing.T, ds *scamper.Dataset, plan []scamper.Target, mode string) {
	t.Helper()
	if len(ds.Traces) == 0 {
		t.Fatalf("%s %s: no traces", mode, ds.VPName)
	}
	for _, tr := range ds.Traces {
		if tr.TargetAS != plan[0].AS && tr.TargetAS != plan[1].AS {
			t.Fatalf("%s %s traced toward AS%d, which the plan does not hold", mode, ds.VPName, tr.TargetAS)
		}
	}
}
