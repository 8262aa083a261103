package eval

import (
	"bdrmap/internal/core"
	"bdrmap/internal/scamper"
)

// RowPct returns the percentage of class-c neighbor routers heuristic h
// attributed (for programmatic shape checks).
func (t *Table1) RowPct(h core.Heuristic, c int) float64 {
	row := t.Rows[h]
	if row == nil || t.RouterTotals[c] == 0 {
		return 0
	}
	return 100 * float64(row[c]) / float64(t.RouterTotals[c])
}

// Plan returns the probing plan the scenario hands every VP's driver.
func (s *Scenario) Plan() []scamper.Target { return s.plan() }

// SetPlan makes every later VP run probe plan instead.
func (s *Scenario) SetPlan(plan []scamper.Target) {
	s.plan = func() []scamper.Target { return plan }
}
