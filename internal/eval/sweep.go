package eval

import (
	"fmt"
	"strings"

	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// Sweep reproduces §5.7's robustness statement — "we also used bdrmap to
// infer border routers of 25 other networks, with similar results" — by
// running the full pipeline over many (profile, seed) worlds and
// summarizing accuracy and coverage.

// SweepRow is one world's outcome.
type SweepRow struct {
	Profile  string
	Seed     int64
	Links    int
	Accuracy float64
	Coverage float64
}

// SweepSummary aggregates a sweep.
type SweepSummary struct {
	Rows []SweepRow

	MeanAccuracy, MinAccuracy float64
	MeanCoverage, MinCoverage float64
}

// Sweep runs every (profile, seed) combination.
func Sweep(profiles []topo.Profile, seeds []int64) SweepSummary {
	var sum SweepSummary
	accTot, covTot := 0.0, 0.0
	sum.MinAccuracy, sum.MinCoverage = 1, 1
	for _, prof := range profiles {
		for _, seed := range seeds {
			s := Build(prof, seed)
			res := s.RunVP(0, scamper.Config{})
			v := s.Validate(res)
			found, total := s.Coverage(res)
			cov := 0.0
			if total > 0 {
				cov = float64(found) / float64(total)
			}
			row := SweepRow{
				Profile: prof.Name, Seed: seed,
				Links: v.Total, Accuracy: v.Accuracy(), Coverage: cov,
			}
			sum.Rows = append(sum.Rows, row)
			accTot += row.Accuracy
			covTot += row.Coverage
			if row.Accuracy < sum.MinAccuracy {
				sum.MinAccuracy = row.Accuracy
			}
			if row.Coverage < sum.MinCoverage {
				sum.MinCoverage = row.Coverage
			}
		}
	}
	if n := float64(len(sum.Rows)); n > 0 {
		sum.MeanAccuracy = accTot / n
		sum.MeanCoverage = covTot / n
	}
	return sum
}

// Format renders the sweep as a table.
func (s SweepSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %7s %10s %10s\n", "network", "seed", "links", "accuracy", "coverage")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-14s %6d %7d %9.1f%% %9.1f%%\n",
			r.Profile, r.Seed, r.Links, 100*r.Accuracy, 100*r.Coverage)
	}
	fmt.Fprintf(&b, "%-14s %6s %7s %9.1f%% %9.1f%%   (min %.1f%% / %.1f%%)\n",
		"mean", "", "", 100*s.MeanAccuracy, 100*s.MeanCoverage,
		100*s.MinAccuracy, 100*s.MinCoverage)
	return b.String()
}
