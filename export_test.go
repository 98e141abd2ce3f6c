package bounce

import (
	"repro/internal/analysis"
	"repro/internal/squat"
)

// CountSquatScans makes every squat scan bump *n until the returned
// restore is called.
func CountSquatScans(n *int) (restore func()) {
	squatScan = func(a *analysis.Analysis, d *analysis.Detections, cfg squat.Config) *squat.Result {
		*n++
		return squat.Scan(a, d, cfg)
	}
	return func() { squatScan = squat.Scan }
}
