package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// AppendTrajectory appends one measurement point to a JSON trajectory file
// (an array of points, newest last), creating the file if it is absent.
// The benchmarks that pin a control in results/BENCH_*.json record their
// runs through it; a failure to record is logged on b. Under -short it
// records nothing, so bench smokes leave the tracked files untouched.
func AppendTrajectory(b *testing.B, path string, point map[string]any) {
	b.Helper()
	if testing.Short() {
		return
	}
	if err := appendPoint(path, point); err != nil {
		b.Logf("recording trajectory point: %v", err)
	}
}

func appendPoint(path string, point map[string]any) error {
	var points []map[string]any
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &points); err != nil {
			return err
		}
	}
	points = append(points, point)
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
