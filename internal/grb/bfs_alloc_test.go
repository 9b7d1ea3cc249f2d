//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so a
// pooled kernel's allocation count is only meaningful without it.

package grb

import "testing"

// TestBFSAllocsConstant checks a warm BFS allocates O(1) — not per hop, not
// per reached vertex: a 2 000-hop path, a wide two-level fan-out and their
// two-part union, pushed and pulled, over delta matrices with pending rows.
func TestBFSAllocsConstant(t *testing.T) {
	const n = 2000
	path, pathT := NewDeltaMatrix(n, n), NewDeltaMatrix(n, n)
	fan, fanT := NewDeltaMatrix(n, n), NewDeltaMatrix(n, n)
	for i := 0; i+1 < n; i++ {
		_ = path.SetElement(i, i+1, 1)
		_ = pathT.SetElement(i+1, i, 1)
		_ = fan.SetElement(0, i+1, 1)
		_ = fanT.SetElement(i+1, 0, 1)
	}
	reached := 0
	visit := func(_ int, level []Index) error {
		reached += len(level)
		return nil
	}
	push := func(*BFSHop) (bool, error) { return false, nil }
	pull := func(*BFSHop) (bool, error) { return true, nil }
	paths, pathTs := []*DeltaMatrix{path}, []*DeltaMatrix{pathT}
	fans, fanTs := []*DeltaMatrix{fan}, []*DeltaMatrix{fanT}
	both := []*DeltaMatrix{fan, path} // a two-part operand: fan ∪ path
	for _, c := range []struct {
		name  string
		a, at []*DeltaMatrix
		step  func(*BFSHop) (bool, error)
	}{
		{"path/push", paths, pathTs, push},
		{"path/pull", paths, pathTs, pull},
		{"fan/push", fans, fanTs, push},
		{"fan/pull", fans, fanTs, pull},
		{"fan+path/push", both, []*DeltaMatrix{fanT, pathT}, push},
		{"fan+path/pull", both, []*DeltaMatrix{pathT, fanT}, pull},
	} {
		run := func() {
			reached = 0
			if err := BFS(c.a, c.at, 0, -1, c.step, visit); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool
		if allocs := testing.AllocsPerRun(5, run); allocs > 1 {
			t.Errorf("%s: %.1f allocs per warm BFS, want O(1)", c.name, allocs)
		}
		if reached != n {
			t.Errorf("%s: reached %d vertices, want %d", c.name, reached, n)
		}
	}
}
