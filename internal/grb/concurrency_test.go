package grb

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentReads exercises the contract the server relies on: a built
// matrix holds no pending state, so many goroutines may read it at once
// without a lock, each getting the dense reference's answer.
func TestConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 200, 200, 0.05)
	u := randVector(rng, 200, 0.1)
	da := DeltaFrom(a)
	ref := denseVxM(u, toDenseM(a))

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				w := NewVector(200)
				if err := VxMDelta(w, nil, nil, AnyPair, u, da, nil); err != nil {
					t.Error(err)
					return
				}
				wi, wv := vectorTuples(w)
				if len(wi) != len(ref) {
					t.Errorf("nvals %d != %d", len(wi), len(ref))
					return
				}
				for k, i := range wi {
					if want, ok := ref[i]; !ok || math.Abs(wv[k]-want) > 1e-9 {
						t.Errorf("entry %d: got %g, want %g (present %v)", i, wv[k], want, ok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWorkspacePoolReuseIsClean verifies consecutive VxMDelta calls (which share
// pooled scatter buffers) never leak state between calls.
func TestWorkspacePoolReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		a := randMatrix(rng, 64, 64, 0.2)
		u := randVector(rng, 64, 0.3)
		w1 := NewVector(64)
		must(t, vxm(w1, u, a, nil))
		w2 := NewVector(64)
		must(t, vxm(w2, u, a, nil))
		i1, v1 := vectorTuples(w1)
		i2, v2 := vectorTuples(w2)
		if len(i1) != len(i2) {
			t.Fatalf("trial %d: nvals differ", trial)
		}
		for k := range i1 {
			if i1[k] != i2[k] || v1[k] != v2[k] {
				t.Fatalf("trial %d: pooled workspace leaked state", trial)
			}
		}
	}
}
