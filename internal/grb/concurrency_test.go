package grb

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentReads exercises the contract the server relies on: a built
// matrix holds no pending state, so many goroutines may read it at once
// without a lock.
func TestConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 200, 200, 0.05)
	u := randVector(rng, 200, 0.1)

	ref := NewVector(200)
	must(t, VxM(ref, nil, nil, PlusTimes, u, a, nil))
	refI, refV := ref.extractTuples()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				w := NewVector(200)
				if err := VxM(w, nil, nil, PlusTimes, u, a, nil); err != nil {
					t.Error(err)
					return
				}
				wi, wv := w.extractTuples()
				if len(wi) != len(refI) {
					t.Errorf("nvals %d != %d", len(wi), len(refI))
					return
				}
				for k := range wi {
					if wi[k] != refI[k] || wv[k] != refV[k] {
						t.Errorf("mismatch at %d", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWorkspacePoolReuseIsClean verifies consecutive VxM calls (which share
// pooled scatter buffers) never leak state between calls.
func TestWorkspacePoolReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		a := randMatrix(rng, 64, 64, 0.2)
		u := randVector(rng, 64, 0.3)
		w1 := NewVector(64)
		must(t, VxM(w1, nil, nil, PlusTimes, u, a, nil))
		w2 := NewVector(64)
		must(t, VxM(w2, nil, nil, PlusTimes, u, a, nil))
		i1, v1 := w1.extractTuples()
		i2, v2 := w2.extractTuples()
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
