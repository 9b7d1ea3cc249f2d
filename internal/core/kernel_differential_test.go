package core

import (
	"fmt"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

// kernelModes is the kernel-direction axis of the differential lattices.
var kernelModes = []kernelMode{kernelAuto, kernelPush, kernelPull}

// String names a kernel mode in test failure messages.
func (k kernelMode) String() string { return [...]string{"auto", "push", "pull"}[k] }

// kernelConfigs enumerates the direction-optimizing differential cells:
// every kernel mode at tuple-at-a-time and fused-frontier batch sizes.
func kernelConfigs() []Config {
	var out []Config
	for _, batch := range []int{1, 64} {
		for _, kernel := range kernelModes {
			out = append(out, Config{batch: batch, kernel: kernel})
		}
	}
	return out
}

// TestKernelDifferentialReads proves push ≡ pull ≡ auto on read pipelines:
// multi-hop, inbound, undirected, multi-type, variable-length (masked BFS
// and label-masked emission), expand-into (with and without edge variables)
// and OPTIONAL MATCH, across batch sizes 1 and 64.
func TestKernelDifferentialReads(t *testing.T) {
	g := adversarialGraph(t, 200)
	queries := []string{
		`MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(c) RETURN a.uid, count(c)`,
		`MATCH (a:Hub)-[:D]->(b)-[:Sp]->(c:Rare) RETURN count(*)`,
		`MATCH (a:Rare)<-[:Sp]-(b:Hub) RETURN a.uid, b.uid`,
		`MATCH (a:Hub {uid: 3})-[:D]-(b) RETURN b.uid`,
		`MATCH (a:Hub {uid: 1})-[:D*1..3]->(b) RETURN count(b)`,
		`MATCH (a:Hub {uid: 0})-[*1..3]->(b:Rare) RETURN count(b)`,
		`MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(a) RETURN count(*)`,
		`MATCH (a:Hub)-[:D]->(b:Hub), (a)-[e:D]->(b) RETURN count(e)`,
		`MATCH (a)-[:D|Sp]->(b) RETURN count(*)`,
		`MATCH (a:Rare) OPTIONAL MATCH (a)-[:D]->(b) RETURN a.uid, b`,
		`MATCH (a:Hub)-[:Sp]->(b:Rare) WHERE a.uid < 80 RETURN a.uid, b.uid`,
	}
	for _, q := range queries {
		var want []string
		for _, cfg := range kernelConfigs() {
			got := runSorted(t, g, q, cfg)
			if want == nil {
				want = got
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("kernel differential mismatch on %s (cfg %+v):\nwant %v\ngot  %v", q, cfg, want, got)
			}
		}
	}
}

// TestKernelDifferentialWrites proves the kernel modes agree through write
// pipelines, where traversal results feed mutations: each cell runs against
// a freshly built graph and the post-write state is compared.
func TestKernelDifferentialWrites(t *testing.T) {
	scenarios := []struct {
		name  string
		write string
		check string
	}{
		{
			name:  "set-above-traversal",
			write: `MATCH (a:Hub {uid: 5})-[:D]->(b) SET b.mark = 1`,
			check: `MATCH (b:Hub) WHERE b.mark = 1 RETURN b.uid`,
		},
		{
			name:  "create-from-expand",
			write: `MATCH (a:Hub)-[:Sp]->(b:Rare) CREATE (b)-[:W]->(a)`,
			check: `MATCH (b:Rare)-[:W]->(a:Hub) RETURN b.uid, a.uid`,
		},
		{
			name:  "delete-cycle-edges",
			write: `MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(a) MATCH (a)-[e:D]->(b) DELETE e`,
			check: `MATCH (a:Hub)-[:D]->(b) RETURN count(*)`,
		},
	}
	for _, sc := range scenarios {
		var want []string
		for _, cfg := range kernelConfigs() {
			g := adversarialGraph(t, 120)
			if _, err := Query(g, sc.write, nil, cfg); err != nil {
				t.Fatalf("%s (cfg %+v): %v", sc.name, cfg, err)
			}
			got := runSorted(t, g, sc.check, cfg)
			if want == nil {
				want = got
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s (cfg %+v):\nwant %v\ngot  %v", sc.name, cfg, want, got)
			}
		}
	}
}

// TestProfileReportsKernel checks PROFILE surfaces the per-hop kernel
// decision for forced modes. Forced pull reaches var-length BFS hops; a
// fixed-length hop always runs the push kernel, whatever the mode.
func TestProfileReportsKernel(t *testing.T) {
	g := adversarialGraph(t, 80)
	cases := []struct {
		kernel      kernelMode
		query, want string
	}{
		{kernelPush, `MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(c) RETURN count(c)`, "kernel: push"},
		{kernelPull, `MATCH (a:Hub {uid: 1})-[:D*1..3]->(b) RETURN count(b)`, "kernel: pull"},
		{kernelPull, `MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(c) RETURN count(c)`, "kernel: push"},
	}
	for _, c := range cases {
		lines, err := Profile(g, c.query, nil, Config{kernel: c.kernel})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, l := range lines {
			if strings.Contains(l, c.want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("PROFILE (%s) of %s missing %q:\n%s", c.kernel, c.query, c.want, strings.Join(lines, "\n"))
		}
	}
}

// TestChoosePullHeuristic exercises the var-length hop chooser directly:
// the frontier's exact out-degree sum decides, forced modes override it, and
// label diagonals stay on push.
func TestChoosePullHeuristic(t *testing.T) {
	g := graph.New("chooser")
	g.Lock()
	g.CreateNode(nil, nil)
	g.Unlock()
	dim := g.Dim()

	// A dense operand: mean degree 32.
	b := grb.NewDeltaMatrix(dim, dim)
	for i := 0; i < dim; i += 2 {
		for k := 0; k < 64; k++ {
			_ = b.SetElement(i, (i*61+k*127)%dim, 1)
		}
	}
	op := relationOperand([]string{"B"}, false, false)
	ctx := &execCtx{g: g}

	// The same nnz count pulls when it sits on the operand's heavy rows and
	// pushes when it sits on empty ones. Half the vertices and a quarter of
	// the operand's in-edges are left unreached.
	var heavy, empty []grb.Index
	for i := 0; i < dim/4; i++ {
		heavy = append(heavy, i*2)   // even rows carry 64 entries each
		empty = append(empty, i*2+1) // odd rows are structurally empty
	}
	unreachedIn := b.NVals() / 4
	if pull := ctx.choosePullHop(&op, rowsFrontier{b, heavy}, dim/2, unreachedIn); !pull {
		t.Fatal("a frontier over heavy rows must pull")
	}
	if pull := ctx.choosePullHop(&op, rowsFrontier{b, empty}, dim/2, unreachedIn); pull {
		t.Fatal("a frontier over empty rows must push regardless of nnz")
	}
	// Two hop states of real searches over the RMAT graphs BenchmarkBFSHop
	// builds (m_f, unreached, m_u). Scale 13, hop 3: m_f ≈ m_u, and the push
	// hop (59 µs) beats the pull hop (72 µs), which scans most of m_u.
	if pull := ctx.choosePullHop(&op, frontierDegree(52062), 7645, 57345); pull {
		t.Fatal("scale-13 hop 3 (m_f ≈ m_u) must push")
	}
	// Scale 14, hop 4: m_u ≪ m_f, and the pull hop (47 µs) beats the push
	// hop (238 µs), which scatters edges into vertices already reached.
	if pull := ctx.choosePullHop(&op, frontierDegree(163446), 8343, 5588); !pull {
		t.Fatal("scale-14 hop 4 (m_u ≪ m_f) must pull")
	}

	ctx.kernel = kernelPush
	if pull := ctx.choosePullHop(&op, rowsFrontier{b, heavy}, dim/2, unreachedIn); pull {
		t.Fatal("forced push must never pull")
	}
	ctx.kernel = kernelPull
	if pull := ctx.choosePullHop(&op, rowsFrontier{b, empty}, dim/2, unreachedIn); !pull {
		t.Fatal("forced pull must pull when a transpose exists")
	}
	diag := labelDiagOperand("B")
	if pull := ctx.choosePullHop(&diag, rowsFrontier{b, heavy}, dim/2, unreachedIn); pull {
		t.Fatal("label diagonals must push")
	}
	ctx.kernel = kernelAuto
}

// rowsFrontier is a BFS frontier given as a list of rows of m: the
// FrontierDegree grb.BFSHop computes, with the same early exit.
type rowsFrontier struct {
	m    *grb.DeltaMatrix
	rows []grb.Index
}

func (f rowsFrontier) FrontierDegree(budget float64) float64 {
	sum := 0.0
	for _, i := range f.rows {
		if sum += float64(f.m.RowDegree(i)); sum > budget {
			break
		}
	}
	return sum
}

// frontierDegree is a BFS frontier given by its out-degree sum alone.
type frontierDegree float64

func (f frontierDegree) FrontierDegree(float64) float64 { return float64(f) }

// TestKernelStatsDescribe pins the PROFILE annotation formats.
func TestKernelStatsDescribe(t *testing.T) {
	var ks kernelStats
	if got := ks.describe(); got != "" {
		t.Fatalf("empty stats should not annotate, got %q", got)
	}
	ks.note(false)
	if got := ks.describe(); got != " | kernel: push" {
		t.Fatalf("push annotation: %q", got)
	}
	ks.note(true)
	want := fmt.Sprintf(" | kernel: mixed(push=%d, pull=%d)", 1, 1)
	if got := ks.describe(); got != want {
		t.Fatalf("mixed annotation: %q", got)
	}
}
