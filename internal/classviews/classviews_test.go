package classviews

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/view"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path7":     graph.Path(7),
		"ring6":     graph.Ring(6),
		"lollipop":  graph.Lollipop(5, 4),
		"grid43":    graph.Grid(4, 3),
		"star6":     graph.Star(6),
		"k23":       graph.CompleteBipartite(2, 3),
		"hypercube": graph.Hypercube(3),
		"torus34":   graph.ShufflePorts(graph.Torus(3, 4), 1),
		"random20":  graph.RandomConnected(20, 10, 2),
		"random35":  graph.RandomConnected(35, 18, 9),
	}
}

// The materializer contract: at every depth, Views()[Class()[v]] is the
// very same interned *view.View that per-node refinement (view.Levels)
// produces for v — pointer identity, not just structural equality — and
// the classes match the view-free refiner bit for bit.
func TestMaterializerMatchesLevels(t *testing.T) {
	const depth = 6
	for name, g := range testGraphs() {
		tab := view.NewTable()
		levels := view.Levels(tab, g, depth)
		m := New(tab, g)
		ref := part.NewRefiner(g)
		for d := 0; ; d++ {
			if m.NumClasses() != ref.NumClasses() {
				t.Fatalf("%s depth %d: %d classes, refiner has %d", name, d, m.NumClasses(), ref.NumClasses())
			}
			cls, vs := m.Class(), m.Views()
			for v := 0; v < g.N(); v++ {
				if int(cls[v]) != ref.ClassOf(v) {
					t.Fatalf("%s depth %d: node %d class %d, refiner says %d", name, d, v, cls[v], ref.ClassOf(v))
				}
				if vs[cls[v]] != levels[d][v] {
					t.Fatalf("%s depth %d: node %d view differs from Levels", name, d, v)
				}
			}
			for c := 0; c < m.NumClasses(); c++ {
				rep := m.Representative(c)
				if cls[rep] != int32(c) {
					t.Fatalf("%s depth %d: representative %d not in class %d", name, d, rep, c)
				}
				for v := 0; v < rep; v++ {
					if cls[v] == int32(c) {
						t.Fatalf("%s depth %d: representative %d of class %d is not minimal", name, d, rep, c)
					}
				}
			}
			if d == depth {
				break
			}
			m.Step()
			// Stepping the reference refiner past stability is a no-op
			// on the partition, so it can track every depth.
			ref.Step()
		}
	}
}

// Truncation seeding: Truncate of a materialized class view must be the
// class view one depth up — the O(1) memo the materializer plants, and
// the invariant the labelers rely on.
func TestMaterializerSeedsTruncations(t *testing.T) {
	for name, g := range testGraphs() {
		tab := view.NewTable()
		m := New(tab, g)
		prev := append([]*view.View(nil), m.Views()...)
		prevClass := append([]int32(nil), m.Class()...)
		for d := 1; d <= 5; d++ {
			m.Step()
			cls, vs := m.Class(), m.Views()
			for v := 0; v < g.N(); v++ {
				if got := tab.Truncate(vs[cls[v]]); got != prev[prevClass[v]] {
					t.Fatalf("%s depth %d: truncation of node %d's view is not the previous class view", name, d, v)
				}
			}
			prev = append(prev[:0], vs...)
			prevClass = append(prevClass[:0], cls...)
		}
	}
}

// Once the class count stops changing, Step must stop allocating: the
// packed edge matrix (flat/off) is recycled in place, so deepening the
// views of a stable partition reuses the exact same backing arrays.
// This is the buffer discipline that keeps long materializations (one
// Step per depth up to the election index) at O(classes) live memory
// instead of O(depths x classes).
func TestMaterializerRecyclesBuffers(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"ring8":    graph.Ring(8), // stable at 1 class forever
		"torus34":  graph.ShufflePorts(graph.Torus(3, 4), 1),
		"random35": graph.RandomConnected(35, 18, 9), // refines to discrete
	} {
		m := New(view.NewTable(), g)
		// Reach steady state: step until the partition is stable, then
		// once more so flat/off have been sized for the final class count.
		for !m.Stable() {
			m.Step()
		}
		m.Step()
		if len(m.flat) == 0 || len(m.off) != m.k+1 {
			t.Fatalf("%s: steady state has %d packed edges, %d offsets for %d classes",
				name, len(m.flat), len(m.off), m.k)
		}
		flatPtr, flatCap := &m.flat[0], cap(m.flat)
		offPtr, offCap := &m.off[0], cap(m.off)
		for d := 0; d < 8; d++ {
			m.Step()
			if &m.flat[0] != flatPtr || cap(m.flat) != flatCap {
				t.Fatalf("%s: Step %d reallocated flat (cap %d -> %d)", name, d, flatCap, cap(m.flat))
			}
			if &m.off[0] != offPtr || cap(m.off) != offCap {
				t.Fatalf("%s: Step %d reallocated off (cap %d -> %d)", name, d, offCap, cap(m.off))
			}
		}
	}
}

// After the partition stabilizes on an infeasible graph, classes stay
// frozen and further Steps only deepen the class views.
func TestMaterializerFrozenAfterStability(t *testing.T) {
	g := graph.Ring(8) // symmetric: one class forever
	m := New(view.NewTable(), g)
	for d := 0; d < 6; d++ {
		m.Step()
	}
	if !m.Stable() {
		t.Fatal("ring partition should be stable")
	}
	if m.NumClasses() != 1 {
		t.Fatalf("ring has %d classes, want 1", m.NumClasses())
	}
	if v := m.Views()[0]; v.Depth != 6 {
		t.Fatalf("class view depth = %d, want 6", v.Depth)
	}
}
