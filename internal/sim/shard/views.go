package shard

import (
	"fmt"
	"sync"

	"repro/internal/view"
)

// Boundary-id resolution.
//
// A KindData payload names each boundary node's view by its interned
// id, and the receiver needs the view behind it: worker.step reads
// ghost views as the children of its next-depth node views. Interned
// ids are local to a view.Table (assigned in interning order), so how
// an id becomes a view is decided by the deployment, not by a setting:
//
//   - Shared table (RunCtx, the in-process engine). Every worker interns
//     into the one table the caller passed, so an id already is the
//     view's identity and only ids cross the transport. Before its data
//     send a sender publishes the payload's views into the engine's
//     viewIndex, and the receiver looks its ghost ids up there. Nothing
//     is shipped or journaled beyond the ids, and the index outlives
//     worker incarnations, so a restarted worker resolves its journaled
//     ghosts through it too. An id missing from the index is an
//     *UnknownViewError.
//   - One table per process (RunWorker). An id means nothing in another
//     process, so the sender ships each boundary view's *body* to a
//     peer once, on first reference: alongside every data payload it
//     transmits the transitive closure of the payload's views
//     minus everything the peer has already acked (KindView), and the
//     receiver re-interns the bodies into its own table. A re-interned
//     ghost view is structurally the sender's, so worker.step builds
//     the same node views from it as from a shared-table view; only the
//     table-local ids differ. The rest of this comment concerns this
//     case.
//
// Durability and exactly-once: the receiver journals fresh bodies
// before acking, so acked views survive its crashes and the sender's
// per-peer sent-set may grow monotonically — a view body crosses a
// given link at most once per sender incarnation. A *sender* crash
// resets its sent-set (it is incarnation state), degrading to
// at-least-once: the restarted sender re-ships the full closure of its
// live round, every body of which the receiver provably already holds
// (the crashed incarnation cannot have passed exchange r-1 without its
// round-(r-1) view batch being acked and journaled, by induction down
// to round 0), so the receiver dedups by id and re-acks.
//
// Resolution is deferred to worker.step, in ghost-slot order, and
// never happens on a transport or journal path: all interning in a
// worker process occurs on the engine-loop goroutine in a
// deterministic order (node leaves, per-round ghost slots, per-round
// node batch). A kill-9'd worker that restarts with a fresh table
// therefore reproduces its pre-crash ids exactly, which is what lets
// checkpoint validation (worker.validate) compare table-local ids
// across incarnations.

// viewIndex is the in-process engine's id → view map. A sender
// publishes its payload's views before sending the payload, so any id a
// receiver holds — received live or restored from its journal — was
// published first. The engine owns the index, so it outlives worker
// restarts.
type viewIndex struct {
	mu   sync.Mutex
	byID map[uint64]*view.View
}

func newViewIndex() *viewIndex { return &viewIndex{byID: map[uint64]*view.View{}} }

func (x *viewIndex) publish(vs []*view.View) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, v := range vs {
		x.byID[v.ID()] = v
	}
}

// resolve sets out[i] to the view of ids[i] and returns -1, or returns
// the position of the first id no sender published.
func (x *viewIndex) resolve(ids []uint64, out []*view.View) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, id := range ids {
		v, ok := x.byID[id]
		if !ok {
			return i
		}
		out[i] = v
	}
	return -1
}

// UnknownViewError reports a ghost id that no shard of the run
// published to the shared view index: a boundary payload, received or
// restored from the journal, that this run's table did not produce.
type UnknownViewError struct {
	Shard int    // the receiving shard
	Peer  int    // the shard owning the ghost node
	Node  int    // global id of the ghost node
	ID    uint64 // the unresolvable view id
}

func (e *UnknownViewError) Error() string {
	return fmt.Sprintf("shard: shard %d cannot resolve view id %d of ghost node %d (owned by shard %d): no shard published it",
		e.Shard, e.ID, e.Node, e.Peer)
}

// WireView is one view body in transit: the sender-local interned id,
// the root degree, and for Depth > 0 the root's edges with each child
// named by its own sender-local id. Depth is carried explicitly so a
// receiver can reject malformed bodies without resolving them (edges
// must point at views of depth exactly Depth-1, which also makes
// resolution terminate on arbitrary input).
type WireView struct {
	ID    uint64
	Depth int
	Deg   int
	Edges []WireEdge // len Deg when Depth > 0, nil for leaves
}

// WireEdge mirrors view.Edge with the child as a sender-local id.
type WireEdge struct {
	RemotePort int
	Child      uint64
}

func (v WireView) clone() WireView {
	c := v
	if v.Edges != nil {
		c.Edges = append([]WireEdge(nil), v.Edges...)
	}
	return c
}

// checkWireView validates the body's internal shape (the cross-body
// depth discipline is checked at resolution).
func checkWireView(v WireView) error {
	if v.Depth < 0 || v.Deg < 0 {
		return fmt.Errorf("shard: view %d has negative depth or degree", v.ID)
	}
	if v.Depth == 0 {
		if len(v.Edges) != 0 {
			return fmt.Errorf("shard: leaf view %d carries %d edges", v.ID, len(v.Edges))
		}
		return nil
	}
	if v.Deg == 0 {
		// view.Make requires at least one edge; a positive-depth view of
		// an isolated root cannot arise from a connected graph.
		return fmt.Errorf("shard: view %d has depth %d but no edges", v.ID, v.Depth)
	}
	if len(v.Edges) != v.Deg {
		return fmt.Errorf("shard: view %d has %d edges, degree %d", v.ID, len(v.Edges), v.Deg)
	}
	return nil
}

// viewClosure appends to batch the bodies of every view reachable from
// roots that is neither in shipped nor already in the batch, children
// before parents. The traversal order is deterministic (roots in
// order, edges in port order), so a resent batch for the same round is
// identical to the first.
func viewClosure(shipped map[uint64]bool, roots []*view.View, batch []WireView) []WireView {
	inBatch := map[uint64]bool{}
	var walk func(v *view.View)
	walk = func(v *view.View) {
		id := v.ID()
		if shipped[id] || inBatch[id] {
			return
		}
		inBatch[id] = true
		for _, e := range v.Edges {
			walk(e.Child)
		}
		wv := WireView{ID: id, Depth: v.Depth, Deg: v.Deg}
		if v.Depth > 0 {
			wv.Edges = make([]WireEdge, len(v.Edges))
			for i, e := range v.Edges {
				wv.Edges[i] = WireEdge{RemotePort: e.RemotePort, Child: e.Child.ID()}
			}
		}
		batch = append(batch, wv)
	}
	for _, r := range roots {
		walk(r)
	}
	return batch
}

// viewStore is a worker's receive-side body store: per peer (ids from
// different sender tables must not be mixed), the raw bodies received
// so far and a memo of the views already re-interned locally. Bodies
// are immutable once stored — the first body received for an id wins,
// and duplicates from resends are dropped.
type viewStore struct {
	bodies map[int]map[uint64]WireView
	cache  map[int]map[uint64]*view.View
}

func newViewStore() *viewStore {
	return &viewStore{bodies: map[int]map[uint64]WireView{}, cache: map[int]map[uint64]*view.View{}}
}

// missing returns the subset of batch not yet stored for peer, in batch
// order — the bodies a receiver must journal before acking the batch.
func (vs *viewStore) missing(peer int, batch []WireView) []WireView {
	have := vs.bodies[peer]
	var fresh []WireView
	for _, v := range batch {
		if _, ok := have[v.ID]; !ok {
			fresh = append(fresh, v)
		}
	}
	return fresh
}

// add stores validated bodies for peer (duplicates keep the first body).
func (vs *viewStore) add(peer int, batch []WireView) error {
	m := vs.bodies[peer]
	if m == nil {
		m = map[uint64]WireView{}
		vs.bodies[peer] = m
	}
	for _, v := range batch {
		if err := checkWireView(v); err != nil {
			return err
		}
		if _, ok := m[v.ID]; !ok {
			m[v.ID] = v.clone()
		}
	}
	return nil
}

// complete reports whether every id is transitively resolvable from
// the stored bodies of peer — a pure lookup, no interning, so the
// exchange loop may call it at any time without perturbing the
// deterministic interning order.
func (vs *viewStore) complete(peer int, ids []uint64) bool {
	bodies := vs.bodies[peer]
	cache := vs.cache[peer]
	seen := map[uint64]bool{}
	var walk func(id uint64, depth int) bool
	walk = func(id uint64, depth int) bool {
		if cache[id] != nil || seen[id] {
			return true
		}
		body, ok := bodies[id]
		if !ok || (depth >= 0 && body.Depth != depth) {
			return false
		}
		seen[id] = true
		for _, e := range body.Edges {
			// Depth strictly decreases along edges (checked here and
			// enforced again at resolution), so the walk terminates on
			// arbitrary bodies.
			if !walk(e.Child, body.Depth-1) {
				return false
			}
		}
		return true
	}
	for _, id := range ids {
		if !walk(id, -1) {
			return false
		}
	}
	return true
}

// resolve re-interns the view named by the peer-local id into tab,
// memoizing per (peer, id). It is total: malformed or incomplete body
// sets yield an error, never a panic or runaway recursion.
func (vs *viewStore) resolve(tab *view.Table, peer int, id uint64) (*view.View, error) {
	cache := vs.cache[peer]
	if cache == nil {
		cache = map[uint64]*view.View{}
		vs.cache[peer] = cache
	}
	if v := cache[id]; v != nil {
		return v, nil
	}
	bodies := vs.bodies[peer]
	var build func(id uint64, depth int) (*view.View, error)
	build = func(id uint64, depth int) (*view.View, error) {
		if v := cache[id]; v != nil {
			if depth >= 0 && v.Depth != depth {
				return nil, fmt.Errorf("shard: view %d from peer %d has depth %d, expected %d", id, peer, v.Depth, depth)
			}
			return v, nil
		}
		body, ok := bodies[id]
		if !ok {
			return nil, fmt.Errorf("shard: no body for view %d from peer %d", id, peer)
		}
		if depth >= 0 && body.Depth != depth {
			return nil, fmt.Errorf("shard: view %d from peer %d has depth %d, expected %d", id, peer, body.Depth, depth)
		}
		var v *view.View
		if body.Depth == 0 {
			v = tab.Leaf(body.Deg)
		} else {
			edges := make([]view.Edge, len(body.Edges))
			for i, e := range body.Edges {
				child, err := build(e.Child, body.Depth-1)
				if err != nil {
					return nil, err
				}
				edges[i] = view.Edge{RemotePort: e.RemotePort, Child: child}
			}
			v = tab.Make(edges)
		}
		cache[id] = v
		return v, nil
	}
	return build(id, -1)
}
