package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Decision is one node's election output, as journaled and as reported
// to the supervisor.
type Decision struct {
	Node   int // global node id
	Round  int
	Output []int
}

// Record is one shard's checkpoint for one round, written after the
// round's decide sweep and before the round is reported: the label of
// every local node at round Round, the decisions the sweep produced,
// and the frontier counter (local nodes still undecided). A restarted
// shard replays its records from round 0 — deciders may be stateful, so
// recovery re-executes the sweeps rather than resuming from a snapshot
// — and uses the checkpoints to validate that the replay reproduced the
// crashed incarnation exactly.
type Record struct {
	Round     int
	Labels    []int32 // label of local node i at round Round
	Decided   []Decision
	Remaining int // local nodes still undecided after the sweep
}

// GhostRecord is one peer's boundary payload for one round, journaled
// *before* it is acked — acked data must survive a crash, because the
// sender is now free to forget it.
type GhostRecord struct {
	Round  int
	Peer   int
	Labels []int32 // aligned to the ghost slots owned by Peer, ascending
}

// Restored is everything a shard recovers from its journal: the
// checkpoints sorted by round and the ghost payloads in arrival order.
type Restored struct {
	Records []Record
	Ghosts  []GhostRecord
}

// Journal is a shard's crash-surviving store. Implementations must be
// safe for concurrent use by different shards and must not retain the
// slices they are handed (the engine reuses its checkpoint buffer);
// Checkpoint is idempotent per (shard, round) and Ghosts per (shard,
// round, peer). Every write reports failure — a journal that swallows
// an I/O error would let the engine ack data it cannot replay,
// breaking the recovery contract — and the engine surfaces failures as
// a *JournalError.
type Journal interface {
	Checkpoint(shard int, rec Record) error
	Ghosts(shard int, gr GhostRecord) error
	// Views once persisted shipped view bodies. The engine never calls
	// it; MemJournal's and FileJournal's are no-ops.
	//
	// Deprecated: kept only because benchmark/trace.go compiles against
	// it; remove it with that file's reference.
	Views(shard, peer int, views []WireView) error
	// Restore returns everything the shard has durably stored. Torn or
	// corrupt entries surface as an error wrapping ErrJournalCorrupt —
	// a shard must not replay from a journal it cannot trust.
	Restore(shard int) (Restored, error)
}

// ErrJournalCorrupt marks Restore failures caused by torn or corrupt
// journal entries (as opposed to plain I/O errors); match with
// errors.Is.
var ErrJournalCorrupt = errors.New("shard: journal corrupt")

// JournalError is the typed error the engine wraps journal failures
// in: which shard, which operation, and the underlying cause (reach it
// with errors.Is / errors.As through Unwrap).
type JournalError struct {
	Shard int
	Op    string // "checkpoint", "ghosts", "restore"
	Err   error
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("shard: shard %d journal %s failed: %v", e.Shard, e.Op, e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

// MemJournal is the in-process Journal. It deep-copies every slice on
// write, so a crashed incarnation's buffers cannot alias the store —
// the in-memory analogue of store's write-then-rename discipline. Its
// writes cannot fail; the error returns exist so the engine exercises
// the same surfacing paths a disk journal needs.
type MemJournal struct {
	mu     sync.Mutex
	recs   map[int]map[int]Record // shard → round → record
	ghosts map[int][]GhostRecord
}

// NewMemJournal returns an empty journal.
func NewMemJournal() *MemJournal {
	return &MemJournal{recs: map[int]map[int]Record{}, ghosts: map[int][]GhostRecord{}}
}

func (j *MemJournal) Checkpoint(shard int, rec Record) error {
	cp := Record{
		Round:     rec.Round,
		Labels:    append([]int32(nil), rec.Labels...),
		Remaining: rec.Remaining,
	}
	for _, d := range rec.Decided {
		// The copy stays non-nil even for an empty output: a decided
		// node's Output is non-nil by contract, and replay must hand
		// back exactly what was checkpointed.
		cp.Decided = append(cp.Decided, Decision{Node: d.Node, Round: d.Round, Output: append([]int{}, d.Output...)})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	byRound := j.recs[shard]
	if byRound == nil {
		byRound = map[int]Record{}
		j.recs[shard] = byRound
	}
	byRound[rec.Round] = cp
	return nil
}

func (j *MemJournal) Ghosts(shard int, gr GhostRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, have := range j.ghosts[shard] {
		if have.Round == gr.Round && have.Peer == gr.Peer {
			return nil // duplicate delivery: already durable
		}
	}
	j.ghosts[shard] = append(j.ghosts[shard], GhostRecord{
		Round: gr.Round, Peer: gr.Peer, Labels: append([]int32(nil), gr.Labels...),
	})
	return nil
}

// Views stores nothing.
//
// Deprecated: kept only to implement Journal.Views, which
// benchmark/trace.go compiles against.
func (j *MemJournal) Views(shard, peer int, views []WireView) error { return nil }

func (j *MemJournal) Restore(shard int) (Restored, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out Restored
	for _, rec := range j.recs[shard] {
		out.Records = append(out.Records, rec)
	}
	sort.Slice(out.Records, func(a, b int) bool { return out.Records[a].Round < out.Records[b].Round })
	out.Ghosts = append([]GhostRecord(nil), j.ghosts[shard]...)
	return out, nil
}
