package shard

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/view"
)

func sampleRecord(round int) Record {
	return Record{
		Round:     round,
		Labels:    []int32{10, 11, 11, -12},
		Decided:   []Decision{{Node: 3, Round: round, Output: []int{1, -4, 0}}},
		Remaining: 7 - round,
	}
}

// TestFileJournalRoundTrip commits checkpoints and ghosts and reads
// them back through Restore: sorted contiguous records and every ghost
// payload.
func TestFileJournalRoundTrip(t *testing.T) {
	j := NewFileJournal(nil, t.TempDir())
	const shard = 1
	for r := 2; r >= 0; r-- { // commit out of order; Restore sorts
		if err := j.Checkpoint(shard, sampleRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	ghosts := []GhostRecord{{Round: 0, Peer: 0, Labels: []int32{5, -6}}, {Round: 1, Peer: 2, Labels: []int32{9}}}
	for _, gr := range ghosts {
		if err := j.Ghosts(shard, gr); err != nil {
			t.Fatal(err)
		}
	}

	got, err := j.Restore(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 {
		t.Fatalf("restored %d records, want 3", len(got.Records))
	}
	for i, rec := range got.Records {
		if !reflect.DeepEqual(rec, sampleRecord(i)) {
			t.Errorf("record %d: %+v, want %+v", i, rec, sampleRecord(i))
		}
	}
	if !reflect.DeepEqual(got.Ghosts, ghosts) {
		t.Fatalf("restored ghosts %+v, want %+v", got.Ghosts, ghosts)
	}

	// A different shard's journal is empty and independent.
	other, err := j.Restore(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Records)+len(other.Ghosts) != 0 {
		t.Fatalf("shard 2 restored foreign state: %+v", other)
	}
}

// TestFileJournalIdempotent re-commits the same checkpoint and ghost
// (the recovery replay path does both) and checks nothing duplicates.
func TestFileJournalIdempotent(t *testing.T) {
	j := NewFileJournal(nil, t.TempDir())
	for i := 0; i < 2; i++ {
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatal(err)
		}
		if err := j.Ghosts(0, GhostRecord{Round: 0, Peer: 1, Labels: []int32{3}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := j.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || len(got.Ghosts) != 1 {
		t.Fatalf("idempotent commits restored %d records / %d ghosts, want 1/1", len(got.Records), len(got.Ghosts))
	}
}

// TestFileJournalReopen opens a second handle on the same root — a
// restarted process — and appends to it: Restore through the new handle
// returns what both handles committed.
func TestFileJournalReopen(t *testing.T) {
	dir := t.TempDir()
	j1 := NewFileJournal(nil, dir)
	if err := j1.Checkpoint(0, sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := j1.Ghosts(0, GhostRecord{Round: 0, Peer: 1, Labels: []int32{1}}); err != nil {
		t.Fatal(err)
	}

	j2 := NewFileJournal(nil, dir) // the restarted incarnation's handle
	if err := j2.Checkpoint(0, sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Ghosts(0, GhostRecord{Round: 1, Peer: 1, Labels: []int32{2}}); err != nil {
		t.Fatal(err)
	}
	got, err := j2.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || len(got.Ghosts) != 2 {
		t.Fatalf("after reopen restored %d records / %d ghosts, want 2/2", len(got.Records), len(got.Ghosts))
	}
}

// TestFileJournalCorruption pins Restore's refusal to trust a damaged
// journal: bit flips, renamed records and unparsable names all surface
// as ErrJournalCorrupt, while leftover tmp- staging is silently
// reclaimed.
func TestFileJournalCorruption(t *testing.T) {
	t.Run("bit-flip", func(t *testing.T) {
		dir := t.TempDir()
		j := NewFileJournal(nil, dir)
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "s0", "ck-0.rec")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFileJournal(nil, dir).Restore(0); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("round-name-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		j := NewFileJournal(nil, dir)
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatal(err)
		}
		sd := filepath.Join(dir, "s0")
		if err := os.Rename(filepath.Join(sd, "ck-0.rec"), filepath.Join(sd, "ck-5.rec")); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFileJournal(nil, dir).Restore(0); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("unparsable-name", func(t *testing.T) {
		dir := t.TempDir()
		sd := filepath.Join(dir, "s0")
		if err := os.MkdirAll(sd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sd, "ck-x.rec"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFileJournal(nil, dir).Restore(0); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("tmp-staging-reclaimed", func(t *testing.T) {
		dir := t.TempDir()
		j := NewFileJournal(nil, dir)
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, "s0", "tmp-ck-1.rec")
		if err := os.WriteFile(tmp, []byte("half a record"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := NewFileJournal(nil, dir).Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != 1 {
			t.Fatalf("restored %d records, want 1", len(got.Records))
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("tmp staging file survived Restore: %v", err)
		}
	})
	t.Run("foreign-kind", func(t *testing.T) {
		dir := t.TempDir()
		j := NewFileJournal(nil, dir)
		if err := j.Ghosts(0, GhostRecord{Round: 0, Peer: 1, Labels: []int32{1}}); err != nil {
			t.Fatal(err)
		}
		sd := filepath.Join(dir, "s0")
		// A ghost record masquerading under a checkpoint name: the kind
		// byte check catches it.
		if err := os.Rename(filepath.Join(sd, "gh-0-1.rec"), filepath.Join(sd, "ck-0.rec")); err != nil {
			t.Fatal(err)
		}
		if _, err := NewFileJournal(nil, dir).Restore(0); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
}

// TestFileJournalFaultFS drives the journal through store.FaultFS: a
// failed write or rename surfaces as an error from the commit (wrapping
// store.ErrInjected), a torn write — success reported, prefix persisted
// — surfaces at Restore as ErrJournalCorrupt, and the journal heals
// once the budgets drain.
func TestFileJournalFaultFS(t *testing.T) {
	t.Run("write-fail", func(t *testing.T) {
		ffs := store.NewFaultFS(nil)
		j := NewFileJournal(ffs, t.TempDir())
		ffs.FailNextWrites(1)
		if err := j.Checkpoint(0, sampleRecord(0)); !errors.Is(err, store.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatalf("journal did not heal after the budget drained: %v", err)
		}
	})
	t.Run("rename-fail", func(t *testing.T) {
		ffs := store.NewFaultFS(nil)
		dir := t.TempDir()
		j := NewFileJournal(ffs, dir)
		ffs.FailNextRenames(1)
		if err := j.Ghosts(0, GhostRecord{Round: 0, Peer: 1, Labels: []int32{2}}); !errors.Is(err, store.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
		// The staged tmp- file exists but was never published; Restore
		// reclaims it and sees no ghosts.
		got, err := j.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ghosts) != 0 {
			t.Fatalf("failed commit still restored %d ghosts", len(got.Ghosts))
		}
	})
	t.Run("torn-write", func(t *testing.T) {
		ffs := store.NewFaultFS(nil)
		dir := t.TempDir()
		j := NewFileJournal(ffs, dir)
		ffs.TearNextWrites(1)
		// The tear is silent: the commit reports success with only a
		// ragged prefix on disk — the crash-after-partial-flush shape.
		if err := j.Checkpoint(0, sampleRecord(0)); err != nil {
			t.Fatalf("torn write surfaced early: %v", err)
		}
		if torn := ffs.TornPaths(); len(torn) != 1 {
			t.Fatalf("TornPaths = %v, want exactly the staged checkpoint", torn)
		}
		if _, err := NewFileJournal(nil, dir).Restore(0); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
}

// TestShardedFileJournalKillRestart is the disk-backed recovery
// differential: every shard crashes once against a FileJournal on a
// real temp directory, replays from disk, and the outputs match RunBSP
// bit-for-bit — the in-process twin of the root package's
// multi-process SIGKILL test.
func TestShardedFileJournalKillRestart(t *testing.T) {
	forEachKind(t, func(t *testing.T, f sim.Factory) {
		g := graph.RandomConnected(60, 45, 11)
		want, err := sim.RunBSP(view.NewTable(), g, f, sim.DefaultMaxRounds(g), 0)
		if err != nil {
			t.Fatal(err)
		}
		const shards = 3
		inj := faults.New(21)
		for s := 0; s < shards; s++ {
			inj.ArmAfter(CrashCat(s), 2+3*s, 1)
		}
		ft := NewFaultTransport(NewChanTransport(shards), inj)
		fj := NewFileJournal(nil, t.TempDir())
		got, stats, err := Run(view.NewTable(), g, f, Options{
			Shards: shards, Transport: ft, Journal: fj, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%v [%s]", err, inj)
		}
		requireSame(t, "file-journal-kill-restart", want, got)
		if stats.Crashes < shards || stats.Recoveries != stats.Crashes {
			t.Errorf("crashes=%d recoveries=%d, want %d of each [%s]", stats.Crashes, stats.Recoveries, shards, inj)
		}
	})
}

// TestShardedJournalWriteFailure pins the satellite contract that a
// journal I/O failure surfaces as a typed *JournalError (wrapping the
// cause) instead of being swallowed — an engine that acks data it
// cannot replay would break recovery.
func TestShardedJournalWriteFailure(t *testing.T) {
	g := graph.Ring(12)
	ffs := store.NewFaultFS(nil)
	fj := NewFileJournal(ffs, t.TempDir())
	ffs.FailNextWrites(1) // the very first checkpoint commit fails
	_, _, err := Run(view.NewTable(), g, countFactory, Options{Shards: 2, Journal: fj})
	var je *JournalError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *JournalError", err)
	}
	if je.Op != "checkpoint" {
		t.Errorf("journal error op = %q, want checkpoint", je.Op)
	}
	if !errors.Is(err, store.ErrInjected) {
		t.Errorf("journal error does not unwrap to the injected cause: %v", err)
	}
}

// FuzzShardJournalRecord feeds arbitrary bytes, as a crash could leave
// them on disk, to the journal's record readers: once as a whole record
// and once sealed with a valid checksum, so that mutations reach the
// decoders behind the CRC check. The readers must never panic, and
// every record they accept must be the one encoding of what they
// decoded: re-encoding it gives the same bytes. The corpus starts from
// the records of a real FileJournal run, whole and without their
// checksums.
func FuzzShardJournalRecord(f *testing.F) {
	dir := f.TempDir()
	g := graph.Grid(4, 5)
	if _, _, err := Run(view.NewTable(), g, countLabelFactory, Options{Shards: 2, Journal: NewFileJournal(nil, dir)}); err != nil {
		f.Fatal(err)
	}
	seeds := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".rec") {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil {
			f.Add(data)
			f.Add(data[:len(data)-4])
			seeds++
		}
		return err
	})
	if err != nil || seeds == 0 {
		f.Fatalf("collected %d seed records: %v", seeds, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, seal(append([]byte(nil), data...))} {
			if r, err := fjOpen(rec, fjKindCheckpoint, "ck"); err == nil {
				if ck, err := decodeCheckpoint(r); err == nil && !bytes.Equal(encodeCheckpoint(ck), rec) {
					t.Fatalf("checkpoint %+v re-encodes to other bytes", ck)
				}
			}
			if r, err := fjOpen(rec, fjKindGhosts, "gh"); err == nil {
				if gr, err := decodeGhosts(r); err == nil && !bytes.Equal(encodeGhosts(gr), rec) {
					t.Fatalf("ghost record %+v re-encodes to other bytes", gr)
				}
			}
		}
	})
}
