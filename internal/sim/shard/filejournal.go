package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/store"
)

// FileJournal is the disk-backed Journal: one directory per shard, one
// file per record, committed with internal/store's discipline — stage
// under a tmp- name with a durable WriteFile (which fsyncs before
// returning), then atomically Rename into place. A kill-9 can
// therefore leave only (a) committed records, each protected by a
// trailing CRC, or (b) tmp- staging files, which Restore deletes. A
// record that is present but fails its magic, CRC or decode is a torn
// or corrupt entry and Restore reports it wrapping ErrJournalCorrupt:
// unlike the advice cache's recovery scan, a shard journal has no safe
// way to quarantine a checkpoint — replaying past a hole could publish
// different bits than the crashed incarnation already reported.
//
// Layout under root:
//
//	s<shard>/ck-<round>.rec        checkpoint Record
//	s<shard>/gh-<round>-<peer>.rec ghost payload GhostRecord
//	s<shard>/tmp-*                 staging (never read)
//
// All record bodies are varint-encoded (wire.go's idiom, labels as
// zigzag varints) behind a 3-byte magic and a kind byte, with a
// little-endian CRC-32C of everything before it as the last 4 bytes.
//
// The FS is pluggable so the chaos suite can inject write/read/rename
// failures and torn writes with store.FaultFS; production passes nil
// for the real filesystem.
type FileJournal struct {
	fs   store.FS
	root string

	mu    sync.Mutex
	ready map[int]bool // shards whose directory exists
}

var fjMagic = [3]byte{'S', 'J', '3'}

const (
	fjKindCheckpoint = 'C'
	fjKindGhosts     = 'G'
)

// NewFileJournal returns a journal rooted at dir on fsys (nil fsys
// means the real filesystem). The directory need not exist.
func NewFileJournal(fsys store.FS, dir string) *FileJournal {
	if fsys == nil {
		fsys = store.OSFS{}
	}
	return &FileJournal{fs: fsys, root: dir, ready: map[int]bool{}}
}

func (j *FileJournal) dir(shard int) string {
	return filepath.Join(j.root, fmt.Sprintf("s%d", shard))
}

// ensure creates the shard directory once per handle. Callers hold
// j.mu.
func (j *FileJournal) ensure(shard int) error {
	if j.ready[shard] {
		return nil
	}
	if err := j.fs.MkdirAll(j.dir(shard)); err != nil {
		return fmt.Errorf("shard: create journal dir: %w", err)
	}
	j.ready[shard] = true
	return nil
}

// parseTwo parses "<prefix><a>-<b>.rec" names.
func parseTwo(name, prefix string) (a, b int, ok bool) {
	rest, found := strings.CutPrefix(name, prefix)
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".rec")
	if !found {
		return 0, 0, false
	}
	as, bs, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	av, err1 := strconv.Atoi(as)
	bv, err2 := strconv.Atoi(bs)
	if err1 != nil || err2 != nil || av < 0 || bv < 0 {
		return 0, 0, false
	}
	return av, bv, true
}

// parseOne parses "<prefix><a>.rec" names.
func parseOne(name, prefix string) (a int, ok bool) {
	rest, found := strings.CutPrefix(name, prefix)
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".rec")
	if !found {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// seal appends the CRC trailer to a record body started by fjHeader.
func seal(buf []byte) []byte {
	crc := crc32.Checksum(buf, fjCRC)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

var fjCRC = crc32.MakeTable(crc32.Castagnoli)

func fjHeader(kind byte) []byte {
	return append(append(make([]byte, 0, 64), fjMagic[:]...), kind)
}

// open checks magic, kind and CRC and returns the varint content.
func fjOpen(data []byte, kind byte, path string) (*wireReader, error) {
	if len(data) < len(fjMagic)+1+4 {
		return nil, fmt.Errorf("%w: %s: %d-byte record", ErrJournalCorrupt, path, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc := crc32.Checksum(body, fjCRC); crc != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrJournalCorrupt, path)
	}
	if [3]byte(body[:3]) != fjMagic || body[3] != kind {
		return nil, fmt.Errorf("%w: %s: bad magic or kind", ErrJournalCorrupt, path)
	}
	return &wireReader{data: body[4:]}, nil
}

// commit stages data under a tmp- sibling and renames it into place.
// WriteFile durably syncs before returning (the FS contract), so the
// rename never publishes an unsynced file.
func (j *FileJournal) commit(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, "tmp-"+name)
	if err := j.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	return j.fs.Rename(tmp, filepath.Join(dir, name))
}

func (j *FileJournal) Checkpoint(shard int, rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(shard); err != nil {
		return err
	}
	return j.commit(j.dir(shard), fmt.Sprintf("ck-%d.rec", rec.Round), encodeCheckpoint(rec))
}

// encodeCheckpoint returns the sealed record of rec.
func encodeCheckpoint(rec Record) []byte {
	buf := fjHeader(fjKindCheckpoint)
	buf = binary.AppendUvarint(buf, uint64(rec.Round))
	buf = binary.AppendUvarint(buf, uint64(rec.Remaining))
	buf = appendLabels(buf, rec.Labels)
	buf = appendDecisions(buf, rec.Decided)
	return seal(buf)
}

func decodeCheckpoint(r *wireReader) (Record, error) {
	rec := Record{Round: r.num("round"), Remaining: r.num("remaining")}
	rec.Labels = r.labels("label")
	rec.Decided = r.decisions()
	r.end()
	return rec, r.err
}

func (j *FileJournal) Ghosts(shard int, gr GhostRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(shard); err != nil {
		return err
	}
	return j.commit(j.dir(shard), fmt.Sprintf("gh-%d-%d.rec", gr.Round, gr.Peer), encodeGhosts(gr))
}

// encodeGhosts returns the sealed record of gr.
func encodeGhosts(gr GhostRecord) []byte {
	buf := fjHeader(fjKindGhosts)
	buf = binary.AppendUvarint(buf, uint64(gr.Round))
	buf = binary.AppendUvarint(buf, uint64(gr.Peer))
	buf = appendLabels(buf, gr.Labels)
	return seal(buf)
}

func decodeGhosts(r *wireReader) (GhostRecord, error) {
	gr := GhostRecord{Round: r.num("round"), Peer: r.num("peer")}
	gr.Labels = r.labels("ghost label")
	r.end()
	return gr, r.err
}

// Views stores nothing.
//
// Deprecated: kept only to implement Journal.Views, which
// benchmark/trace.go compiles against.
func (j *FileJournal) Views(shard, peer int, views []WireView) error { return nil }

func (j *FileJournal) Restore(shard int) (Restored, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(shard); err != nil {
		return Restored{}, err
	}
	dir := j.dir(shard)
	names, err := j.fs.ReadDir(dir)
	if err != nil {
		return Restored{}, fmt.Errorf("shard: scan journal dir: %w", err)
	}
	sort.Strings(names)
	var out Restored
	for _, name := range names {
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "tmp-"):
			// Staging left behind by a crash mid-commit: never read,
			// best-effort removed.
			j.fs.Remove(path) //nolint:errcheck // advisory cleanup
		case strings.HasPrefix(name, "ck-"):
			round, ok := parseOne(name, "ck-")
			if !ok {
				return Restored{}, fmt.Errorf("%w: unparsable name %s", ErrJournalCorrupt, path)
			}
			data, err := j.fs.ReadFile(path)
			if err != nil {
				return Restored{}, fmt.Errorf("shard: read checkpoint: %w", err)
			}
			r, err := fjOpen(data, fjKindCheckpoint, path)
			if err != nil {
				return Restored{}, err
			}
			rec, err := decodeCheckpoint(r)
			if err != nil {
				return Restored{}, fmt.Errorf("%w: %s: %w", ErrJournalCorrupt, path, err)
			}
			if rec.Round != round {
				return Restored{}, fmt.Errorf("%w: %s: contains round %d", ErrJournalCorrupt, path, rec.Round)
			}
			out.Records = append(out.Records, rec)
		case strings.HasPrefix(name, "gh-"):
			if _, _, ok := parseTwo(name, "gh-"); !ok {
				return Restored{}, fmt.Errorf("%w: unparsable name %s", ErrJournalCorrupt, path)
			}
			data, err := j.fs.ReadFile(path)
			if err != nil {
				return Restored{}, fmt.Errorf("shard: read ghosts: %w", err)
			}
			r, err := fjOpen(data, fjKindGhosts, path)
			if err != nil {
				return Restored{}, err
			}
			gr, err := decodeGhosts(r)
			if err != nil {
				return Restored{}, fmt.Errorf("%w: %s: %w", ErrJournalCorrupt, path, err)
			}
			out.Ghosts = append(out.Ghosts, gr)
		}
	}
	sort.Slice(out.Records, func(a, b int) bool { return out.Records[a].Round < out.Records[b].Round })
	return out, nil
}
